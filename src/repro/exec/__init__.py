"""Unified execution layer: one request-oriented API over the substrate.

Before this layer, callers had to know which of four entry points to
drive — ``Strategy.eval_batch``, ``Scheduler.select``,
``MultiGpuExecutor.execute``, or the raw ``GpuSimulator`` — each with
its own key/arena/residency conventions.  Here a caller builds one
:class:`EvalRequest` (keys in any accepted form, table spec, residency
and SLO hints) and hands it to any :class:`ExecutionBackend`:

* :meth:`ExecutionBackend.plan` — scheduler-driven strategy selection
  plus modeled timing, as an :class:`ExecutionPlan`.
* :meth:`ExecutionBackend.run` — the functional ``(B, L)`` share
  matrix plus the plan and merged cost, as an :class:`EvalResult`.

The three adapters (:class:`SingleGpuBackend`, :class:`MultiGpuBackend`,
:class:`SimulatedBackend`) produce bit-identical answers; the PIR
pipeline in :mod:`repro.pir` serves through whichever one it is handed.
:class:`PlanCache` adds the zero-dispatch steady-state path on top:
memoized plans plus pinned workspaces per workload shape, with pow2
batch bucketing.

:mod:`repro.exec.select` is the hybrid-execution decision layer:
:func:`select_backend` prices a request on every candidate and picks
the cheapest, and :class:`HybridBackend` packages that rule as a
backend of its own — per-shape crossover buckets route small batches
to a CPU baseline and large ones to the GPUs (Figure 10's argument as
a dispatch policy).
"""

from repro.exec.backend import (
    ExecutionBackend,
    MultiGpuBackend,
    SimulatedBackend,
    SingleGpuBackend,
    merged_cost,
)
from repro.exec.plan_cache import PlanCache, PlanCacheStats, batch_bucket
from repro.exec.request import EvalRequest, EvalResult, ExecutionPlan
from repro.exec.select import BackendChoice, HybridBackend, select_backend

__all__ = [
    "EvalRequest",
    "EvalResult",
    "ExecutionPlan",
    "ExecutionBackend",
    "SingleGpuBackend",
    "MultiGpuBackend",
    "SimulatedBackend",
    "HybridBackend",
    "BackendChoice",
    "PlanCache",
    "PlanCacheStats",
    "batch_bucket",
    "select_backend",
    "merged_cost",
]

"""Unified execution layer: one request-oriented API over the substrate.

A caller builds one :class:`EvalRequest` (keys in any accepted form,
an optional row range and an optional reducer) and hands it to any
:class:`ExecutionBackend`:

* :meth:`ExecutionBackend.plan` — scheduler-driven strategy selection
  plus modeled timing on the V100, as an :class:`ExecutionPlan`.
* :meth:`ExecutionBackend.run` — the answers as one array: the
  ``(B, L)`` share matrix, or the ``(B,)`` reduced answers.

The two adapters (:class:`SingleGpuBackend`, :class:`SimulatedBackend`)
produce bit-identical answers; the PIR pipeline in :mod:`repro.pir`
serves through whichever one it is handed.
:class:`PlanCache` adds the zero-dispatch steady-state path on top:
memoized plans per workload shape, with pow2 batch bucketing.
"""

from repro.exec.backend import ExecutionBackend, SimulatedBackend, SingleGpuBackend
from repro.exec.plan_cache import PlanCache, PlanCacheStats, batch_bucket
from repro.exec.request import EvalRequest, ExecutionPlan

__all__ = [
    "EvalRequest",
    "ExecutionPlan",
    "ExecutionBackend",
    "SingleGpuBackend",
    "SimulatedBackend",
    "PlanCache",
    "PlanCacheStats",
    "batch_bucket",
]

"""Unified execution layer: one request-oriented API over the substrate.

A caller builds one :class:`EvalRequest` (keys in any accepted form,
an optional row range and an optional reducer) and hands it to an
:class:`ExecutionBackend`:

* :meth:`ExecutionBackend.run` — the answers as one array: the
  ``(B, L)`` share matrix, or the ``(B,)`` reduced answers.  It walks
  without planning.
* :meth:`ExecutionBackend.plan` — scheduler-driven strategy selection
  plus modeled timing on the V100, as an :class:`ExecutionPlan`.
  Nothing that runs reads it.

:class:`SingleGpuBackend` is the one adapter; the PIR pipeline in
:mod:`repro.pir` serves through whichever backend it is handed.
:class:`PlanCache` counts plan lookups per workload shape, with pow2
batch bucketing, and then runs the request as the backend would.
"""

from repro.exec.backend import ExecutionBackend, SingleGpuBackend
from repro.exec.plan_cache import PlanCache, PlanCacheStats, batch_bucket
from repro.exec.request import EvalRequest, ExecutionPlan

__all__ = [
    "EvalRequest",
    "ExecutionPlan",
    "ExecutionBackend",
    "SingleGpuBackend",
    "PlanCache",
    "PlanCacheStats",
    "batch_bucket",
]

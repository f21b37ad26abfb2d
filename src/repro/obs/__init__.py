"""repro.obs — end-to-end request tracing.

The observability substrate for the serving stack: span-based per-query
tracing that survives batch fusion, retry, shard fan-out, and replica
failover (:mod:`repro.obs.trace`); JSONL export of finished traces
(:mod:`repro.obs.export`) and report rendering
(:mod:`repro.obs.report`).  Counters stay with the component that
keeps them: the loop's ``stats``, the plan cache's ``stats`` and a
sharded server's ``stats_totals()``.  The disabled-mode default
(:data:`NULL_TRACER`) costs a handful of no-op calls per query.
"""

from .export import read_jsonl, trace_record, write_jsonl
from .report import render_report, slowest_traces, stage_breakdown
from .trace import (
    NULL_TRACER,
    REQUIRED_STAGES,
    RETRY_STAGES,
    STAGE_ADMIT,
    STAGE_DEMUX,
    STAGE_DISPATCH,
    STAGE_MERGE,
    STAGE_PLAN,
    STAGE_QUEUE,
    TRACE_OPS_PER_QUERY,
    TRACE_STATUSES,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    annotate_request,
    chain_problems,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "REQUIRED_STAGES",
    "RETRY_STAGES",
    "STAGE_ADMIT",
    "STAGE_DEMUX",
    "STAGE_DISPATCH",
    "STAGE_MERGE",
    "STAGE_PLAN",
    "STAGE_QUEUE",
    "Span",
    "TRACE_OPS_PER_QUERY",
    "TRACE_STATUSES",
    "TraceContext",
    "Tracer",
    "annotate_request",
    "chain_problems",
    "read_jsonl",
    "render_report",
    "slowest_traces",
    "stage_breakdown",
    "trace_record",
    "write_jsonl",
]

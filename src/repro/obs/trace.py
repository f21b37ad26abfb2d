"""Span-based request tracing for the serving stack.

Nine PRs of serving machinery — admission, batch fusion, plan
caching, shard fan-out, replica failover — grew counters
everywhere but could not answer the one question a latency
investigation starts with: *where did this query's time go?*
This module answers it with per-query **span chains**: every submitted
query gets a :class:`TraceContext`, and the serving loop opens and
closes one :class:`Span` per pipeline stage as the query moves through
it:

``admit`` -> ``queue`` -> ``merge`` -> ``plan`` -> ``dispatch`` ->
``demux``

A retried query repeats the ``queue``/``merge``/``plan``/``dispatch``
group (one iteration per dispatch attempt); annotations
(:meth:`TraceContext.event`) record the control-plane decisions that
do not have a duration — retries, shard failovers, sheds.  The context
is threaded *through* :class:`~repro.exec.EvalRequest` (its ``traces``
field), so it survives batch fusion (``merge``/``unmerge``), shard
fan-out (``restrict``) and replica failover — the deep layers annotate
the exact queries they acted on, with **zero orphaned spans**: every
span a closed trace carries has both endpoints
(:func:`chain_problems` is the machine-checkable definition).

Two design rules keep this usable in the repo's deterministic test
culture and in its hot loops:

* **Injectable clock** — a :class:`Tracer` reads time only from the
  callable it was constructed with, so tests drive traces with fake
  clocks and pin exact span timings.
* **Near-zero disabled overhead** — the serving loop always talks to a
  tracer, but the default is the :data:`NULL_TRACER` singleton whose
  context/span methods are empty and whose contexts are never attached
  to requests (``EvalRequest.traces`` stays ``None``, so the merge/
  shard layers skip tracing entirely).  The loop performs at most
  :data:`TRACE_OPS_PER_QUERY` no-op calls per query; CI pins that this
  costs < 1% of a pinned serving row's latency.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

STAGE_ADMIT = "admit"
"""Span: admission control + key ingestion inside ``submit``."""

STAGE_QUEUE = "queue"
"""Span: waiting in the FIFO queue for a batch (once per dispatch
attempt: a retried query opens a fresh one)."""

STAGE_MERGE = "merge"
"""Span: fusing the taken requests into one merged ``EvalRequest``."""

STAGE_PLAN = "plan"
"""Span: the planning step between merge and dispatch.  A server runs
every batch on its one backend, so today this span brackets no work;
it stays because the benchmark's per-stage metrics read it."""

STAGE_DISPATCH = "dispatch"
"""Span: the backend evaluation of the fused batch."""

STAGE_DEMUX = "demux"
"""Span: slicing this query's rows off the merged answers and framing
its reply."""

REQUIRED_STAGES = (
    STAGE_ADMIT,
    STAGE_QUEUE,
    STAGE_MERGE,
    STAGE_PLAN,
    STAGE_DISPATCH,
    STAGE_DEMUX,
)
"""Every answered query's trace must carry all six stages."""

RETRY_STAGES = (STAGE_QUEUE, STAGE_MERGE, STAGE_PLAN, STAGE_DISPATCH)
"""The group a retried query repeats, once per dispatch attempt."""

TRACE_OPS_PER_QUERY = 16
"""Upper bound on no-op tracer calls the serving loop makes per
answered query on the disabled (:data:`NULL_TRACER`) path: one
``trace()``, one ``close()``, and begin/end pairs for the six stages,
with headroom for a retry round.  CI multiplies this by the measured
per-call cost of the null tracer and asserts the product stays under
1% of a pinned serving row's latency."""

STATUS_OPEN = "open"
STATUS_ANSWERED = "answered"
STATUS_SHED = "shed"
STATUS_FAILED = "failed"
STATUS_CANCELLED = "cancelled"
STATUS_REJECTED = "rejected"

TRACE_STATUSES = (
    STATUS_OPEN,
    STATUS_ANSWERED,
    STATUS_SHED,
    STATUS_FAILED,
    STATUS_CANCELLED,
    STATUS_REJECTED,
)
"""Terminal trace statuses (plus ``open`` while in flight)."""


@dataclass
class Span:
    """One timed stage of one query's journey through the pipeline.

    Attributes:
        name: Stage name (one of :data:`REQUIRED_STAGES` for spans the
            serving loop emits).
        start_s: Clock reading when the stage began.
        end_s: Clock reading when the stage ended; ``None`` while open.
            A *closed* trace with an open span is an orphan — the bug
            class :func:`chain_problems` exists to catch.
        annotations: Stage-scoped key/values recorded at ``end`` time
            (flush reason, error type, ...).
    """

    name: str
    start_s: float
    end_s: float | None = None
    annotations: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Span duration; 0.0 while the span is still open."""
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (the export wire format)."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "annotations": dict(self.annotations),
        }


@dataclass(eq=False)
class TraceContext:
    """One query's trace: its spans, events, and terminal status.

    Created by :meth:`Tracer.trace` (never directly); identity
    equality because contexts travel through requests and queues as
    objects.

    Attributes:
        trace_id: Monotonic id unique within the owning tracer.
        meta: Submission-time identity (request id, query count, epoch).
        spans: Stage spans in begin order.
        events: Zero-duration annotations (retries, failovers, sheds)
            as ``{"name", "t", ...fields}`` dicts, in record order.
        status: ``"open"`` until :meth:`close`; then one of the
            terminal :data:`TRACE_STATUSES`.
        started_s: Clock reading at creation.
        ended_s: Clock reading at :meth:`close`; ``None`` while open.
    """

    trace_id: int
    meta: dict
    _tracer: "Tracer"
    spans: list[Span] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    status: str = STATUS_OPEN
    started_s: float = 0.0
    ended_s: float | None = None

    def begin(self, stage: str) -> Span:
        """Open a new stage span at the tracer's clock."""
        span = Span(name=stage, start_s=self._tracer.clock())
        self.spans.append(span)
        return span

    def end(self, span: Span, **annotations) -> None:
        """Close ``span`` now and attach ``annotations``."""
        if span.end_s is not None:
            return
        span.end_s = self._tracer.clock()
        if annotations:
            span.annotations.update(annotations)

    def event(self, name: str, **fields) -> None:
        """Record a zero-duration annotation (retry, failover, ...).

        Safe to call from any thread: appending to a list is atomic
        under the GIL, and events carry their own timestamps.
        """
        self.events.append({"name": name, "t": self._tracer.clock(), **fields})

    def event_names(self) -> list[str]:
        """The recorded event names, in order (test/report helper)."""
        return [event["name"] for event in self.events]

    def open_spans(self) -> list[Span]:
        """Spans begun but not yet ended (must be empty at close)."""
        return [span for span in self.spans if span.end_s is None]

    def close(self, status: str = STATUS_ANSWERED) -> None:
        """Mark the trace terminal and hand it to the tracer's
        ``finished`` list.  Idempotent: only the first close counts."""
        if self.status != STATUS_OPEN:
            return
        self.status = status
        self.ended_s = self._tracer.clock()
        self._tracer._finish(self)

    @property
    def duration_s(self) -> float:
        """Whole-trace duration; 0.0 while still open."""
        return (self.ended_s - self.started_s) if self.ended_s is not None else 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (the export wire format)."""
        return {
            "trace_id": self.trace_id,
            "meta": dict(self.meta),
            "status": self.status,
            "started_s": self.started_s,
            "ended_s": self.ended_s,
            "spans": [span.to_dict() for span in self.spans],
            "events": [dict(event) for event in self.events],
        }


class Tracer:
    """Factory and sink for :class:`TraceContext` objects.

    Args:
        clock: Monotonic time source; inject a fake for deterministic
            span timings.

    Attributes:
        enabled: ``True`` — the serving loop attaches contexts to
            requests only when this is set (the null tracer clears it).
        finished: Closed traces, in close order (drain with
            :meth:`drain`, or export via :mod:`repro.obs.export`).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.finished: list[TraceContext] = []
        self._ids = itertools.count()

    def trace(self, **meta) -> TraceContext:
        """Open a fresh trace whose ``meta`` records the submission
        identity (request id, query count, epoch: whatever the caller
        knows)."""
        return TraceContext(
            trace_id=next(self._ids),
            meta=meta,
            _tracer=self,
            started_s=self.clock(),
        )

    def drain(self) -> list[TraceContext]:
        """Pop and return every finished trace (export-and-reset)."""
        done, self.finished = self.finished, []
        return done

    # -- internal hooks (TraceContext calls these) ---------------------

    def _finish(self, ctx: TraceContext) -> None:
        self.finished.append(ctx)


class _NullSpan(Span):
    """The shared do-nothing span the null context hands out."""

    __slots__ = ()

    def __init__(self):
        super().__init__(name="", start_s=0.0, end_s=0.0)


class _NullTraceContext(TraceContext):
    """A context whose every method is an inert no-op."""

    def __init__(self):
        pass  # no fields: nothing is ever recorded

    def begin(self, stage: str) -> Span:
        return _NULL_SPAN

    def end(self, span: Span, **annotations) -> None:
        return None

    def event(self, name: str, **fields) -> None:
        return None

    def close(self, status: str = STATUS_ANSWERED) -> None:
        return None

    def open_spans(self) -> list[Span]:
        return []


class NullTracer:
    """The disabled-mode tracer: every operation is an inert no-op.

    This is the serving loop's default, so bare backends pay only
    :data:`TRACE_OPS_PER_QUERY` empty method calls per query — no
    allocation, no clock reads, no context attached to requests
    (``enabled`` is ``False``, which is what the loop and the request-
    merge layers key off).
    """

    enabled = False
    finished: list = []

    def trace(self, **meta) -> TraceContext:
        return _NULL_CONTEXT

    def drain(self) -> list:
        return []


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullTraceContext()

NULL_TRACER = NullTracer()
"""The shared disabled-mode tracer (the serving loop's default)."""


def annotate_request(request, name: str, **fields) -> None:
    """Record ``event(name, **fields)`` on every trace a request carries.

    The deep-layer annotation hook: :class:`~repro.serve.shard
    .ReplicaSet` calls this on the (possibly merged, possibly
    restricted) request it is acting on, so retries and failovers land
    on exactly the queries they affected.  A request without trace
    contexts (``traces`` unset — the disabled-mode default) costs one
    attribute read.
    """
    traces = getattr(request, "traces", None)
    if traces:
        for ctx in traces:
            if ctx is not None:
                ctx.event(name, **fields)


def chain_problems(trace: TraceContext | dict) -> list[str]:
    """Why this trace's span chain is incomplete ([] when it is whole).

    The machine-checkable definition of "a complete, orphan-free span
    chain" the acceptance criteria demand for every answered query:

    * the trace is closed, with every span ended (no orphans) and all
      span times inside the trace's own window;
    * exactly one :data:`STAGE_ADMIT` span, and it is first;
    * exactly one :data:`STAGE_DEMUX` span, and it is last;
    * at least one full :data:`RETRY_STAGES` group, with *equal* counts
      of queue/merge/plan/dispatch spans (a retry repeats the whole
      group — a missing member means a span was dropped somewhere);
    * span start times are non-decreasing (begin order is time order).

    Accepts a live :class:`TraceContext` or its exported dict form, so
    the same checker runs in-process (smoke, tests) and over JSONL
    export files (report tooling).
    """
    if isinstance(trace, TraceContext):
        trace = trace.to_dict()
    problems: list[str] = []
    if trace["status"] == STATUS_OPEN:
        problems.append("trace never closed")
    spans = trace["spans"]
    for span in spans:
        if span["end_s"] is None:
            problems.append(f"orphaned span {span['name']!r} (begun, never ended)")
        elif span["end_s"] < span["start_s"]:
            problems.append(f"span {span['name']!r} ends before it starts")
    names = [span["name"] for span in spans]
    counts = {name: names.count(name) for name in set(names)}
    if counts.get(STAGE_ADMIT, 0) != 1:
        problems.append(
            f"expected exactly one admit span, got {counts.get(STAGE_ADMIT, 0)}"
        )
    elif names[0] != STAGE_ADMIT:
        problems.append(f"admit is not the first span (chain starts {names[0]!r})")
    if counts.get(STAGE_DEMUX, 0) != 1:
        problems.append(
            f"expected exactly one demux span, got {counts.get(STAGE_DEMUX, 0)}"
        )
    elif names[-1] != STAGE_DEMUX:
        problems.append(f"demux is not the last span (chain ends {names[-1]!r})")
    rounds = {stage: counts.get(stage, 0) for stage in RETRY_STAGES}
    if min(rounds.values()) < 1:
        missing = [stage for stage, count in rounds.items() if count < 1]
        problems.append(f"chain is missing stage span(s): {missing}")
    elif len(set(rounds.values())) != 1:
        problems.append(
            f"unbalanced retry rounds (counts per stage: {rounds}) — "
            "some dispatch attempt dropped a stage span"
        )
    starts = [span["start_s"] for span in spans]
    if any(later < earlier for earlier, later in zip(starts, starts[1:])):
        problems.append("span start times are not non-decreasing")
    ended = [span["end_s"] for span in spans if span["end_s"] is not None]
    if trace["ended_s"] is not None and ended:
        if max(ended) > trace["ended_s"] or min(starts) < trace["started_s"]:
            problems.append("span times fall outside the trace window")
    return problems

"""The async serving loop: aggregate, dispatch, demultiplex.

This is the throughput engine the paper's serving claim rests on:
GPU PIR is fast *because* many concurrent clients' DPF keys run as one
fused expansion, so a server must aggregate live traffic into
kernel-sized batches without making any caller wait for traffic that
has not arrived.
:class:`AsyncPirServer` wraps one :class:`~repro.pir.PirServer` in an
asyncio request loop that does exactly that:

* **Submission** — :meth:`AsyncPirServer.submit` takes one framed
  :class:`~repro.pir.wire.PirQuery` buffer, validates it end to end
  (malformed, mismatched, or oversized queries fail *synchronously*,
  before entering the queue), applies admission control, appends the
  validated request to the one FIFO pending queue, and awaits a
  per-request future.
* **Aggregation** — a background task merges pending requests into one
  fused :class:`~repro.exec.EvalRequest` and dispatches it at once: a
  full ``max_batch`` batch as soon as one is queued, anything less after
  one yield, so every submission already runnable in this event-loop
  turn fuses into it.  The loop is work-conserving — it never lingers
  for arrivals that are not yet runnable — and under load batches still
  fill to ``max_batch`` because arrivals pile up behind the dispatch
  that is running.  While idle it awaits its wake event and arms no
  timer.  Requests are taken into fused batches in arrival order, and a
  batch never spans a table-epoch flip.
* **Dispatch** — the merged batch runs on the wrapped server's one
  backend (:meth:`~repro.pir.PirServer.answer_request`).
* **Failure containment** — a fused batch concentrates risk: one
  backend exception would fail *every* query in it.  Instead, the loop
  un-merges a failed batch (:meth:`~repro.exec.EvalRequest.unmerge`)
  and puts its surviving requests straight back at the front of the
  queue, oldest first; only a request that has used up its
  ``max_attempts`` dispatches fails, individually.  This is the one
  place a failed dispatch is retried: a sharded server's replica sets
  only fail over (:mod:`repro.serve.shard`).
* **Demultiplexing** — the merged ``(B, L)`` share matrix is combined
  against the table *once* and the ``(B,)`` answer vector sliced back
  per request; each caller's future resolves to its own framed
  :class:`~repro.pir.wire.PirReply`, bit-identical to what a
  sequential ``PirServer.handle`` call would have produced — a
  property that holds *through* injected backend faults
  (``tests/serve/test_chaos.py``).

Admission control is the ``max_pending`` depth cap alone; nothing is
priced on a device model.  Shed queries get
:class:`PirServerOverloaded` immediately.  Every flush runs on the
event loop, one at a time.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field

from repro.exec.request import EvalRequest
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    STAGE_ADMIT,
    STAGE_DEMUX,
    STAGE_DISPATCH,
    STAGE_MERGE,
    STAGE_PLAN,
    STAGE_QUEUE,
    STATUS_ANSWERED,
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_REJECTED,
    STATUS_SHED,
    Span,
    TraceContext,
)
from repro.pir.server import PirServer
from repro.pir.wire import PirQuery, PirReply
from repro.serve.shard import ShardedPirServer

FLUSH_MAX_BATCH = "max_batch"
"""Flush reason: the pending queue reached ``max_batch`` queries."""

FLUSH_ARENA_BYTES = "arena_bytes"
"""Flush reason the loop never returns any more: the key-material budget
it named is gone.  Kept only because ``benchmark/layers.py`` imports and
indexes all four ``FLUSH_*`` names; ROADMAP slice 1a deletes it."""

FLUSH_DEADLINE = "deadline"
"""Flush reason: a non-full batch, dispatched at once.  The name is the
deleted linger deadline's; ROADMAP slice 1a may rename it."""

FLUSH_DRAIN = "drain"
"""Flush reason: the loop is stopping and drained its queue."""

SHED_DEPTH = "depth"
"""Shed reason: the ``max_pending`` hard cap (queue depth) was hit."""


class PirServerOverloaded(RuntimeError):
    """The query was shed by admission control, not served.

    Raised to the submitter *synchronously* so a client can back off or
    retry elsewhere — under overload an immediate error is kinder than
    an unbounded queue whose tail latency grows without limit.  The
    only cause is the ``max_pending`` depth cap (:data:`SHED_DEPTH`).
    """


@dataclass
class ServingStats:
    """Observable counters for one serving loop's lifetime.

    Attributes:
        submitted: Queries admitted into the queue.
        answered: Queries whose reply future actually received its
            result (a caller that cancelled mid-queue is counted under
            ``cancelled``, never here).
        shed: Queries rejected by the ``max_pending`` depth cap.
        retried: Queries requeued after a failed batch dispatch.
        failed: Queries whose future received a backend failure after
            their ``max_attempts`` dispatches were used up.
        failures: Failed batch *dispatches* keyed by exception type
            name (one entry per failed flush, however many queries it
            carried).
        cancelled: Queries whose caller cancelled the awaited future —
            purged before merging when caught in the queue, or dropped
            at demux when the cancel raced the dispatch.
        batches: Merged batches dispatched successfully.
        largest_batch: Most queries fused into one dispatched batch.
        flushes: Successful dispatch counts keyed by flush reason:
            :data:`FLUSH_MAX_BATCH` (a full batch),
            :data:`FLUSH_DEADLINE` (a non-full batch, dispatched at
            once) or :data:`FLUSH_DRAIN` (the loop is stopping).  The
            plan cache's counters are its own ``plan_cache`` view.
    """

    submitted: int = 0
    answered: int = 0
    shed: int = 0
    retried: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    cancelled: int = 0
    batches: int = 0
    largest_batch: int = 0
    flushes: dict[str, int] = field(default_factory=dict)

    @property
    def mean_batch(self) -> float:
        """Average fused-batch size — the aggregation win in one number."""
        return self.answered / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        """JSON-ready counters — the metrics-registry view shape."""
        return {
            "submitted": self.submitted,
            "answered": self.answered,
            "shed": self.shed,
            "retried": self.retried,
            "failed": self.failed,
            "failures": dict(self.failures),
            "cancelled": self.cancelled,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "mean_batch": self.mean_batch,
            "flushes": dict(self.flushes),
        }


@dataclass(eq=False)
class _Pending:
    """One admitted query awaiting its batch.

    Identity equality (``eq=False``): pendings are tracked through
    the queue as objects, and field equality would recurse into
    numpy-backed requests."""

    query: PirQuery
    request: EvalRequest
    future: asyncio.Future
    attempts: int = 0
    # Tracing: the query's trace context (a no-op singleton when
    # tracing is off) and its currently-open queue-wait span.
    ctx: TraceContext = field(default_factory=NULL_TRACER.trace)
    queue_span: Span | None = None


class AsyncPirServer:
    """Async batch-aggregation front end for one :class:`PirServer`.

    Args:
        server: The wrapped server (table, PRF, backend, residency).
        max_batch: The most queries fused into one batch (a flush takes
            whole requests until the next would exceed it; a single
            larger request still flushes, alone).  A full batch
            dispatches at once with reason :data:`FLUSH_MAX_BATCH`.
        max_pending: Admission's hard cap: the most queries (keys, not
            requests) queued at once, retries included; a submission
            that would exceed it is shed with
            :class:`PirServerOverloaded`.
        max_attempts: Dispatches each request may take, the first
            included (default 3; 1 disables retries).  A failed batch's
            survivors go straight back to the front of the queue.
        tracer: Optional :class:`~repro.obs.trace.Tracer`.  When given,
            every submitted query gets a trace context whose spans
            (admit → queue → merge → plan → dispatch → demux) follow it
            through batch fusion, retry, shard fan-out and failover;
            finished traces land in ``tracer.finished``.  The default
            is the no-op :data:`~repro.obs.trace.NULL_TRACER` — a
            handful of empty method calls per query, nothing allocated,
            nothing attached to requests.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`.
            When given, the loop registers every subsystem it can see
            as a view — its own :class:`ServingStats`, the server's
            plan cache, a sharded server's shard totals — so one
            ``metrics.snapshot()`` is the whole system's state.
            Pair it with the tracer (``Tracer(metrics=registry)``) to
            get per-stage latency histograms too.  Snapshots are
            the caller's: ``metrics.record_snapshot()``, or
            ``write_jsonl(registry=metrics)`` at export.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly::

        async with AsyncPirServer(server) as loop:
            reply = await loop.submit(query_bytes)
    """

    def __init__(
        self,
        server: PirServer,
        max_batch: int = 64,
        max_pending: int = 1024,
        max_attempts: int = 3,
        tracer=None,
        metrics: MetricsRegistry | None = None,
    ):
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_pending <= 0:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.server = server
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.max_attempts = max_attempts
        self.stats = ServingStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        if metrics is not None:
            self._register_views(metrics)
        self._queue: deque[_Pending] = deque()
        self._queued_queries = 0
        self._wake: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._stopping = False

    def _register_views(self, metrics: MetricsRegistry) -> None:
        """Absorb every reachable ad-hoc counter bundle as a view.

        Names are uniquified so two loops (the protocol's two parties)
        can share one registry.
        """
        metrics.register_view(metrics.unique_name("serving"), self.stats.as_dict)
        cache = self.server.plan_cache
        if cache is not None:
            metrics.register_view(
                metrics.unique_name("plan_cache"), cache.stats.as_dict
            )
        if isinstance(self.server, ShardedPirServer):
            totals = self.server.stats_totals
            metrics.register_view(
                metrics.unique_name("shards"), lambda: totals().as_dict()
            )

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Start the background aggregation task (idempotent)."""
        if self._task is not None:
            return
        self._stopping = False
        self._wake = asyncio.Event()
        self._task = asyncio.create_task(self._run())

    async def stop(self) -> None:
        """Drain the queue, flush the final batch, stop the task."""
        if self._task is None:
            return
        self._stopping = True
        self._wake.set()
        await self._task
        self._task = None

    async def __aenter__(self) -> "AsyncPirServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- submission ----------------------------------------------------

    @property
    def pending_queries(self) -> int:
        """Queries queued, retries included (what admission bounds)."""
        return self._queued_queries

    def _admit(self, query: PirQuery) -> None:
        """The ``max_pending`` depth cap; raises to shed.

        Consulted on the frame header only — no key material has been
        ingested yet, so shedding stays O(header) under overload (the
        regime admission control exists for).
        """
        if self.pending_queries + query.count > self.max_pending:
            self.stats.shed += query.count
            raise PirServerOverloaded(
                f"queue holds {self.pending_queries} queries; admitting "
                f"{query.count} more would exceed max_pending="
                f"{self.max_pending}"
            )

    async def submit(self, request_bytes: bytes) -> bytes:
        """Serve one framed query through the aggregation loop.

        Returns the framed reply, bit-identical to what a sequential
        ``server.handle(request_bytes)`` call would produce.

        Submitting before :meth:`start` is legal — the query queues and
        is answered by the first flush after the loop starts (tests use
        this to build deterministic backlogs).  Submitting after (or
        racing with) :meth:`stop` raises instead of enqueueing a query
        no flush would ever answer.

        Admission (the depth cap) is checked on the frame header
        *before* key ingestion, so shedding stays O(header) under
        overload — the regime it exists for.  (A query that is both
        shed-worthy and malformed therefore sheds rather than reporting
        its bad keys.)

        Args:
            request_bytes: One framed :class:`~repro.pir.wire.PirQuery`.

        Raises:
            ValueError: Synchronously, on a malformed/mismatched/
                oversized query (never enters the queue).
            PirServerOverloaded: Synchronously, when admission control
                sheds the query (depth cap).
            RuntimeError: Synchronously, when the loop is stopped.
        """
        if self._stopping:
            raise RuntimeError("serving loop is stopped; no flush would answer this")
        query = PirQuery.from_bytes(request_bytes)
        ctx = self.tracer.trace(
            request_id=query.request_id, count=query.count, epoch=query.epoch
        )
        admit_span = ctx.begin(STAGE_ADMIT)
        try:
            self._admit(query)
            request = self.server.ingest_query(query)
        except PirServerOverloaded:
            ctx.end(admit_span, shed=SHED_DEPTH)
            ctx.event("shed", reason=SHED_DEPTH)
            ctx.close(STATUS_SHED)
            raise
        except ValueError as exc:
            ctx.end(admit_span, error=type(exc).__name__)
            ctx.close(STATUS_REJECTED)
            raise
        ctx.end(admit_span)
        if self.tracer.enabled:
            # Thread the context through the request so fusion, shard
            # fan-out and failover can annotate exactly this query.
            request.traces = (ctx,)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        pending = _Pending(
            query, request, future, ctx=ctx, queue_span=ctx.begin(STAGE_QUEUE)
        )
        self._queue.append(pending)
        self._queued_queries += query.count
        self.stats.submitted += query.count
        if self._wake is not None:
            self._wake.set()
        return await future

    # -- aggregation ---------------------------------------------------

    def _flush_reason(self) -> str | None:
        """Why to flush now, or None when nothing is queued."""
        if not self._queue:
            return None
        if self._queued_queries >= self.max_batch:
            return FLUSH_MAX_BATCH
        return FLUSH_DEADLINE

    async def _run(self) -> None:
        while not self._stopping:
            reason = self._flush_reason()
            if reason == FLUSH_DEADLINE:
                # A non-full batch: yield once, so every submission
                # already runnable in this event-loop turn fuses into it
                # (by construction, not by the depth of a wake-up chain).
                await asyncio.sleep(0)
                reason = self._flush_reason()
            if reason is not None:
                self._flush(reason)
                await self._settle()
                continue
            self._wake.clear()
            await self._wake.wait()
        # Drain: flush until empty.  Terminates even against an
        # always-failing backend because each failed dispatch consumes
        # one of a request's bounded attempts.
        while self._queue:
            self._flush(FLUSH_DRAIN)
            await self._settle()

    async def _settle(self) -> None:
        """Let answered callers resume before the next dispatch.

        ``_flush`` resolves futures synchronously, but the awaiting
        callers only *run* when this task yields — and resuming a
        caller takes a short ``call_soon`` chain (future → awaiting
        task → its own awaiters).  Without this yield a train of
        back-to-back flushes would hold the event loop for its whole
        synchronous duration, silently charging every earlier batch's
        callers with every later batch's dispatch time.  Three
        microtask rounds cover the resume chain's depth; this bounds
        reply-delivery latency at one flush, independent of queue
        depth.
        """
        for _ in range(3):
            await asyncio.sleep(0)

    def _purge_cancelled(self) -> None:
        """Drop pendings whose caller cancelled the awaited future, so
        a client-side timeout neither evaluates nor counts — the
        cancelled-future leak fix."""
        if not any(p.future.done() for p in self._queue):
            return
        kept: deque[_Pending] = deque()
        for pending in self._queue:
            if pending.future.done():
                self.stats.cancelled += pending.query.count
                self._queued_queries -= pending.query.count
                self._close_cancelled(pending)
            else:
                kept.append(pending)
        self._queue = kept

    @staticmethod
    def _close_cancelled(pending: _Pending) -> None:
        """End a purged pending's open queue span and close its trace."""
        if pending.queue_span is not None:
            pending.ctx.end(pending.queue_span, cancelled=True)
            pending.queue_span = None
        pending.ctx.close(STATUS_CANCELLED)

    def _take_batch(self) -> list[_Pending]:
        """Pop whole requests until adding the next would exceed
        ``max_batch`` queries (always at least one, so a single request
        larger than the cap — legal unless the server caps it — still
        flushes alone).
        Cancelled requests are purged first, so they are never merged
        into the fused batch.

        A batch is single-epoch: queries pinned to different table
        epochs must run against different table versions, so a queue
        that spans an epoch flip splits at the flip boundary — the
        head's epoch defines the batch and a mismatched head ends the
        take (the next flush picks the other epoch up)."""
        self._purge_cancelled()
        taken: list[_Pending] = []
        epoch: int | None = None
        count = 0
        queue = self._queue
        while queue:
            nxt = queue[0]
            if epoch is not None and nxt.query.epoch != epoch:
                break
            if taken and count + nxt.query.count > self.max_batch:
                break
            taken.append(queue.popleft())
            if nxt.queue_span is not None:
                nxt.ctx.end(nxt.queue_span)
                nxt.queue_span = None
            epoch = nxt.query.epoch
            count += nxt.query.count
        self._queued_queries -= count
        return taken

    def _flush(self, reason: str) -> None:
        taken = self._take_batch()
        if not taken:  # everything pending had been cancelled
            return
        merged = None
        sizes: tuple[int, ...] = ()
        epoch = taken[0].query.epoch
        # Stage spans open in lockstep across the batch: every taken
        # query is in the same stage at the same time, so `open_spans`
        # is the set to close (with the error) if the stage throws.
        open_spans: list[tuple[_Pending, Span]] = []
        try:
            open_spans = [(p, p.ctx.begin(STAGE_MERGE)) for p in taken]
            merged, sizes = EvalRequest.merge([p.request for p in taken])
            for pending, span in open_spans:
                pending.ctx.end(
                    span, queries=int(sum(sizes)), requests=len(taken), reason=reason
                )
            # One answer_request for the whole fused batch (the server's
            # overridable serving seam — a sharded server fans out and
            # recombines inside it), then per-request slicing: the
            # demux is row offsets, nothing recomputed.  The plan span
            # brackets no work since the server's one backend needs no
            # routing; it stays because the benchmark's per-stage
            # metrics read it.
            for pending in taken:
                pending.ctx.end(pending.ctx.begin(STAGE_PLAN))
            open_spans = [(p, p.ctx.begin(STAGE_DISPATCH)) for p in taken]
            answers = self.server.answer_request(merged, epoch=epoch, sizes=sizes)
            for pending, span in open_spans:
                pending.ctx.end(span)
            open_spans = []
        except Exception as exc:
            # End the batch's in-flight stage spans with the error
            # before containment — no trace leaves an orphan behind.
            for pending, span in open_spans:
                pending.ctx.end(span, error=type(exc).__name__)
            self._requeue_or_fail(taken, merged, sizes, exc)
            return
        self.stats.batches += 1
        self.stats.largest_batch = max(self.stats.largest_batch, int(answers.size))
        self.stats.flushes[reason] = self.stats.flushes.get(reason, 0) + 1
        offset = 0
        for pending, size in zip(taken, sizes):
            span = pending.ctx.begin(STAGE_DEMUX)
            reply = PirReply(
                request_id=pending.query.request_id,
                answers=answers[offset : offset + size],
                epoch=pending.query.epoch,
            ).to_bytes()
            offset += size
            if pending.future.done():
                # The caller cancelled while the batch was in flight;
                # the work is sunk cost but must not count as answered.
                self.stats.cancelled += size
                pending.ctx.end(span, cancelled=True)
                pending.ctx.close(STATUS_CANCELLED)
                continue
            pending.future.set_result(reply)
            self.stats.answered += size
            pending.ctx.end(span)
            pending.ctx.close(STATUS_ANSWERED)

    def _requeue_or_fail(
        self,
        taken: list[_Pending],
        merged: EvalRequest | None,
        sizes: tuple[int, ...],
        exc: Exception,
    ) -> None:
        """Contain a failed batch dispatch: un-merge, put survivors
        under their attempt cap back at the queue's front, fail the rest
        *individually*."""
        reason = type(exc).__name__
        self.stats.failures[reason] = self.stats.failures.get(reason, 0) + 1
        # Each survivor retries on a zero-copy slice of the merged
        # arena when the merge got that far; a pre-merge failure just
        # requeues the original per-request requests.
        if merged is not None and len(sizes) == len(taken):
            requests = EvalRequest.unmerge(merged, sizes)
        else:
            requests = [p.request for p in taken]
        retries: list[_Pending] = []
        for pending, request in zip(taken, requests):
            if pending.future.done():
                self.stats.cancelled += pending.query.count
                pending.ctx.close(STATUS_CANCELLED)
                continue
            pending.attempts += 1
            if pending.attempts < self.max_attempts:
                pending.request = request
                pending.ctx.event("retry", attempt=pending.attempts, error=reason)
                # A fresh queue-wait span opens now and ends when the
                # retry is re-taken, so the chain repeats the
                # queue→merge→plan→dispatch group once per attempt.
                pending.queue_span = pending.ctx.begin(STAGE_QUEUE)
                retries.append(pending)
                self._queued_queries += pending.query.count
                self.stats.retried += pending.query.count
            else:
                pending.future.set_exception(exc)
                pending.ctx.event("failed", error=reason)
                pending.ctx.close(STATUS_FAILED)
                self.stats.failed += pending.query.count
        # They were taken from the front in queue order; extendleft
        # reverses, so reversing first keeps the oldest at the very
        # front — seniority survives the round trip through retry.
        self._queue.extendleft(reversed(retries))

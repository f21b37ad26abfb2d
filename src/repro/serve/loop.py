"""The SLO-aware async serving loop: aggregate, dispatch, demultiplex.

This is the throughput engine the paper's serving claim rests on:
GPU PIR is fast *because* many concurrent clients' DPF keys run as one
fused expansion, so a server must aggregate live traffic into
kernel-sized batches without blowing each caller's latency budget.
:class:`AsyncPirServer` wraps one :class:`~repro.pir.PirServer` in an
asyncio request loop that does exactly that:

* **Submission** — :meth:`AsyncPirServer.submit` takes one framed
  :class:`~repro.pir.wire.PirQuery` buffer, validates it end to end
  (malformed, mismatched, or oversized queries fail *synchronously*,
  before entering the queue), applies admission control and the
  submitting tenant's QoS policy, enqueues the validated request under
  its priority class, and awaits a per-request future.
* **Aggregation** — a background task merges pending requests into one
  fused :class:`~repro.exec.EvalRequest` and flushes when any SLO
  trigger fires: the batch reached ``max_batch`` queries, the pending
  key material reached ``max_arena_bytes``, or the *oldest* request's
  ``max_wait_s`` deadline arrived.  The loop is work-conserving:
  ``max_wait_s`` defaults to 0, so an idle loop dispatches whatever is
  queued as soon as it runs, and under load batches still fill to
  ``max_batch`` because arrivals pile up behind the dispatch that is
  running.  Before it takes a non-full batch the loop yields once, so
  every submission already runnable in this event-loop turn fuses into
  that batch; while idle it arms no timer unless a positive linger, a
  retry backoff or a snapshot is pending.  Interactive-class requests
  are taken into fused batches ahead of batch-class ones, bounded by an
  anti-starvation age (see :class:`~repro.serve.control.QosPolicy`).
* **Dispatch** — the merged batch runs on the wrapped server's one
  backend (:meth:`~repro.pir.PirServer.answer_request`).
* **Failure containment** — a fused batch concentrates risk: one
  backend exception would fail *every* query in it.  Instead, the loop
  un-merges a failed batch (:meth:`~repro.exec.EvalRequest.unmerge`)
  and requeues its surviving requests under the
  :class:`~repro.serve.control.RetryPolicy` (bounded attempts,
  exponential backoff charged against a per-request budget); only a
  request whose retry budget is exhausted fails, individually.
* **Demultiplexing** — the merged ``(B, L)`` share matrix is combined
  against the table *once* and the ``(B,)`` answer vector sliced back
  per request; each caller's future resolves to its own framed
  :class:`~repro.pir.wire.PirReply`, bit-identical to what a
  sequential ``PirServer.handle`` call would have produced — a
  property that holds *through* injected backend faults
  (``tests/serve/test_chaos.py``).

Admission control is two-layered.  The default policy sheds by
*predicted drain time*: queue depth divided by the modeled throughput
of a flush (:class:`~repro.serve.control.DrainTimeModel`, priced on
the server's backend) against ``drain_budget_s`` — "will this
query make it out inside the budget", not "how long is the line".
Behind it, ``max_pending`` remains a hard depth cap.  Shed queries get
:class:`PirServerOverloaded` immediately; rate-limited tenants get
:class:`TenantRateLimited` so clients can tell "server full" from
"you specifically are over quota".
"""

from __future__ import annotations

import asyncio
import time
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

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
from repro.serve.control import (
    QOS_CLASSES,
    SHED_DEPTH,
    SHED_DRAIN,
    SHED_RATE_LIMIT,
    DrainTimeModel,
    QosPolicy,
    RetryPolicy,
)
from repro.serve.shard import ShardedPirServer

FLUSH_MAX_BATCH = "max_batch"
"""Flush reason: the pending queue reached ``max_batch`` queries."""

FLUSH_ARENA_BYTES = "arena_bytes"
"""Flush reason: pending key material reached ``max_arena_bytes``."""

FLUSH_DEADLINE = "deadline"
"""Flush reason: the oldest request's ``max_wait_s`` deadline arrived
(under the default zero linger: a non-full batch dispatched at once)."""

FLUSH_DRAIN = "drain"
"""Flush reason: the loop is stopping and drained its queue."""


_DISPATCH_EXECUTORS: (
    "weakref.WeakKeyDictionary[asyncio.AbstractEventLoop, list]"
) = weakref.WeakKeyDictionary()
"""Per-event-loop shared dispatch executor, as ``[executor, refcount]``."""


def _acquire_dispatch_executor(
    loop: asyncio.AbstractEventLoop,
) -> ThreadPoolExecutor:
    """The event loop's single shared dispatch thread (refcounted).

    Every overlapped serving loop on one event loop dispatches through
    the *same* one-thread executor.  One thread is the point: the two
    parties of the protocol normally run in one process, and giving
    each its own dispatch thread would run their expansions
    concurrently — which is not what double-buffering means (the
    pipeline overlaps *ingest* with expansion, never expansion with
    expansion) and, on a host without spare cores, actively loses
    throughput to GIL convoying between the two kernels.  Sharing one
    thread serializes every expansion in FIFO order while each loop
    still keeps at most one dispatch in flight, so replies stay
    bit-identical to sequential serving.
    """
    entry = _DISPATCH_EXECUTORS.get(loop)
    if entry is None:
        entry = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="pir-dispatch"),
            0,
        ]
        _DISPATCH_EXECUTORS[loop] = entry
    entry[1] += 1
    return entry[0]


def _release_dispatch_executor(
    loop: asyncio.AbstractEventLoop, executor: ThreadPoolExecutor
) -> None:
    """Drop one reference; the last holder shuts the executor down."""
    entry = _DISPATCH_EXECUTORS.get(loop)
    if entry is None or entry[0] is not executor:
        # Not (or no longer) the loop's shared executor — orphaned, so
        # shutting it down affects only the caller.
        executor.shutdown(wait=True)
        return
    entry[1] -= 1
    if entry[1] <= 0:
        del _DISPATCH_EXECUTORS[loop]
        executor.shutdown(wait=True)


class PirServerOverloaded(RuntimeError):
    """The query was shed by admission control, not served.

    Raised to the submitter *synchronously* so a client can back off or
    retry elsewhere — under overload an immediate error is kinder than
    an unbounded queue whose tail latency grows without limit.

    Attributes:
        reason: Which admission layer shed
            (:data:`~repro.serve.control.SHED_DEPTH` /
            :data:`~repro.serve.control.SHED_DRAIN` /
            :data:`~repro.serve.control.SHED_RATE_LIMIT`).
    """

    def __init__(self, message: str, reason: str = SHED_DEPTH):
        super().__init__(message)
        self.reason = reason


class TenantRateLimited(PirServerOverloaded):
    """The submitting tenant's token bucket was empty.

    A subclass of :class:`PirServerOverloaded` so existing shed
    handling catches it, but distinguishable: the *server* has
    capacity — this tenant is over its own quota and should back off
    without failing over to a replica.
    """

    def __init__(self, message: str):
        super().__init__(message, reason=SHED_RATE_LIMIT)


@dataclass(frozen=True)
class SloConfig:
    """The serving loop's latency/batching knobs.

    Attributes:
        max_batch: Flush once this many queries are pending; also the
            cap on queries fused into one merged batch (a flush takes
            whole requests until adding the next would exceed it).
        max_wait_s: Deadline trigger — no admitted query waits longer
            than this for its batch to *start*, however light the
            traffic.  The default 0 is work-conserving: a non-full batch
            dispatches as soon as the loop runs (after one yield that
            fuses every submission already runnable), and batches still
            fill under load because arrivals queue behind the running
            dispatch.  A positive linger holds a non-full batch open for
            arrivals that are *not yet* runnable; it buys larger batches
            only when spare capacity would otherwise go unused anyway —
            e.g. a backend whose per-batch cost barely grows with batch
            size — and costs up to this much latency per query.
        max_arena_bytes: Optional key-material budget — flush once the
            pending arenas reach this many bytes, and cap each merged
            batch's arena footprint (its device-upload cost) at the
            same budget (a single over-budget request still flushes,
            alone).  ``None`` disables both.
    """

    max_batch: int = 64
    max_wait_s: float = 0.0
    max_arena_bytes: int | None = None

    def __post_init__(self):
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.max_arena_bytes is not None and self.max_arena_bytes <= 0:
            raise ValueError(
                f"max_arena_bytes must be positive or None, got {self.max_arena_bytes}"
            )


@dataclass(frozen=True)
class AdmissionConfig:
    """Backpressure policy for the bounded request queue.

    Attributes:
        max_pending: Hard cap — maximum queries (keys, not requests)
            queued or awaiting retry at once; a submission that would
            exceed it is shed with :class:`PirServerOverloaded`.
        drain_budget_s: Drain-time policy (the default shedding layer):
            shed when the *modeled* time to drain the queue including
            the new query — pending queries over the modeled throughput
            of a ``max_batch`` flush on the server's backend — would
            exceed this budget.  ``None`` disables the drain layer,
            reverting to depth-only shedding.
    """

    max_pending: int = 1024
    drain_budget_s: float | None = 0.25

    def __post_init__(self):
        if self.max_pending <= 0:
            raise ValueError(f"max_pending must be positive, got {self.max_pending}")
        if self.drain_budget_s is not None and self.drain_budget_s <= 0:
            raise ValueError(
                f"drain_budget_s must be positive or None, got {self.drain_budget_s}"
            )


@dataclass
class ServingStats:
    """Observable counters for one serving loop's lifetime.

    Attributes:
        submitted: Queries admitted into the queue.
        answered: Queries whose reply future actually received its
            result (a caller that cancelled mid-queue is counted under
            ``cancelled``, never here).
        shed: Queries rejected by admission control, all layers.
        shed_reasons: Shed counts keyed by admission layer
            (:data:`~repro.serve.control.SHED_DEPTH` /
            :data:`~repro.serve.control.SHED_DRAIN` /
            :data:`~repro.serve.control.SHED_RATE_LIMIT`).
        retried: Queries requeued after a failed batch dispatch.
        failed: Queries whose future received a backend failure after
            the retry budget was exhausted.
        failures: Failed batch *dispatches* keyed by exception type
            name (one entry per failed flush, however many queries it
            carried).
        cancelled: Queries whose caller cancelled the awaited future —
            purged before merging when caught in the queue, or dropped
            at demux when the cancel raced the dispatch.
        batches: Merged batches dispatched successfully.
        largest_batch: Most queries fused into one dispatched batch.
        flushes: Successful dispatch counts keyed by flush reason
            (:data:`FLUSH_MAX_BATCH` / :data:`FLUSH_ARENA_BYTES` /
            :data:`FLUSH_DEADLINE` / :data:`FLUSH_DRAIN`).
        plan_cache_stats: The wrapped server's live
            :class:`~repro.exec.plan_cache.PlanCacheStats` (bound at
            loop construction when the server carries a cache; ``None``
            otherwise).  ``plan_cache_hits`` / ``plan_cache_misses``
            read *through* this binding, so they are live at any
            instant — not a mirror synced after each flush.
        overlap_flushes: Flushes whose expansion overlapped with new
            submissions — at least one query was parsed/enqueued while
            the batch ran in the dispatch thread.  Nonzero proves the
            double-buffered pipeline actually pipelined.
    """

    submitted: int = 0
    answered: int = 0
    shed: int = 0
    shed_reasons: dict[str, int] = field(default_factory=dict)
    retried: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    cancelled: int = 0
    batches: int = 0
    largest_batch: int = 0
    flushes: dict[str, int] = field(default_factory=dict)
    plan_cache_stats: "PlanCacheStats | None" = field(
        default=None, repr=False, compare=False
    )
    overlap_flushes: int = 0

    @property
    def plan_cache_hits(self) -> int:
        """Live plan-cache hits (0 when no cache is attached).

        Reads the cache's own counter at access time, so the value is
        current even mid-flush — the stale-between-flushes mirror this
        replaced only updated after each dispatch.
        """
        return self.plan_cache_stats.hits if self.plan_cache_stats is not None else 0

    @property
    def plan_cache_misses(self) -> int:
        """Live plan-cache misses (0 when no cache is attached)."""
        return self.plan_cache_stats.misses if self.plan_cache_stats is not None else 0

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
            "shed_reasons": dict(self.shed_reasons),
            "retried": self.retried,
            "failed": self.failed,
            "failures": dict(self.failures),
            "cancelled": self.cancelled,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "mean_batch": self.mean_batch,
            "flushes": dict(self.flushes),
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "overlap_flushes": self.overlap_flushes,
        }


@dataclass(eq=False)
class _Pending:
    """One admitted query awaiting its batch (or its retry slot).

    Identity equality (``eq=False``): pendings are tracked through
    queues and the retry pen as objects, and field equality would
    recurse into numpy-backed requests."""

    query: PirQuery
    request: EvalRequest
    future: asyncio.Future
    enqueued_at: float
    tenant: str | None = None
    qos: str = QOS_CLASSES[0]
    attempts: int = 0
    backoff_used_s: float = 0.0
    not_before: float = 0.0
    # Tracing: the query's trace context (a no-op singleton when
    # tracing is off) and its currently-open queue-wait span.
    ctx: TraceContext = field(default_factory=NULL_TRACER.trace)
    queue_span: Span | None = None


class AsyncPirServer:
    """Async batch-aggregation front end for one :class:`PirServer`.

    Args:
        server: The wrapped server (table, PRF, backend, residency).
        slo: Batching/latency knobs; see :class:`SloConfig`.
        admission: Drain-budget + bounded-queue policy; see
            :class:`AdmissionConfig`.
        qos: Optional :class:`~repro.serve.control.QosPolicy` — per-
            tenant token buckets and priority classes.  ``None`` treats
            all traffic as one unlimited interactive tenant.
        retry: Batch-failure :class:`~repro.serve.control.RetryPolicy`
            (default: up to 3 attempts, immediate).  Pass
            ``RetryPolicy(max_attempts=1)`` to disable retries.
        overlap: Double-buffered ingest.  When on, each fused batch's
            expansion runs on the event loop's shared dispatch thread
            (one thread per event loop, shared by every overlapped
            serving loop on it) while the event loop keeps accepting
            submissions — wire-parse of batch N+1 (`KeyArena.from_wire`
            inside ``submit``) overlaps expansion of batch N, the
            classic two-slot pipeline.  Expansions never overlap each
            other: the shared thread serializes both parties' kernels
            in FIFO order, and each loop keeps at most one dispatch in
            flight, so answers stay bit-identical to sequential
            serving; the win is fuller fused batches and hidden parse
            time.  Off by default: deterministic tests drive the loop
            with fake clocks and expect strictly sequential dispatch.
        clock: Monotonic time source (injectable for tests).
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
            plan cache, a sharded server's shard totals, QoS bucket
            levels — so one ``metrics.snapshot()`` is the whole
            system's state.
            Pair it with the tracer (``Tracer(metrics=registry)``) to
            get per-stage latency histograms too.
        snapshot_every_s: Optional period for recording registry
            snapshots from the aggregation task (requires ``metrics``);
            a final snapshot is recorded at drain.  ``None`` (default)
            records only on demand.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly::

        async with AsyncPirServer(server) as loop:
            reply = await loop.submit(query_bytes)
    """

    def __init__(
        self,
        server: PirServer,
        slo: SloConfig | None = None,
        admission: AdmissionConfig | None = None,
        qos: QosPolicy | None = None,
        retry: RetryPolicy | None = None,
        overlap: bool = False,
        clock: Callable[[], float] = time.monotonic,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        snapshot_every_s: float | None = None,
    ):
        self.server = server
        self.slo = slo if slo is not None else SloConfig()
        self.admission = admission if admission is not None else AdmissionConfig()
        self.qos = qos
        self.retry = retry if retry is not None else RetryPolicy()
        self.overlap = overlap
        self._executor: ThreadPoolExecutor | None = None
        cache = server.plan_cache
        self.stats = ServingStats(
            plan_cache_stats=cache.stats if cache is not None else None
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        if snapshot_every_s is not None and snapshot_every_s <= 0:
            raise ValueError(
                f"snapshot_every_s must be positive or None, got {snapshot_every_s}"
            )
        if snapshot_every_s is not None and metrics is None:
            raise ValueError("snapshot_every_s requires a metrics registry")
        self.snapshot_every_s = snapshot_every_s
        self._next_snapshot_s: float | None = None
        if metrics is not None:
            self._register_views(metrics)
        self._clock = clock
        self._drain_model = DrainTimeModel(
            server.backend, flush_batch=self.slo.max_batch
        )
        self._queues: dict[str, deque[_Pending]] = {
            qos_class: deque() for qos_class in QOS_CLASSES
        }
        self._retrying: list[_Pending] = []
        self._queued_queries = 0
        self._queued_arena_bytes = 0
        self._retry_queries = 0
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
        if self.qos is not None:
            metrics.register_view(metrics.unique_name("qos"), self.qos.bucket_levels)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Start the background aggregation task (idempotent)."""
        if self._task is not None:
            return
        self._stopping = False
        self._wake = asyncio.Event()
        if self.overlap and self._executor is None:
            self._executor = _acquire_dispatch_executor(asyncio.get_running_loop())
        if self.snapshot_every_s is not None:
            self._next_snapshot_s = self._clock() + self.snapshot_every_s
        self._task = asyncio.create_task(self._run())

    async def stop(self) -> None:
        """Drain the queue, flush the final batch, stop the task."""
        if self._task is None:
            return
        self._stopping = True
        self._wake.set()
        await self._task
        self._task = None
        if self._executor is not None:
            _release_dispatch_executor(asyncio.get_running_loop(), self._executor)
            self._executor = None

    async def __aenter__(self) -> "AsyncPirServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- submission ----------------------------------------------------

    @property
    def pending_queries(self) -> int:
        """Queries queued or awaiting retry (what admission bounds)."""
        return self._queued_queries + self._retry_queries

    def _shed(self, exc: PirServerOverloaded, count: int) -> None:
        self.stats.shed += count
        self.stats.shed_reasons[exc.reason] = (
            self.stats.shed_reasons.get(exc.reason, 0) + count
        )
        raise exc

    def _admit(self, query: PirQuery, tenant: str | None, now: float) -> None:
        """All admission layers, cheapest first; raises to shed.

        Consulted on the frame header only — no key material has been
        ingested yet, so shedding stays O(header) under overload (the
        regime admission control exists for).
        """
        if self.pending_queries + query.count > self.admission.max_pending:
            self._shed(
                PirServerOverloaded(
                    f"queue holds {self.pending_queries} queries; admitting "
                    f"{query.count} more would exceed max_pending="
                    f"{self.admission.max_pending}",
                    reason=SHED_DEPTH,
                ),
                query.count,
            )
        if self.qos is not None and not self.qos.admit(tenant, query.count, now):
            self._shed(
                TenantRateLimited(
                    f"tenant {tenant!r} is over its admission rate "
                    f"({self.qos.spec(tenant).rate_qps:g} qps)"
                ),
                query.count,
            )
        if self.admission.drain_budget_s is not None:
            drain = self._drain_model.drain_s(
                self.pending_queries + query.count,
                self.server.table_entries,
                self.server.prf_name,
                self.server.resident,
            )
            if drain > self.admission.drain_budget_s:
                self._shed(
                    PirServerOverloaded(
                        f"admitting {query.count} queries would put modeled "
                        f"queue drain at {drain:.4f}s, over the "
                        f"drain_budget_s={self.admission.drain_budget_s:g} "
                        f"(depth {self.pending_queries})",
                        reason=SHED_DRAIN,
                    ),
                    query.count,
                )

    async def submit(self, request_bytes: bytes, tenant: str | None = None) -> bytes:
        """Serve one framed query through the aggregation loop.

        Returns the framed reply, bit-identical to what a sequential
        ``server.handle(request_bytes)`` call would produce.

        Submitting before :meth:`start` is legal — the query queues and
        is answered by the first flush after the loop starts (tests use
        this to build deterministic backlogs).  Submitting after (or
        racing with) :meth:`stop` raises instead of enqueueing a query
        no flush would ever answer.

        Admission (depth cap, tenant bucket, drain budget) is checked
        on the frame header *before* key ingestion, so shedding stays
        O(header) under overload — the regime it exists for.  (A query
        that is both shed-worthy and malformed therefore sheds rather
        than reporting its bad keys.)

        Args:
            request_bytes: One framed :class:`~repro.pir.wire.PirQuery`.
            tenant: Submitting tenant id for QoS (rate limit + priority
                class); ``None`` is the anonymous default tenant.

        Raises:
            ValueError: Synchronously, on a malformed/mismatched/
                oversized query (never enters the queue).
            PirServerOverloaded: Synchronously, when admission control
                sheds the query (depth cap or drain budget).
            TenantRateLimited: Synchronously, when the tenant's token
                bucket is empty (the server itself has capacity).
            RuntimeError: Synchronously, when the loop is stopped.
        """
        if self._stopping:
            raise RuntimeError("serving loop is stopped; no flush would answer this")
        query = PirQuery.from_bytes(request_bytes)
        now = self._clock()
        ctx = self.tracer.trace(
            request_id=query.request_id,
            tenant=tenant,
            count=query.count,
            epoch=query.epoch,
        )
        admit_span = ctx.begin(STAGE_ADMIT)
        try:
            self._admit(query, tenant, now)
            request = self.server.ingest_query(query)
        except PirServerOverloaded as exc:
            ctx.end(admit_span, shed=exc.reason)
            ctx.event("shed", reason=exc.reason)
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
        qos_class = self.qos.qos_class(tenant) if self.qos is not None else QOS_CLASSES[0]
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        pending = _Pending(
            query,
            request,
            future,
            now,
            tenant=tenant,
            qos=qos_class,
            ctx=ctx,
            queue_span=ctx.begin(STAGE_QUEUE),
        )
        self._queues[qos_class].append(pending)
        self._queued_queries += query.count
        self._queued_arena_bytes += request.arena().nbytes
        self.stats.submitted += query.count
        if self._wake is not None:
            self._wake.set()
        return await future

    # -- aggregation ---------------------------------------------------

    def _oldest_head(self) -> _Pending | None:
        """The oldest front-of-queue request across priority classes."""
        heads = [queue[0] for queue in self._queues.values() if queue]
        return min(heads, key=lambda p: p.enqueued_at) if heads else None

    def _flush_reason(self) -> str | None:
        """The SLO trigger that fires *now*, or None to keep waiting."""
        oldest = self._oldest_head()
        if oldest is None:
            return None
        if self._queued_queries >= self.slo.max_batch:
            return FLUSH_MAX_BATCH
        if (
            self.slo.max_arena_bytes is not None
            and self._queued_arena_bytes >= self.slo.max_arena_bytes
        ):
            return FLUSH_ARENA_BYTES
        if self._clock() - oldest.enqueued_at >= self.slo.max_wait_s:
            return FLUSH_DEADLINE
        return None

    def _wait_timeout(self) -> float | None:
        """Seconds until the next time-based event (deadline or retry
        eligibility), or None when only a wake can create work."""
        candidates = []
        oldest = self._oldest_head()
        if oldest is not None:
            candidates.append(oldest.enqueued_at + self.slo.max_wait_s)
        if self._retrying:
            candidates.append(min(p.not_before for p in self._retrying))
        if self._next_snapshot_s is not None:
            candidates.append(self._next_snapshot_s)
        if not candidates:
            return None
        return max(0.0, min(candidates) - self._clock())

    def _maybe_snapshot(self) -> None:
        """Record a periodic registry snapshot when its time arrived."""
        if self._next_snapshot_s is None:
            return
        now = self._clock()
        if now >= self._next_snapshot_s:
            self.metrics.record_snapshot()
            self._next_snapshot_s = now + self.snapshot_every_s

    async def _run(self) -> None:
        while not self._stopping:
            self._promote_retries()
            self._maybe_snapshot()
            reason = self._flush_reason()
            if reason == FLUSH_DEADLINE:
                # A non-full batch: yield once, so every submission
                # already runnable in this event-loop turn fuses into it
                # (by construction, not by the depth of a wake-up chain).
                await asyncio.sleep(0)
                reason = self._flush_reason()
            if reason is not None:
                await self._flush(reason)
                await self._settle()
                continue
            self._wake.clear()
            try:
                # With no timeout (nothing time-based pending) wait_for
                # awaits the event directly: no timer, no helper Task.
                await asyncio.wait_for(self._wake.wait(), self._wait_timeout())
            except asyncio.TimeoutError:
                pass
        # Drain: requeue every in-flight retry immediately (backoff is
        # pointless when the loop is going away) and flush until empty.
        # Terminates even against an always-failing backend because
        # each failed dispatch consumes a bounded retry attempt.
        while self._retrying or any(self._queues.values()):
            self._promote_retries(force=True)
            await self._flush(FLUSH_DRAIN)
            await self._settle()
        if self._next_snapshot_s is not None:
            # Terminal snapshot: the export always carries the drained
            # end state, however the period fell against the session.
            self.metrics.record_snapshot()
            self._next_snapshot_s = None

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

    def _promote_retries(self, force: bool = False) -> None:
        """Move retry-eligible requests back to the *front* of their
        class queue (they keep their original ``enqueued_at``, so the
        deadline trigger treats a retried request as the old request it
        is, not as fresh traffic)."""
        if not self._retrying:
            return
        now = self._clock()
        eligible = [p for p in self._retrying if force or p.not_before <= now]
        if not eligible:
            return
        self._retrying = [p for p in self._retrying if p not in eligible]
        # appendleft in newest-first order leaves the oldest at the
        # very front — seniority survives the round trip through retry.
        for pending in sorted(eligible, key=lambda p: p.enqueued_at, reverse=True):
            self._queues[pending.qos].appendleft(pending)
            self._retry_queries -= pending.query.count
            self._queued_queries += pending.query.count
            self._queued_arena_bytes += pending.request.arena().nbytes

    def _purge_cancelled(self) -> None:
        """Drop pendings whose caller cancelled the awaited future, so
        a client-side timeout neither evaluates nor counts — the
        cancelled-future leak fix."""
        for qos_class, queue in self._queues.items():
            if any(p.future.done() for p in queue):
                kept: deque[_Pending] = deque()
                for pending in queue:
                    if pending.future.done():
                        self.stats.cancelled += pending.query.count
                        self._queued_queries -= pending.query.count
                        self._queued_arena_bytes -= pending.request.arena().nbytes
                        self._close_cancelled(pending)
                    else:
                        kept.append(pending)
                self._queues[qos_class] = kept
        cancelled_retries = [p for p in self._retrying if p.future.done()]
        for pending in cancelled_retries:
            self.stats.cancelled += pending.query.count
            self._retry_queries -= pending.query.count
            self._close_cancelled(pending)
        if cancelled_retries:
            self._retrying = [p for p in self._retrying if not p.future.done()]

    @staticmethod
    def _close_cancelled(pending: _Pending) -> None:
        """End a purged pending's open queue span and close its trace."""
        if pending.queue_span is not None:
            pending.ctx.end(pending.queue_span, cancelled=True)
            pending.queue_span = None
        pending.ctx.close(STATUS_CANCELLED)

    def _take_order(self) -> list[str]:
        """Priority order for this batch: interactive first, unless the
        oldest waiting batch-class request has starved past the QoS
        policy's ``starvation_s`` bound."""
        order = list(QOS_CLASSES)
        if self.qos is None:
            return order
        batch_queue = self._queues[QOS_CLASSES[1]]
        if batch_queue and (
            self._clock() - batch_queue[0].enqueued_at >= self.qos.starvation_s
        ):
            order.reverse()
        return order

    def _take_batch(self) -> list[_Pending]:
        """Pop whole requests until adding the next would exceed
        ``max_batch`` queries or the ``max_arena_bytes`` budget (always
        at least one, so a single request larger than either cap —
        legal unless the server caps it — still flushes alone).
        Cancelled requests are purged first, so they are never merged
        into the fused batch.

        A batch is single-epoch: queries pinned to different table
        epochs must run against different table versions, so a queue
        that spans an epoch flip splits at the flip boundary — the
        head's epoch defines the batch and a mismatched head ends that
        queue's take (the next flush picks the other epoch up)."""
        self._purge_cancelled()
        taken: list[_Pending] = []
        epoch: int | None = None
        count = 0
        taken_bytes = 0
        budget = self.slo.max_arena_bytes
        for qos_class in self._take_order():
            queue = self._queues[qos_class]
            while queue:
                nxt = queue[0]
                if epoch is not None and nxt.query.epoch != epoch:
                    break
                nxt_bytes = nxt.request.arena().nbytes
                if taken and (
                    count + nxt.query.count > self.slo.max_batch
                    or (budget is not None and taken_bytes + nxt_bytes > budget)
                ):
                    self._queued_queries -= count
                    return taken
                taken.append(queue.popleft())
                if nxt.queue_span is not None:
                    nxt.ctx.end(nxt.queue_span, qos=nxt.qos)
                    nxt.queue_span = None
                epoch = nxt.query.epoch
                count += nxt.query.count
                taken_bytes += nxt_bytes
                self._queued_arena_bytes -= nxt_bytes
        self._queued_queries -= count
        return taken

    async def _flush(self, reason: str) -> None:
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

            def dispatch() -> np.ndarray:
                return self.server.answer_request(merged, epoch=epoch, sizes=sizes)

            open_spans = [(p, p.ctx.begin(STAGE_DISPATCH)) for p in taken]
            if self.overlap and self._executor is not None:
                # Two-slot pipeline: while this batch expands on the
                # dispatch thread, the event loop keeps parsing and
                # enqueueing the next batch's queries.  Exactly one
                # dispatch is ever in flight, so answers are
                # bit-identical to the sequential path.
                submitted_before = self.stats.submitted
                answers = await asyncio.get_running_loop().run_in_executor(
                    self._executor, dispatch
                )
                if self.stats.submitted > submitted_before:
                    self.stats.overlap_flushes += 1
            else:
                answers = dispatch()
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
        """Contain a failed batch dispatch: un-merge, requeue survivors
        within their retry budget, fail the rest *individually*."""
        now = self._clock()
        reason = type(exc).__name__
        self.stats.failures[reason] = self.stats.failures.get(reason, 0) + 1
        # Each survivor retries on a zero-copy slice of the merged
        # arena when the merge got that far; a pre-merge failure just
        # requeues the original per-request requests.
        if merged is not None and len(sizes) == len(taken):
            requests = EvalRequest.unmerge(merged, sizes)
        else:
            requests = [p.request for p in taken]
        for pending, request in zip(taken, requests):
            if pending.future.done():
                self.stats.cancelled += pending.query.count
                pending.ctx.close(STATUS_CANCELLED)
                continue
            pending.attempts += 1
            if self.retry.allows_retry(pending.attempts, pending.backoff_used_s):
                backoff = self.retry.next_backoff_s(pending.attempts)
                pending.backoff_used_s += backoff
                pending.not_before = now + backoff
                pending.request = request
                pending.ctx.event(
                    "retry",
                    attempt=pending.attempts,
                    error=reason,
                    backoff_s=backoff,
                )
                # The retry pen is a queue too: a fresh queue-wait span
                # opens now and ends when the retry is re-taken, so the
                # chain repeats the queue→merge→plan→dispatch group once
                # per dispatch attempt.
                pending.queue_span = pending.ctx.begin(STAGE_QUEUE)
                self._retrying.append(pending)
                self._retry_queries += pending.query.count
                self.stats.retried += pending.query.count
            else:
                pending.future.set_exception(exc)
                pending.ctx.event("failed", error=reason)
                pending.ctx.close(STATUS_FAILED)
                self.stats.failed += pending.query.count

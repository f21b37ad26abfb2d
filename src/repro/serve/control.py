"""Control-plane policies for the serving loop: QoS, retries, drain.

PR 5's :class:`~repro.serve.loop.AsyncPirServer` shipped with the
bluntest possible policies — shed on raw queue depth, no retries, one
implicit traffic class.  This module holds the *policy* objects the
reworked loop consults, kept separate from the loop mechanics so each
is independently testable and composable:

* :class:`RetryPolicy` — bounded retry/requeue for batch-dispatch
  failures.  A fused batch concentrates risk: one backend exception
  would fail every query in it, so the loop un-merges a failed batch
  and requeues the survivors under this policy (exponential backoff,
  each request's accumulated backoff charged against a budget; an
  exhausted request fails *individually*, never collectively).
* :class:`TenantSpec` / :class:`QosPolicy` — per-tenant token-bucket
  rate limiting plus a priority class (:data:`INTERACTIVE` ahead of
  :data:`BATCH` in the take order) with an anti-starvation age bound so
  batch traffic is delayed, never starved.
* :class:`DrainTimeModel` — predicted time to drain the pending queue,
  priced through the same performance model everything else uses
  (:meth:`~repro.exec.ExecutionBackend.model_latency_s`, which bottoms
  out in :meth:`repro.gpu.scheduler.Scheduler.latency_s`).  The
  loop sheds when the modeled drain time exceeds a budget — "will this
  query make it inside the SLO", not "how long is the line" — which is
  the default admission policy; raw ``max_pending`` depth remains the
  hard cap behind it.

All policies are deterministic: buckets refill from the loop's
injected clock and the drain model is a pure function of queue state
and the analytic cost model, so tests pin exact shed decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

INTERACTIVE = "interactive"
"""QoS class served first: user-facing, latency-sensitive traffic."""

BATCH = "batch"
"""QoS class served after :data:`INTERACTIVE`: throughput traffic that
tolerates delay but must never starve (see ``QosPolicy.starvation_s``)."""

QOS_CLASSES = (INTERACTIVE, BATCH)
"""Priority order: earlier classes are taken into fused batches first."""

SHED_DEPTH = "depth"
"""Shed reason: the ``max_pending`` hard cap (queue depth) was hit."""

SHED_DRAIN = "drain"
"""Shed reason: modeled queue drain time exceeded the drain budget."""

SHED_RATE_LIMIT = "rate_limit"
"""Shed reason: the submitting tenant's token bucket was empty."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry/requeue for failed batch dispatches.

    Attributes:
        max_attempts: Total dispatch attempts per request, including
            the first (1 = never retry; the default allows two
            retries).
        backoff_s: Base delay before a request's first retry; attempt
            ``k``'s delay is ``backoff_s * 2**(k-1)`` (exponential).
            0 retries immediately — right for the modeled backends,
            where a fault is a property of the *run*, not the wall
            clock.
        backoff_budget_s: Cap on one request's *accumulated* backoff —
            the retry time charged against its SLO.  A retry whose
            delay would blow the budget fails the request instead.
    """

    max_attempts: int = 3
    backoff_s: float = 0.0
    backoff_budget_s: float = math.inf

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_budget_s < 0:
            raise ValueError(
                f"backoff_budget_s must be >= 0, got {self.backoff_budget_s}"
            )

    def next_backoff_s(self, attempts: int) -> float:
        """Delay before the retry following the ``attempts``-th failed
        dispatch (1-indexed): ``backoff_s * 2**(attempts-1)``."""
        return self.backoff_s * (2 ** (attempts - 1))

    def allows_retry(self, attempts: int, backoff_used_s: float) -> bool:
        """Whether a request that has failed ``attempts`` dispatches and
        accumulated ``backoff_used_s`` of backoff may be requeued."""
        if attempts >= self.max_attempts:
            return False
        return backoff_used_s + self.next_backoff_s(attempts) <= self.backoff_budget_s


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's rate limit and priority class.

    Attributes:
        rate_qps: Sustained admission rate in queries/s; ``None`` means
            unlimited (no bucket is consulted).
        burst: Bucket capacity in queries — the largest spike admitted
            after a full refill.  Defaults to ``rate_qps`` (one
            second's worth) when left at 0.
        qos: Priority class (:data:`INTERACTIVE` or :data:`BATCH`).
    """

    rate_qps: float | None = None
    burst: float = 0.0
    qos: str = INTERACTIVE

    def __post_init__(self):
        if self.rate_qps is not None and self.rate_qps <= 0:
            raise ValueError(
                f"rate_qps must be positive or None, got {self.rate_qps}"
            )
        if self.burst < 0:
            raise ValueError(f"burst must be >= 0, got {self.burst}")
        if self.qos not in QOS_CLASSES:
            raise ValueError(f"qos must be one of {QOS_CLASSES}, got {self.qos!r}")

    @property
    def capacity(self) -> float:
        """Effective bucket capacity: ``burst`` or one second of rate."""
        if self.burst > 0:
            return self.burst
        return self.rate_qps if self.rate_qps is not None else math.inf


class TokenBucket:
    """A deterministic token bucket refilled from an injected clock.

    Tokens accrue continuously at ``rate_qps`` up to ``capacity``; a
    take of ``n`` tokens succeeds only when ``n`` whole tokens are
    available.  All time comes from the caller, so replayed submission
    sequences make identical admit/shed decisions.
    """

    def __init__(self, rate_qps: float, capacity: float, now: float = 0.0):
        self.rate_qps = rate_qps
        self.capacity = capacity
        self.tokens = capacity  # a fresh tenant may burst immediately
        self._last_refill = now

    def try_take(self, count: int, now: float) -> bool:
        """Admit ``count`` queries at time ``now`` if tokens allow.

        ``now`` is clamped to the bucket's high-water mark: a caller
        whose clock steps backwards (or concurrent callers racing a
        shared clock) must not rewind ``_last_refill``, which would
        double-credit the rewound interval on the next take.
        """
        now = max(now, self._last_refill)
        elapsed = now - self._last_refill
        self.tokens = min(self.capacity, self.tokens + elapsed * self.rate_qps)
        self._last_refill = now
        if self.tokens >= count:
            self.tokens -= count
            return True
        return False


@dataclass
class QosPolicy:
    """Per-tenant QoS: token buckets plus priority classes.

    Attributes:
        tenants: Explicit per-tenant specs; tenants not listed (and the
            anonymous ``None`` tenant) fall back to ``default``.
        default: Spec for unlisted tenants (unlimited, interactive).
        starvation_s: Anti-starvation bound — once the oldest waiting
            :data:`BATCH` query has waited this long, it is taken
            *ahead* of interactive traffic in the next fused batch, so
            priority delays batch work but can never starve it.
    """

    tenants: dict[str, TenantSpec] = field(default_factory=dict)
    default: TenantSpec = field(default_factory=TenantSpec)
    starvation_s: float = 0.05

    def __post_init__(self):
        if self.starvation_s < 0:
            raise ValueError(
                f"starvation_s must be >= 0, got {self.starvation_s}"
            )
        self._buckets: dict[str | None, TokenBucket] = {}

    def spec(self, tenant: str | None) -> TenantSpec:
        """The governing spec for ``tenant`` (``default`` if unlisted)."""
        if tenant is not None and tenant in self.tenants:
            return self.tenants[tenant]
        return self.default

    def qos_class(self, tenant: str | None) -> str:
        """The priority class ``tenant``'s queries queue under."""
        return self.spec(tenant).qos

    def admit(self, tenant: str | None, count: int, now: float) -> bool:
        """Charge ``count`` queries against ``tenant``'s bucket.

        Unlimited tenants always admit; limited tenants admit while
        their bucket holds ``count`` tokens.  The bucket is created on
        first use, full (so a new tenant can burst to ``capacity``).
        """
        spec = self.spec(tenant)
        if spec.rate_qps is None:
            return True
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(spec.rate_qps, spec.capacity, now=now)
            self._buckets[tenant] = bucket
        return bucket.try_take(count, now)

    def bucket_levels(self) -> dict:
        """Remaining tokens per rate-limited tenant — the metrics-
        registry view shape.  Only tenants that have submitted traffic
        appear (buckets are created on first use); the anonymous
        tenant reports under ``"<anonymous>"``."""
        return {
            tenant if tenant is not None else "<anonymous>": bucket.tokens
            for tenant, bucket in self._buckets.items()
        }


class DrainTimeModel:
    """Predicted time to drain a pending queue, from the cost model.

    The question admission control should ask is not "how deep is the
    queue" but "can the queue drain inside the latency budget".  This
    model answers it with the same analytic performance model the
    scheduler already trusts: the server's one backend prices a
    ``max_batch``-sized flush via
    :meth:`~repro.exec.ExecutionBackend.model_latency_s`, and the drain
    time is ``pending_queries / modeled_qps``.

    Modeled QPS is memoized per workload shape (the underlying
    :class:`~repro.gpu.scheduler.Scheduler` memoizes too), so the
    per-submission cost is a dict lookup.  The model fails open: a
    backend without a model (``model_latency_s`` returning ``None``)
    and a shape its model cannot run (``ValueError``, e.g. no feasible
    GPU strategy at ``flush_batch``) both yield ``inf`` QPS, which
    disables drain shedding rather than guessing.
    """

    def __init__(self, backend, flush_batch: int):
        if flush_batch <= 0:
            raise ValueError(f"flush_batch must be positive, got {flush_batch}")
        self.backend = backend
        self.flush_batch = flush_batch
        self._qps: dict[tuple[int, str, bool], float] = {}

    def modeled_qps(
        self, table_entries: int, prf_name: str, resident: bool
    ) -> float:
        """Modeled serving throughput for one table shape."""
        key = (table_entries, prf_name, resident)
        qps = self._qps.get(key)
        if qps is None:
            try:
                latency = self.backend.model_latency_s(
                    self.flush_batch,
                    table_entries,
                    prf_name=prf_name,
                    resident=resident,
                )
            except ValueError:
                latency = None
            if latency is None or latency <= 0:
                qps = math.inf
            else:
                qps = self.flush_batch / latency
            self._qps[key] = qps
        return qps

    def drain_s(
        self,
        pending_queries: int,
        table_entries: int,
        prf_name: str,
        resident: bool,
    ) -> float:
        """Modeled seconds to evaluate ``pending_queries`` queued queries."""
        if pending_queries <= 0:
            return 0.0
        qps = self.modeled_qps(table_entries, prf_name, resident)
        return 0.0 if math.isinf(qps) else pending_queries / qps

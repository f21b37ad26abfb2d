"""SLO-aware async serving: batching, admission, QoS, fault tolerance.

This package is the serving layer the ROADMAP's throughput and
control-plane items asked for — the piece that turns the synchronous,
one-caller-at-a-time :class:`~repro.pir.PirServer` into a system that
can absorb heavy concurrent traffic and survive backend failures:

* :mod:`repro.serve.loop` — :class:`AsyncPirServer`, the asyncio
  request loop: framed queries in, per-request futures out, with batch
  aggregation under a latency SLO (flush on max-batch, arena-bytes
  budget, or max-wait deadline), two-layer admission control (modeled
  drain time as the default policy, ``max_pending`` as the hard cap),
  and retry/requeue on backend failure (a failed fused batch is
  un-merged and its survivors retried individually).
* :mod:`repro.serve.control` — the control-plane policies the loop
  consults: :class:`RetryPolicy` (bounded retries, backoff budgets),
  :class:`QosPolicy` / :class:`TenantSpec` (per-tenant token buckets,
  :data:`INTERACTIVE`-over-:data:`BATCH` priority with anti-starvation),
  and :class:`DrainTimeModel` (queue drain priced via the performance
  model of the server's one backend).
* :mod:`repro.serve.chaos` — deterministic fault injection:
  :class:`FlakyBackend` + :class:`FaultPlan` fail chosen dispatches
  with :class:`BackendFault` so tests and the smoke session can kill
  a backend mid-batch on demand.
* :mod:`repro.serve.load` — :func:`generate_load`, the concurrent
  client population that drives the loop in tests and the CI
  serve-smoke session, with latency and retry accounting.
* :mod:`repro.serve.shard` — :class:`ShardedPirServer`, the sharded,
  replicated front-end: contiguous domain sub-ranges evaluated via the
  range-restricted DPF walk, partials recombined mod 2^64, replica
  health with ejection/failover/probation (:class:`ReplicaSet`), and
  epoch-versioned online table updates (:class:`EpochRegistry`) with
  typed :class:`ShardUnavailable` / :class:`EpochRetired` failures.

The invariant everything above preserves: answers served through the
aggregation loop are *bit-identical* to sequential
``PirServer.handle`` for the same queries, across every backend, every
concurrency level, and every injected fault short of retry-budget
exhaustion (``tests/serve/``).
"""

from repro.serve.chaos import BackendFault, FaultPlan, FlakyBackend
from repro.serve.control import (
    BATCH,
    INTERACTIVE,
    QOS_CLASSES,
    SHED_DEPTH,
    SHED_DRAIN,
    SHED_RATE_LIMIT,
    DrainTimeModel,
    QosPolicy,
    RetryPolicy,
    TenantSpec,
    TokenBucket,
)
from repro.serve.load import LoadReport, generate_load
from repro.serve.shard import (
    EJECTED,
    HEALTHY,
    PROBATION,
    REPLICA_STATES,
    EpochRegistry,
    EpochRetired,
    ReplicaSet,
    ShardReplica,
    ShardStats,
    ShardUnavailable,
    ShardedPirServer,
    shard_ranges,
)
from repro.serve.loop import (
    FLUSH_ARENA_BYTES,
    FLUSH_DEADLINE,
    FLUSH_DRAIN,
    FLUSH_MAX_BATCH,
    AdmissionConfig,
    AsyncPirServer,
    PirServerOverloaded,
    ServingStats,
    SloConfig,
    TenantRateLimited,
)

__all__ = [
    "AsyncPirServer",
    "SloConfig",
    "AdmissionConfig",
    "ServingStats",
    "PirServerOverloaded",
    "TenantRateLimited",
    "RetryPolicy",
    "QosPolicy",
    "TenantSpec",
    "TokenBucket",
    "DrainTimeModel",
    "INTERACTIVE",
    "BATCH",
    "QOS_CLASSES",
    "SHED_DEPTH",
    "SHED_DRAIN",
    "SHED_RATE_LIMIT",
    "BackendFault",
    "FaultPlan",
    "FlakyBackend",
    "LoadReport",
    "generate_load",
    "FLUSH_MAX_BATCH",
    "FLUSH_ARENA_BYTES",
    "FLUSH_DEADLINE",
    "FLUSH_DRAIN",
    "ShardedPirServer",
    "ReplicaSet",
    "ShardReplica",
    "ShardStats",
    "EpochRegistry",
    "EpochRetired",
    "ShardUnavailable",
    "shard_ranges",
    "HEALTHY",
    "PROBATION",
    "EJECTED",
    "REPLICA_STATES",
]

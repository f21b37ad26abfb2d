"""SLO-aware async serving: batching, admission, fault tolerance.

This package is the serving layer the ROADMAP's throughput and
control-plane items asked for — the piece that turns the synchronous,
one-caller-at-a-time :class:`~repro.pir.PirServer` into a system that
can absorb heavy concurrent traffic and survive backend failures:

* :mod:`repro.serve.loop` — :class:`AsyncPirServer`, the asyncio
  request loop: framed queries in, per-request futures out, with batch
  aggregation under a latency SLO (flush on max-batch, arena-bytes
  budget, or max-wait deadline) from one FIFO queue, admission control
  (the ``max_pending`` depth cap alone), and retry on backend failure
  (a failed fused batch is un-merged and its survivors go back to the
  front of the queue, up to ``max_attempts`` dispatches each).  The
  loop is the one place a failed dispatch is retried.
* :mod:`repro.serve.shard` — :class:`ShardedPirServer`, the sharded,
  replicated front-end: contiguous domain sub-ranges evaluated via the
  range-restricted DPF walk, partials recombined mod 2^64, replica
  health with ejection, failover and rejoin (:class:`ReplicaSet`; a set
  never retries, and hands its last replica's fault up to the loop),
  and epoch-versioned online table updates (:class:`EpochRegistry`)
  with the typed :class:`EpochRetired` failure.

The invariant everything above preserves: answers served through the
aggregation loop are *bit-identical* to sequential
``PirServer.handle`` for the same queries, across every backend, every
concurrency level, and every injected fault short of a request using
up its ``max_attempts`` (``tests/serve/``).
"""

from repro.serve.shard import (
    EJECTED,
    HEALTHY,
    REPLICA_STATES,
    EpochRegistry,
    EpochRetired,
    ReplicaSet,
    ShardReplica,
    ShardStats,
    ShardedPirServer,
    shard_ranges,
)
from repro.serve.loop import (
    FLUSH_ARENA_BYTES,
    FLUSH_DEADLINE,
    FLUSH_DRAIN,
    FLUSH_MAX_BATCH,
    SHED_DEPTH,
    AdmissionConfig,
    AsyncPirServer,
    PirServerOverloaded,
    ServingStats,
    SloConfig,
)

__all__ = [
    "AsyncPirServer",
    "SloConfig",
    "AdmissionConfig",
    "ServingStats",
    "PirServerOverloaded",
    "SHED_DEPTH",
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
    "shard_ranges",
    "HEALTHY",
    "EJECTED",
    "REPLICA_STATES",
]

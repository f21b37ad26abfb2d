"""Plan cache: the modeled plan per workload shape, counted beside the walk.

:meth:`PlanCache.run` looks the shape's plan up (planning it on a
miss), counts the lookup, and then hands the request to
:meth:`ExecutionBackend.run <repro.exec.backend.ExecutionBackend.run>`,
which walks without asking for a plan: every design runs the same
walk, so a cached plan never decides what runs.  The class stays only
because the benchmark wraps :meth:`PlanCache.run` and reads
:attr:`PlanCache.stats`; it goes once the benchmark stops naming it.

**Bucketing.**  Cache keys round the batch up to a power-of-two bucket
(:func:`batch_bucket`): batches 9..16 all share one bucket-16 entry.  A
miss plans the request it has, and that plan stands for every later
batch in the bucket; each batch is still walked at its own exact size.

**Cache key.**  ``(backend.plan_key, prf, domain_size, bucket)`` —
every axis that changes either the winning strategy or the modeled
plan.  ``backend.plan_key`` names what prices the plan: the name of
:class:`~repro.exec.backend.SingleGpuBackend`, one identity per
instance for anything else, so a fault-injecting wrapper never shares
an entry.  Eviction is LRU
with a bounded entry count.

Not thread-safe: use one cache per serving thread.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.exec.backend import ExecutionBackend
from repro.exec.request import EvalRequest, ExecutionPlan


def batch_bucket(batch: int) -> int:
    """The power-of-two bucket a batch size rounds up to.

    Raises:
        ValueError: If ``batch`` is not positive.
    """
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    return 1 << (batch - 1).bit_length()


@dataclass
class PlanCacheStats:
    """Counters for one cache's lifetime.

    Attributes:
        hits: Lookups served from a memoized entry.
        misses: Lookups that had to plan.
        evictions: Entries dropped by the LRU bound.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before any lookup."""
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """LRU cache of the plan per workload shape.

    Args:
        max_entries: LRU bound on distinct shapes.

    Attributes:
        stats: Lifetime :class:`PlanCacheStats`.
    """

    def __init__(self, max_entries: int = 32):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.stats = PlanCacheStats()
        self._entries: "OrderedDict[tuple, ExecutionPlan]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry; stats persist."""
        self._entries.clear()

    def key_for(self, backend: ExecutionBackend, request: EvalRequest) -> tuple:
        """The cache key ``run`` would use for this backend + request."""
        arena = request.arena()
        return (
            backend.plan_key,
            request.resolved_prf_name,
            arena.domain_size,
            batch_bucket(arena.batch),
        )

    def run(self, backend: ExecutionBackend, request: EvalRequest) -> np.ndarray:
        """Count the shape's plan lookup, then evaluate through ``backend.run``.

        On a miss the request is planned as it is and the entry cached
        for every future batch that rounds to the same bucket; a hit
        plans nothing.  Either way the answers are ``backend.run``'s.
        """
        key = self.key_for(backend, request)
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
        else:
            self._entries[key] = backend.plan(request)
            self.stats.misses += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return backend.run(request)

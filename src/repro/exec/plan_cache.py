"""Plan cache: the zero-dispatch steady-state serving path.

The paper's headline numbers come from a persistent kernel that never
re-plans between batches; the Python-side analogue of that persistence
is this cache.  Without it, every flush of the serving loop pays
strategy re-selection (simulating every candidate plan) even though
steady-state traffic repeats the same handful of batch shapes forever.
:class:`PlanCache` memoizes the :class:`~repro.exec.request.ExecutionPlan`
per workload shape, so the hot path becomes: look up, expand, done —
zero re-planning.  The walk's scratch is the thread's
(:func:`~repro.gpu.arena.thread_workspace`), not the cache's.

**Bucketing.**  Real traffic rarely repeats exact batch sizes (a flush
of 13, then 14, then 12 ...), so exact-shape memoization would miss
constantly.  Cache keys therefore round the batch up to a power-of-two
bucket (:func:`batch_bucket`): batches 9..16 all share one bucket-16
entry.  A miss plans the request it has, and that plan serves every
later batch in the bucket: the kernel always executes the exact batch
under the cached plan's strategy.  Strategy choice never changes
answers (every backend is pinned bit-identical across strategies and
against the reference evaluator), so what bucketing trades away is
selection exactness: the cached strategy may differ from what
exact-size selection would pick — a modeled-cost approximation bounded
by the < 2x shape gap, never a correctness risk.

**Cache key.**  ``(backend.plan_key, prf, domain_size, bucket)`` —
every axis that changes either the winning strategy or the modeled
plan.  ``backend.plan_key`` names what prices the plan: one name per
built-in backend class, one identity per instance for anything else,
so a fault-injecting wrapper never shares an entry.  Eviction is LRU
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
        """Evaluate through the cache: look up, expand, done.

        On a hit the backend's :meth:`~repro.exec.backend
        .ExecutionBackend.run_with_plan` executes the request under the
        memoized plan — no re-planning.  On a miss the request is
        planned as it is and the entry cached for every future batch
        that rounds to the same bucket.
        """
        key = self.key_for(backend, request)
        plan = self._entries.get(key)
        if plan is None:
            plan = backend.plan(request)
            self._entries[key] = plan
            self.stats.misses += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        else:
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return backend.run_with_plan(request, plan)

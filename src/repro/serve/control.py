"""Control-plane policy for the serving loop: bounded retries.

Admission in :class:`~repro.serve.loop.AsyncPirServer` is the
``max_pending`` depth cap alone (:data:`SHED_DEPTH` is the only shed
reason).  This module holds the retry *policy* the loop consults, kept
separate from the loop mechanics so it is independently testable and
shared with :class:`~repro.serve.shard.ReplicaSet`:

* :class:`RetryPolicy` — bounded retry/requeue for batch-dispatch
  failures.  A fused batch concentrates risk: one backend exception
  would fail every query in it, so the loop un-merges a failed batch
  and requeues the survivors under this policy (exponential backoff,
  each request's accumulated backoff charged against a budget; an
  exhausted request fails *individually*, never collectively).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SHED_DEPTH = "depth"
"""Shed reason: the ``max_pending`` hard cap (queue depth) was hit."""


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

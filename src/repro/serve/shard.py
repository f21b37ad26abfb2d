"""Sharded, replicated PIR serving with failover and epoch updates.

One :class:`~repro.pir.PirServer` holds the whole table and dies whole.
This module scales and hardens that single box along the two axes a
real deployment needs (ROADMAP: scale-out serving):

* **Sharding** — :class:`ShardedPirServer` splits the domain into N
  contiguous sub-ranges (:func:`shard_ranges`).  Each shard holds only
  its ``[lo, hi)`` slice of the table and evaluates each DPF key over
  exactly that range (:meth:`~repro.exec.EvalRequest.restrict`): every
  backend walks only the GGM node window whose subtrees meet
  ``[lo, hi)`` — ``O((hi - lo) + log L)`` PRF blocks per key, batched
  in :meth:`Strategy.eval_batch <repro.gpu.strategies.Strategy
  .eval_batch>` and per key in :func:`repro.dpf.dpf.eval_range` — so N
  shards together do one tree's worth of cipher work, not N, answering
  the *partial* dot product
  ``sum_{i in [lo, hi)} share_k[i] * table[i] (mod 2^64)``.  The
  front-end recombines by modular addition: the full dot product is a
  sum over disjoint row ranges, so summing the shards' partials in the
  uint64 wrap-around ring is *exactly* the unsharded answer — not an
  approximation — which is why the property tests can demand
  bit-identity to ``PirServer.handle`` for every shard count.

* **Replication + failover** — each shard runs R replicas behind a
  :class:`ReplicaSet` with health tracking.  A replica whose injected
  faults (:class:`~repro.serve.chaos.FlakyBackend`) exhaust the
  :class:`~repro.serve.control.RetryPolicy` is **ejected** and the
  in-flight batch fails over to a sibling: the fused request is
  un-merged (:meth:`~repro.exec.EvalRequest.unmerge`) and the
  constituents re-dispatched *in original order*, so survivors keep
  their seniority and a second mid-failover death resumes from the
  first unanswered constituent (completed partials are deterministic,
  hence safe to keep).  An ejected replica rejoins on **probation**
  after the set answers ``rejoin_after`` batches without it, carries
  real traffic there, and is promoted back to healthy after
  ``probation_successes`` consecutive successes — one fault on
  probation re-ejects immediately, no retries.  A shard with every
  replica ejected raises the typed :exc:`ShardUnavailable` (never a
  hang).

* **Epoch-versioned online updates** — an :class:`EpochRegistry`
  serves epoch E while epoch E+1 ingests shard by shard
  (:meth:`ShardedPirServer.begin_update` /
  :meth:`~ShardedPirServer.ingest_shard` /
  :meth:`~ShardedPirServer.flip`), then flips atomically.  Every query
  is pinned to the epoch in its wire frame and answered against
  exactly that epoch's slices, so a query generated before a flip
  reconstructs against the *old* table even when its batch runs after
  the flip — both servers answer from the same version and the shares
  still telescope, preserving bit-exactness through updates.  The
  registry retains the last ``retain_epochs`` versions; older pins get
  the typed :exc:`EpochRetired`.

Everything is deterministic — health transitions count batches, not
wall-clock seconds — so every chaos scenario in
``tests/serve/test_shard.py`` replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.exec.backend import ExecutionBackend, SingleGpuBackend
from repro.exec.plan_cache import PlanCache
from repro.exec.request import EvalRequest
from repro.obs.trace import annotate_request
from repro.pir.server import PirServer
from repro.serve.control import RetryPolicy

HEALTHY = "healthy"
"""Replica state: in the rotation, full retry budget."""

PROBATION = "probation"
"""Replica state: back in the rotation after ejection, zero retry
budget — one fault re-ejects immediately."""

EJECTED = "ejected"
"""Replica state: out of the rotation, waiting out its rejoin count."""

REPLICA_STATES = (HEALTHY, PROBATION, EJECTED)


class ShardUnavailable(RuntimeError):
    """Every replica of one shard is ejected; the batch cannot be served.

    Typed so the serving loop's retry/requeue path and clients can tell
    "a table sub-range is dark" from a generic backend fault.  Raised
    synchronously — an all-replicas-down shard fails fast, it never
    hangs a caller.

    Attributes:
        shard_index: Which shard went dark.
        lo, hi: The table rows ``[lo, hi)`` nobody can answer.
    """

    def __init__(self, shard_index: int, lo: int, hi: int):
        super().__init__(
            f"shard {shard_index} (table rows [{lo}, {hi})) has no "
            f"serving replicas: all ejected"
        )
        self.shard_index = shard_index
        self.lo = lo
        self.hi = hi


class EpochRetired(ValueError):
    """The query is pinned to a table epoch no longer retained.

    A ``ValueError`` subclass so the wire layer's strict-validation
    contract holds (malformed-or-unanswerable queries fail with
    ``ValueError`` at submission), but typed so clients can react
    correctly: re-issue the query against the current epoch rather
    than treating it as a protocol bug.

    Attributes:
        epoch: The retired epoch the query was pinned to.
        retained: The epochs the server still holds, oldest first.
    """

    def __init__(self, epoch: int, retained: tuple[int, ...]):
        super().__init__(
            f"table epoch {epoch} is retired; this server retains "
            f"epochs {list(retained)} — re-query against the current epoch"
        )
        self.epoch = epoch
        self.retained = retained


def shard_ranges(domain_size: int, shards: int) -> list[tuple[int, int]]:
    """Split ``[0, domain_size)`` into ``shards`` contiguous sub-ranges.

    Near-equal split: the first ``domain_size % shards`` ranges get one
    extra row, so sizes differ by at most one and concatenating the
    ranges reproduces the domain exactly (no gaps, no overlap — the
    recombination math depends on this partition property).

    Raises:
        ValueError: If ``shards`` is not in ``[1, domain_size]``.
    """
    if domain_size <= 0:
        raise ValueError(f"domain_size must be positive, got {domain_size}")
    if not 1 <= shards <= domain_size:
        raise ValueError(
            f"shards must be in [1, {domain_size}] for a domain of "
            f"{domain_size} rows, got {shards}"
        )
    base, extra = divmod(domain_size, shards)
    ranges = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


class EpochRegistry:
    """Which table epochs exist, which are retained, which is staged.

    The version control plane, separated from the data plane (the
    slices live in the replica sets) so its state machine is trivially
    testable: ``current`` serves, ``staged`` ingests, ``retained`` is
    the answerable window, everything older is retired.

    Args:
        retain: How many published epochs stay answerable (>= 1).  The
            default of 2 keeps exactly the pre-flip epoch alive through
            a flip — enough for every query generated before the flip
            to finish, the minimum that makes online updates seamless.
    """

    def __init__(self, retain: int = 2):
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.retain = retain
        self.current = 0
        self.staged: int | None = None
        self._retained: list[int] = [0]

    @property
    def retained(self) -> tuple[int, ...]:
        """Answerable epochs, oldest first (always contains current)."""
        return tuple(self._retained)

    def begin(self) -> int:
        """Stage epoch ``current + 1`` for ingestion.

        Raises:
            ValueError: If an ingestion is already staged (one update
                in flight at a time — the atomicity guarantee).
        """
        if self.staged is not None:
            raise ValueError(
                f"epoch {self.staged} is already staged; flip or abandon "
                f"it before beginning another update"
            )
        self.staged = self.current + 1
        return self.staged

    def flip(self) -> tuple[int, list[int]]:
        """Publish the staged epoch; retire beyond the retained window.

        Returns:
            ``(new_current, dropped)`` — the published epoch and the
            epochs that just left the retained window (the caller drops
            their table slices).

        Raises:
            ValueError: If no epoch is staged.
        """
        if self.staged is None:
            raise ValueError("no epoch is staged; call begin() first")
        self.current = self.staged
        self.staged = None
        self._retained.append(self.current)
        dropped = []
        while len(self._retained) > self.retain:
            dropped.append(self._retained.pop(0))
        return self.current, dropped

    def check(self, epoch: int) -> None:
        """Validate that ``epoch`` is answerable right now.

        Raises:
            EpochRetired: The epoch was published and has been retired.
            ValueError: The epoch was never published (future, or
                staged but not yet flipped).
        """
        if epoch in self._retained:
            return
        if 0 <= epoch <= self.current:
            raise EpochRetired(epoch, self.retained)
        if epoch == self.staged:
            raise ValueError(
                f"table epoch {epoch} is still ingesting; it is not "
                f"answerable until the flip"
            )
        raise ValueError(
            f"table epoch {epoch} has never been published (current is "
            f"{self.current})"
        )


@dataclass(eq=False)
class ShardReplica:
    """One replica of one shard: a backend plus its health state.

    Identity equality: replicas are tracked as objects through the
    rotation.  The table slices live in the owning :class:`ReplicaSet`
    (identical across siblings, so storing them per replica would just
    duplicate views).

    Attributes:
        backend: The execution backend this replica evaluates on
            (wrap in :class:`~repro.serve.chaos.FlakyBackend` to
            torture it).
        state: :data:`HEALTHY` / :data:`PROBATION` / :data:`EJECTED`.
        ejections: Times this replica has been ejected.
        probation_streak: Consecutive probation successes so far.
        idle_batches: Set-level batches answered since this replica's
            ejection (the rejoin countdown).
    """

    backend: ExecutionBackend
    state: str = HEALTHY
    ejections: int = 0
    probation_streak: int = 0
    idle_batches: int = 0


class _ReplicaExhausted(Exception):
    """Internal: one replica's retry budget is spent (carries cause)."""


@dataclass
class ShardStats:
    """Observable counters for one replica set's lifetime.

    Attributes:
        batches: Set-level answers completed (fused batches, not keys).
        retries: Same-replica retry attempts after a fault.
        ejections: Replica ejections (retry budget exhausted, or one
            probation fault).
        failovers: Batches (or un-merged constituents) re-dispatched to
            a sibling after an ejection.
        rejoins: Ejected replicas re-entering the rotation on probation.
        recoveries: Probation replicas promoted back to healthy.
    """

    batches: int = 0
    retries: int = 0
    ejections: int = 0
    failovers: int = 0
    rejoins: int = 0
    recoveries: int = 0

    def as_dict(self) -> dict:
        """JSON-ready counters — the metrics-registry view shape."""
        return {
            "batches": self.batches,
            "retries": self.retries,
            "ejections": self.ejections,
            "failovers": self.failovers,
            "rejoins": self.rejoins,
            "recoveries": self.recoveries,
        }


class ReplicaSet:
    """R replicas of one shard: routing, health, retries, failover.

    All state transitions count *batches*, not seconds, so a replayed
    request sequence produces the identical ejection/rejoin history.

    Args:
        shard_index: Position of this shard in the front-end's order.
        lo, hi: The table rows ``[lo, hi)`` this shard serves.
        backends: One backend per replica (>= 1).
        retry: Same-replica retry budget before ejection (defaults to
            the serving loop's default policy).
        rejoin_after: Set-level batches an ejected replica sits out
            before rejoining on probation.  ``None`` disables rejoin
            (an ejected replica stays dead).
        probation_successes: Consecutive successes that promote a
            probation replica back to healthy.
        plan_cache: Optional :class:`~repro.exec.PlanCache` shared by
            this set's replicas: dispatches evaluate through it (the
            cache key carries the backend identity, so distinct devices
            never exchange plans).
    """

    def __init__(
        self,
        shard_index: int,
        lo: int,
        hi: int,
        backends: Sequence[ExecutionBackend],
        retry: RetryPolicy | None = None,
        rejoin_after: int | None = 3,
        probation_successes: int = 2,
        plan_cache: "PlanCache | None" = None,
    ):
        if not backends:
            raise ValueError("need at least one replica backend")
        if not 0 <= lo < hi:
            raise ValueError(f"invalid shard range [{lo}, {hi})")
        if rejoin_after is not None and rejoin_after < 1:
            raise ValueError(f"rejoin_after must be >= 1 or None, got {rejoin_after}")
        if probation_successes < 1:
            raise ValueError(
                f"probation_successes must be >= 1, got {probation_successes}"
            )
        self.shard_index = shard_index
        self.lo = lo
        self.hi = hi
        self.replicas = [ShardReplica(backend) for backend in backends]
        self.retry = retry if retry is not None else RetryPolicy()
        self.rejoin_after = rejoin_after
        self.probation_successes = probation_successes
        self.plan_cache = plan_cache
        self.stats = ShardStats()
        self._cursor = 0
        self._tables: dict[int, np.ndarray] = {}

    # -- tables (installed by the owning ShardedPirServer) -------------

    @property
    def entries(self) -> int:
        return self.hi - self.lo

    def install_epoch(self, epoch: int, table_slice: np.ndarray) -> None:
        """Install one epoch's ``(hi - lo,)`` slice (a zero-copy view)."""
        if table_slice.shape != (self.entries,):
            raise ValueError(
                f"shard {self.shard_index} serves {self.entries} rows but "
                f"the epoch-{epoch} slice carries {table_slice.shape}"
            )
        self._tables[epoch] = table_slice

    def drop_epoch(self, epoch: int) -> None:
        self._tables.pop(epoch, None)

    # -- health --------------------------------------------------------

    def states(self) -> tuple[str, ...]:
        """Each replica's current state, in replica order."""
        return tuple(replica.state for replica in self.replicas)

    def _pick(self) -> ShardReplica | None:
        """Next serving replica: deterministic round-robin over the
        non-ejected, so load spreads and probation replicas carry real
        traffic (how they prove themselves)."""
        eligible = [r for r in self.replicas if r.state != EJECTED]
        if not eligible:
            return None
        replica = eligible[self._cursor % len(eligible)]
        self._cursor += 1
        return replica

    def _eject(self, replica: ShardReplica) -> None:
        replica.state = EJECTED
        replica.idle_batches = 0
        replica.probation_streak = 0
        self.stats.ejections += 1

    def _record_success(self, replica: ShardReplica) -> None:
        if replica.state == PROBATION:
            replica.probation_streak += 1
            if replica.probation_streak >= self.probation_successes:
                replica.state = HEALTHY
                replica.probation_streak = 0
                self.stats.recoveries += 1

    def _finish_batch(self) -> None:
        """Advance every ejected replica's rejoin countdown by one
        completed set-level batch; promote the ones that served their
        time to probation."""
        self.stats.batches += 1
        if self.rejoin_after is None:
            return
        for replica in self.replicas:
            if replica.state != EJECTED:
                continue
            replica.idle_batches += 1
            if replica.idle_batches >= self.rejoin_after:
                replica.state = PROBATION
                replica.probation_streak = 0
                replica.idle_batches = 0
                self.stats.rejoins += 1

    # -- serving -------------------------------------------------------

    def _run_once(
        self, replica: ShardReplica, request: EvalRequest, epoch: int
    ) -> np.ndarray:
        """One replica attempt under its retry budget; the ``(B,)``
        partial dot product on success, :class:`_ReplicaExhausted` when
        the budget is spent (probation replicas have none)."""
        table = self._tables[epoch]
        # The partial sum the front-end adds up: the walk over rows
        # [lo, hi) dots each window of shares with this shard's slice.
        restricted = replace(
            request.restrict(self.lo, self.hi),
            reduce=lambda shares, lo, hi: shares @ table[lo - self.lo : hi - self.lo],
        )
        attempts = 0
        while True:
            attempts += 1
            try:
                # Through the cache when there is one: memoized plan
                # and pinned workspace, keyed per backend identity.
                return (
                    self.plan_cache.run(replica.backend, restricted)
                    if self.plan_cache is not None
                    else replica.backend.run(restricted)
                ).answers
            except Exception as exc:
                if replica.state == PROBATION or not self.retry.allows_retry(
                    attempts, 0.0
                ):
                    raise _ReplicaExhausted() from exc
                self.stats.retries += 1
                # Annotate every query the faulted attempt carried
                # (the restricted view shares the request's traces).
                annotate_request(
                    restricted,
                    "shard_retry",
                    shard=self.shard_index,
                    attempt=attempts,
                    error=type(exc).__name__,
                )

    def answer(
        self,
        request: EvalRequest,
        epoch: int,
        sizes: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Answer the fused batch's partial shares for this shard.

        Fast path: one replica runs the merged batch whole.  On that
        replica's ejection the batch fails over un-merged: ``sizes``
        (when given) splits it back into its constituents, each
        re-dispatched in original order to the surviving rotation —
        seniority is preserved, and because partial shares are
        deterministic, constituents completed before a *second* death
        are kept rather than recomputed.

        Returns:
            ``(B,)`` uint64 partial shares over rows ``[lo, hi)``.

        Raises:
            ShardUnavailable: Every replica is ejected.
            KeyError: ``epoch``'s slice was never installed (a control-
                plane bug — :class:`ShardedPirServer` validates epochs
                before dispatch).
        """
        replica = self._pick()
        if replica is None:
            raise ShardUnavailable(self.shard_index, self.lo, self.hi)
        try:
            partial = self._run_once(replica, request, epoch)
            self._record_success(replica)
            self._finish_batch()
            return partial
        except _ReplicaExhausted as exhausted:
            self._eject(replica)
            cause = exhausted.__cause__
        # Failover: un-merge so each constituent survives independently.
        if sizes is not None and len(sizes) > 1:
            parts = EvalRequest.unmerge(request, sizes)
        else:
            parts = [request]
        partials: list[np.ndarray] = []
        replica = self._pick()
        while len(partials) < len(parts):
            if replica is None:
                raise ShardUnavailable(
                    self.shard_index, self.lo, self.hi
                ) from cause
            self.stats.failovers += 1
            # Mark the queries in the re-dispatched constituent: an
            # un-merged part carries exactly its own trace slot, so the
            # annotation lands on the queries that actually failed over.
            annotate_request(
                parts[len(partials)], "failover", shard=self.shard_index
            )
            try:
                partials.append(self._run_once(replica, parts[len(partials)], epoch))
                self._record_success(replica)
            except _ReplicaExhausted as exhausted:
                self._eject(replica)
                cause = exhausted.__cause__
                replica = self._pick()
        self._finish_batch()
        return partials[0] if len(partials) == 1 else np.concatenate(partials)


BackendFactory = Callable[[int, int], ExecutionBackend]
"""``(shard_index, replica_index) -> backend`` — how a
:class:`ShardedPirServer` populates its replica grid."""


class ShardedPirServer(PirServer):
    """A sharded, replicated front-end with the ``PirServer`` interface.

    Drop-in for :class:`~repro.pir.PirServer` everywhere the repo
    serves — ``handle``, the async loop, the benchmark — because it
    *is* one: construction, validation and framing are inherited, and
    only the two overridable seams change (:meth:`check_epoch` gains
    the epoch registry, :meth:`answer_request` fans out across shards
    and sums the partials mod 2^64 instead of running one backend).
    The property tests in ``tests/serve/test_shard.py`` pin the answer
    bytes to the unsharded server's for every shard/replica/backend
    combination, with and without injected faults.

    Args:
        table: The full database (epoch 0); sliced zero-copy across
            shards.
        shards: Contiguous sub-ranges to split the domain into.
        replicas: Replicas per shard.
        backend_factory: ``(shard, replica) -> backend``; default makes
            a fresh :class:`~repro.exec.SingleGpuBackend` each (wrap
            with :class:`~repro.serve.chaos.FlakyBackend` here to
            inject faults per replica).
        retry: Same-replica retry budget before ejection.
        rejoin_after: Batches an ejected replica sits out before
            probation (``None``: ejection is permanent).
        probation_successes: Consecutive successes promoting probation
            back to healthy.
        retain_epochs: Published epochs kept answerable (>= 1; 2 keeps
            the pre-flip epoch alive through each flip).
        prf_name, resident, max_batch: As on :class:`PirServer`.
        plan_cache: Optional :class:`~repro.exec.PlanCache` shared by
            every replica set (keys carry backend identity, so mixed
            fleets stay safe).  Enables the zero-dispatch steady state
            across shards.
    """

    def __init__(
        self,
        table: np.ndarray | Sequence[int],
        shards: int = 2,
        replicas: int = 1,
        backend_factory: BackendFactory | None = None,
        retry: RetryPolicy | None = None,
        rejoin_after: int | None = 3,
        probation_successes: int = 2,
        retain_epochs: int = 2,
        prf_name: str = "aes128",
        resident: bool = False,
        max_batch: int | None = None,
        plan_cache: PlanCache | None = None,
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        factory = (
            backend_factory
            if backend_factory is not None
            else lambda shard, replica: SingleGpuBackend()
        )
        retry = retry if retry is not None else RetryPolicy()
        table = np.ascontiguousarray(np.asarray(table, dtype=np.uint64))
        if table.ndim != 1 or table.size == 0:
            raise ValueError("table must be a non-empty 1-D array of uint64 entries")
        ranges = shard_ranges(int(table.size), shards)
        self.shards = [
            ReplicaSet(
                index,
                lo,
                hi,
                [factory(index, replica) for replica in range(replicas)],
                retry=retry,
                rejoin_after=rejoin_after,
                probation_successes=probation_successes,
                plan_cache=plan_cache,
            )
            for index, (lo, hi) in enumerate(ranges)
        ]
        # The inherited backend is the drain-model/pricing
        # representative only; answer_request never runs it directly.
        super().__init__(
            table,
            backend=self.shards[0].replicas[0].backend,
            prf_name=prf_name,
            resident=resident,
            max_batch=max_batch,
            plan_cache=plan_cache,
        )
        self.registry = EpochRegistry(retain=retain_epochs)
        self._epoch_tables: dict[int, np.ndarray] = {0: self.table}
        self._staged_table: np.ndarray | None = None
        self._staged_shards: set[int] = set()
        for shard in self.shards:
            shard.install_epoch(0, self.table[shard.lo : shard.hi])

    # -- introspection -------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def replica_count(self) -> int:
        return len(self.shards[0].replicas)

    def replica_states(self) -> list[tuple[str, ...]]:
        """Per-shard replica states, for tests and the smoke script."""
        return [shard.states() for shard in self.shards]

    def stats_totals(self) -> ShardStats:
        """Fleet-wide health counters summed across shards."""
        total = ShardStats()
        for shard in self.shards:
            total.batches += shard.stats.batches
            total.retries += shard.stats.retries
            total.ejections += shard.stats.ejections
            total.failovers += shard.stats.failovers
            total.rejoins += shard.stats.rejoins
            total.recoveries += shard.stats.recoveries
        return total

    # -- epoch control plane -------------------------------------------

    def begin_update(self, new_table: np.ndarray | Sequence[int]) -> int:
        """Stage the next epoch's table for shard-by-shard ingestion.

        Serving continues uninterrupted against the retained epochs
        while the staged epoch ingests.

        Raises:
            ValueError: If an update is already in flight, or the new
                table's size differs from the current one (clients'
                keys address a fixed domain; resizing is a redeploy,
                not an epoch).
        """
        new_table = np.ascontiguousarray(np.asarray(new_table, dtype=np.uint64))
        if new_table.shape != (self.table_entries,):
            raise ValueError(
                f"epoch updates must keep the table size: current is "
                f"{self.table_entries} rows, new table has {new_table.shape}"
            )
        epoch = self.registry.begin()
        self._staged_table = new_table
        self._staged_shards = set()
        return epoch

    def ingest_shard(self, shard_index: int) -> None:
        """Install the staged epoch's slice on one shard's replica set.

        Idempotent per shard; callable in any order.  Queries keep
        answering from the retained epochs throughout — ingestion only
        *adds* slices.

        Raises:
            ValueError: If no update is staged or the index is out of
                range.
        """
        if self._staged_table is None or self.registry.staged is None:
            raise ValueError("no epoch update in flight; call begin_update first")
        if not 0 <= shard_index < len(self.shards):
            raise ValueError(
                f"shard_index must be in [0, {len(self.shards)}), got {shard_index}"
            )
        shard = self.shards[shard_index]
        shard.install_epoch(
            self.registry.staged, self._staged_table[shard.lo : shard.hi]
        )
        self._staged_shards.add(shard_index)

    def flip(self) -> int:
        """Atomically publish the staged epoch; retire beyond the window.

        The flip is one registry transition: every query admitted
        before it answers from its pinned (retained) epoch, every query
        pinned after it answers from the new table — no batch ever
        mixes versions.

        Returns:
            The newly current epoch.

        Raises:
            ValueError: If no update is staged or any shard has not
                ingested (an un-ingested shard would KeyError at serve
                time — refused up front instead).
        """
        if self._staged_table is None:
            raise ValueError("no epoch update in flight; call begin_update first")
        missing = set(range(len(self.shards))) - self._staged_shards
        if missing:
            raise ValueError(
                f"cannot flip: shards {sorted(missing)} have not ingested "
                f"the staged epoch"
            )
        staged_table = self._staged_table
        epoch, dropped = self.registry.flip()
        self._epoch_tables[epoch] = staged_table
        self.table = staged_table  # inherited sync paths serve current
        self.epoch = epoch
        self._staged_table = None
        self._staged_shards = set()
        for old in dropped:
            self._epoch_tables.pop(old, None)
            for shard in self.shards:
                shard.drop_epoch(old)
        return epoch

    def publish(self, new_table: np.ndarray | Sequence[int]) -> int:
        """The whole update in one call: begin, ingest every shard, flip."""
        self.begin_update(new_table)
        for shard_index in range(len(self.shards)):
            self.ingest_shard(shard_index)
        return self.flip()

    def epoch_table(self, epoch: int) -> np.ndarray:
        """The retained full table for ``epoch`` (tests' oracle hook).

        Raises:
            EpochRetired / ValueError: As :meth:`check_epoch`.
        """
        self.check_epoch(epoch)
        return self._epoch_tables[epoch]

    # -- serving seams (the PirServer overrides) -----------------------

    def check_epoch(self, epoch: int) -> None:
        """Registry semantics: retained answers, retired is typed.

        Raises:
            EpochRetired: ``epoch`` was published and aged out of the
                retained window.
            ValueError: ``epoch`` was never published (staged or
                future).
        """
        self.registry.check(epoch)

    def answer_request(
        self,
        request: EvalRequest,
        epoch: int = 0,
        backend: ExecutionBackend | None = None,
        sizes: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Fan the batch across shards; sum partials mod 2^64.

        Each shard contributes ``sum_{i in [lo, hi)} share[i] *
        table_epoch[i]`` from whichever replica serves it (retry,
        eject, fail over as needed); the shard ranges partition the
        domain, so the uint64 wrap-around sum of the partials is
        bit-identical to the unsharded dot product.

        Raises:
            EpochRetired / ValueError: Epoch not answerable.
            ShardUnavailable: Some shard has no serving replicas (the
                whole batch fails typed — a missing sub-range makes
                every answer share wrong, so there is no partial
                success to return).
        """
        if backend is not None:
            raise ValueError(
                "a sharded server routes across its own replicas; "
                "external backend routing (fleet=) is unsupported"
            )
        self.check_epoch(epoch)
        total = np.zeros(request.arena().batch, dtype=np.uint64)
        for shard in self.shards:
            np.add(total, shard.answer(request, epoch, sizes=sizes), out=total)
        return total

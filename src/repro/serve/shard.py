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
  :class:`ReplicaSet` with health tracking.  A set never retries: a
  replica that raises (say, a fault the tests inject with
  ``tests.strategies.FlakyBackend``) is **ejected** and
  the in-flight batch fails over to a sibling — the fused request is
  un-merged (:meth:`~repro.exec.EvalRequest.unmerge`) and the
  constituents re-dispatched *in original order*, so survivors keep
  their seniority and a second mid-failover death resumes from the
  first unanswered constituent (completed partials are deterministic,
  hence safe to keep).  The last replica in rotation is never ejected:
  its exception goes up to the caller, which for served traffic is
  the serving loop, the one place a failed batch is retried.  So a
  set cannot go dark.  An ejected replica rejoins the rotation,
  healthy, after the set's next ``rejoin_after`` dispatches, answered
  or failed.

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

Everything is deterministic — health transitions count dispatches,
not wall-clock seconds — so every chaos scenario in
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

HEALTHY = "healthy"
"""Replica state: in the rotation."""

EJECTED = "ejected"
"""Replica state: out of the rotation, waiting out its rejoin count."""

REPLICA_STATES = (HEALTHY, EJECTED)


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
            (the tests wrap it in ``tests.strategies.FlakyBackend`` to
            torture it).
        state: :data:`HEALTHY` / :data:`EJECTED`.
        idle_dispatches: Set-level dispatches, answered or failed,
            since this replica's ejection (the rejoin countdown).
    """

    backend: ExecutionBackend
    state: str = HEALTHY
    idle_dispatches: int = 0


@dataclass
class ShardStats:
    """Observable counters for one replica set's lifetime.

    Attributes:
        batches: Set-level answers completed (fused batches, not keys).
        retries: Faults of the last replica in rotation, handed up to
            the caller to retry (the serving loop re-dispatches the
            batch).
        ejections: Replicas taken out of the rotation after a fault.
        failovers: Batches (or un-merged constituents) re-dispatched to
            a sibling after an ejection.
        rejoins: Ejected replicas back in the rotation.
    """

    batches: int = 0
    retries: int = 0
    ejections: int = 0
    failovers: int = 0
    rejoins: int = 0


class ReplicaSet:
    """R replicas of one shard: routing, health, failover.

    All state transitions count *dispatches*, not seconds, so a replayed
    request sequence produces the identical ejection/rejoin history.

    Args:
        shard_index: Position of this shard in the front-end's order.
        lo, hi: The table rows ``[lo, hi)`` this shard serves.
        backends: One backend per replica (>= 1).
        rejoin_after: Set-level dispatches, answered or failed, an
            ejected replica sits out before it rejoins, healthy (the
            dispatch that ejected it counts).  ``None`` disables rejoin
            (an ejected replica stays out).
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
        rejoin_after: int | None = 3,
        plan_cache: "PlanCache | None" = None,
    ):
        if not backends:
            raise ValueError("need at least one replica backend")
        if not 0 <= lo < hi:
            raise ValueError(f"invalid shard range [{lo}, {hi})")
        if rejoin_after is not None and rejoin_after < 1:
            raise ValueError(f"rejoin_after must be >= 1 or None, got {rejoin_after}")
        self.shard_index = shard_index
        self.lo = lo
        self.hi = hi
        self.replicas = [ShardReplica(backend) for backend in backends]
        self.rejoin_after = rejoin_after
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

    def _rotation(self) -> list[ShardReplica]:
        """The replicas in rotation; never empty, because the last one
        is never ejected."""
        return [r for r in self.replicas if r.state != EJECTED]

    def _pick(self) -> ShardReplica:
        """Next serving replica: deterministic round-robin over the
        rotation."""
        rotation = self._rotation()
        replica = rotation[self._cursor % len(rotation)]
        self._cursor += 1
        return replica

    def _tick(self) -> None:
        """Advance every ejected replica's rejoin countdown by one
        set-level dispatch; rejoin the ones that served their time."""
        if self.rejoin_after is None:
            return
        for replica in self.replicas:
            if replica.state != EJECTED:
                continue
            replica.idle_dispatches += 1
            if replica.idle_dispatches >= self.rejoin_after:
                replica.state = HEALTHY
                self.stats.rejoins += 1

    # -- serving -------------------------------------------------------

    def _run(
        self, replica: ShardReplica, request: EvalRequest, table: np.ndarray
    ) -> np.ndarray:
        """One replica's ``(B,)`` partial dot product over ``[lo, hi)``."""
        # The partial sum the front-end adds up: the walk over rows
        # [lo, hi) dots each window of shares with this shard's slice.
        restricted = replace(
            request.restrict(self.lo, self.hi),
            reduce=lambda shares, lo, hi: shares @ table[lo - self.lo : hi - self.lo],
        )
        # Through the cache when there is one: the memoized plan, keyed
        # per backend identity.
        if self.plan_cache is not None:
            return self.plan_cache.run(replica.backend, restricted)
        return replica.backend.run(restricted)

    def answer(
        self,
        request: EvalRequest,
        epoch: int,
        sizes: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Answer the fused batch's partial shares for this shard.

        Fast path: one replica runs the merged batch whole.  When a
        replica raises and a sibling is still in rotation, the replica
        is ejected and the batch fails over un-merged: ``sizes`` (when
        given) splits it back into its constituents, each re-dispatched
        in original order to the surviving rotation — seniority is
        preserved, and because partial shares are deterministic,
        constituents completed before a *second* death are kept rather
        than recomputed.  Every call advances the rejoin countdown,
        whether it answers or raises.

        Returns:
            ``(B,)`` uint64 partial shares over rows ``[lo, hi)``.

        Raises:
            Exception: Whatever the last replica in rotation raised; it
                stays in rotation, and the caller may retry.
            KeyError: ``epoch``'s slice was never installed (a control-
                plane bug — :class:`ShardedPirServer` validates epochs
                before dispatch).
        """
        table = self._tables[epoch]
        parts = [request]
        partials: list[np.ndarray] = []
        failed_over = False
        replica = self._pick()
        try:
            while len(partials) < len(parts):
                part = parts[len(partials)]
                if failed_over:
                    self.stats.failovers += 1
                    # An un-merged part carries exactly its own trace
                    # slots, so the annotation lands on the queries
                    # that actually failed over.
                    annotate_request(part, "failover", shard=self.shard_index)
                try:
                    partials.append(self._run(replica, part, table))
                except Exception:
                    if len(self._rotation()) == 1:
                        self.stats.retries += 1
                        raise
                    replica.state = EJECTED
                    replica.idle_dispatches = 0
                    self.stats.ejections += 1
                    if not failed_over and sizes is not None and len(sizes) > 1:
                        parts = EvalRequest.unmerge(request, sizes)
                    failed_over = True
                    replica = self._pick()
        finally:
            self._tick()
        self.stats.batches += 1
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
            a fresh :class:`~repro.exec.SingleGpuBackend` each (the
            tests wrap one in ``tests.strategies.FlakyBackend`` here to
            inject faults per replica).
        rejoin_after: Set-level dispatches an ejected replica sits out
            before it rejoins (``None``: ejection is permanent).
        retain_epochs: Published epochs kept answerable (>= 1; 2 keeps
            the pre-flip epoch alive through each flip).
        prf_name, max_batch: As on :class:`PirServer`.
        plan_cache: Optional :class:`~repro.exec.PlanCache` shared by
            every replica set (keys carry backend identity, so a
            fault-injecting replica never shares an entry).  Enables the
            zero-dispatch steady state across shards.
    """

    def __init__(
        self,
        table: np.ndarray | Sequence[int],
        shards: int = 2,
        replicas: int = 1,
        backend_factory: BackendFactory | None = None,
        rejoin_after: int | None = 3,
        retain_epochs: int = 2,
        prf_name: str = "aes128",
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
                rejoin_after=rejoin_after,
                plan_cache=plan_cache,
            )
            for index, (lo, hi) in enumerate(ranges)
        ]
        # The inherited backend is never run: answer_request (which
        # answer_shares and handle both go through) fans out across
        # the replica sets instead.
        super().__init__(
            table,
            backend=self.shards[0].replicas[0].backend,
            prf_name=prf_name,
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

    def replica_states(self) -> list[tuple[str, ...]]:
        """Each shard's replica states (``HEALTHY`` / ``EJECTED``), one
        tuple per shard with its replicas in order."""
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
        sizes: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Fan the batch across shards; sum partials mod 2^64.

        Each shard contributes ``sum_{i in [lo, hi)} share[i] *
        table_epoch[i]`` from whichever replica serves it (ejecting and
        failing over as needed); the shard ranges partition the
        domain, so the uint64 wrap-around sum of the partials is
        bit-identical to the unsharded dot product.

        Every shard is dispatched even after one raises, so one call
        absorbs one fault per shard: the attempts a caller needs do not
        grow with the shard count.

        Raises:
            EpochRetired / ValueError: Epoch not answerable.
            Exception: The first fault a shard's last replica in rotation
                raised (the whole batch fails — a missing sub-range
                makes every answer share wrong, so there is no partial
                success to return); the caller may retry.
        """
        self.check_epoch(epoch)
        total = np.zeros(request.arena().batch, dtype=np.uint64)
        fault: Exception | None = None
        for shard in self.shards:
            try:
                partial = shard.answer(request, epoch, sizes=sizes)
            except Exception as exc:
                if fault is None:
                    fault = exc
                continue
            np.add(total, partial, out=total)
        if fault is not None:
            raise fault
        return total

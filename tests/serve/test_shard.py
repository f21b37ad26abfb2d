"""Sharded, replicated serving: bit-exactness through every failure.

The acceptance property of the sharding layer: a
:class:`ShardedPirServer`'s reply frames are *byte-identical* to the
unsharded ``PirServer.handle`` for every shard count, replication
factor, and backend — with and without injected replica faults, across
replica kills mid-batch, kills during an epoch flip, and rejoins.  A
replica set never retries and never ejects its last replica in
rotation: that replica's fault goes up to the caller typed as the
backend raised it (never a hang, never a wrong answer, never a shard
gone dark for good), and the serving loop retries the batch.  A query
pinned to a retired epoch fails with the typed :class:`EpochRetired`.

Every fault here is deterministic (:class:`FaultPlan`), and every
health transition counts dispatches, so failing scenarios replay
exactly.
"""

import asyncio

import numpy as np
import pytest

from repro.pir import PirClient, PirQuery, PirReply, PirServer
from repro.serve import (
    EJECTED,
    AsyncPirServer,
    EpochRegistry,
    EpochRetired,
    HEALTHY,
    ReplicaSet,
    ShardedPirServer,
    shard_ranges,
)

from tests.strategies import BACKEND_FACTORIES, BackendFault, FaultPlan, FlakyBackend

DOMAIN = 61
PRF = "siphash"


def _table(seed=0, domain=DOMAIN):
    return np.random.default_rng(seed).integers(
        0, 1 << 64, size=domain, dtype=np.uint64
    )


def _client(seed=1, domain=DOMAIN, epoch=0):
    return PirClient(domain, PRF, rng=np.random.default_rng(seed), epoch=epoch)


def _pair(table, factory=None, **kwargs):
    """The two non-colluding parties as identically-configured servers."""
    kwargs.setdefault("prf_name", PRF)
    if factory is not None:
        kwargs["backend_factory"] = factory
    return [ShardedPirServer(table, **kwargs) for _ in range(2)]


def _reconstruct(client, batch, servers):
    return client.reconstruct(
        batch,
        servers[0].handle(batch.requests[0]),
        servers[1].handle(batch.requests[1]),
    )


async def _backlog(loop, frames, queries):
    """Submit every frame before the aggregation task runs."""
    tasks = [asyncio.create_task(loop.submit(frame)) for frame in frames]
    while loop.pending_queries < queries:
        await asyncio.sleep(0)
    return tasks


class TestShardRanges:
    def test_partition_is_exact_and_near_equal(self):
        for domain in (1, 2, 7, 61, 64, 100):
            for shards in range(1, min(domain, 9) + 1):
                ranges = shard_ranges(domain, shards)
                assert ranges[0][0] == 0 and ranges[-1][1] == domain
                sizes = [hi - lo for lo, hi in ranges]
                assert sum(sizes) == domain
                assert max(sizes) - min(sizes) <= 1
                for (_, a_hi), (b_lo, _) in zip(ranges, ranges[1:]):
                    assert a_hi == b_lo  # contiguous: no gap, no overlap

    def test_invalid_splits_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            shard_ranges(4, 0)
        with pytest.raises(ValueError, match="shards"):
            shard_ranges(4, 5)
        with pytest.raises(ValueError, match="domain_size"):
            shard_ranges(0, 1)


@pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
@pytest.mark.parametrize("shards", [1, 2, 3, 5])
@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faulted"])
class TestBitIdenticalToUnsharded:
    """The tentpole acceptance grid — shards x replication x backend,
    with and without injected replica faults, reply frames byte-equal
    to the unsharded server's."""

    def test_handle_matches_unsharded(self, backend_name, shards, replicas, faulty):
        table = _table()
        plain = [
            PirServer(table, backend=BACKEND_FACTORIES[backend_name](), prf_name=PRF)
            for _ in range(2)
        ]

        def factory(shard, replica):
            backend = BACKEND_FACTORIES[backend_name]()
            if faulty and replica == 0:
                # Replica 0 of every shard dies on its first run and
                # recovers: a sibling (replicas=2) absorbs it, or the
                # lone replica hands it up (replicas=1).
                return FlakyBackend(backend, FaultPlan.nth(1))
            return backend

        sharded = _pair(table, factory, shards=shards, replicas=replicas)
        client = _client()
        for round_, indices in enumerate(([0], [5, 60, 17], [33, 33, 2, 50])):
            batch = client.query(indices)
            for party in range(2):
                frame = batch.requests[party]
                if faulty and replicas == 1 and round_ == 0:
                    # One dispatch takes every shard's one fault, so a
                    # single retry answers, whatever the shard count.
                    with pytest.raises(BackendFault):
                        sharded[party].handle(frame)
                    assert sharded[party].stats_totals().retries == shards
                assert sharded[party].handle(frame) == plain[party].handle(frame)
        if faulty:
            for server in sharded:
                stats = server.stats_totals()
                assert stats.retries + stats.failovers > 0


class TestReplicaFailover:
    def test_persistent_fault_ejects_and_fails_over(self):
        """A replica dead from run 1 is ejected on its first fault, with
        no retry of its own, and the sibling answers — bit-exact."""

        def factory(shard, replica):
            inner = BACKEND_FACTORIES["single_gpu"]()
            if shard == 0 and replica == 0:
                return FlakyBackend(inner, FaultPlan.after(1))
            return inner

        table = _table()
        servers = _pair(table, factory, shards=2, replicas=2, rejoin_after=None)
        client = _client()
        batch = client.query([4, 19, 44])
        assert np.array_equal(_reconstruct(client, batch, servers), table[[4, 19, 44]])
        for server in servers:
            assert server.replica_states() == [
                (EJECTED, HEALTHY),
                (HEALTHY, HEALTHY),
            ]
            stats = server.stats_totals()
            assert stats.ejections == 1
            assert stats.failovers >= 1

    def test_failover_unmerges_and_preserves_order(self):
        """With merge sizes provided, failover re-dispatches the
        constituents individually, in original order."""

        class CountingBackend:
            """Records each dispatched batch size; delegates the rest."""

            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name
                self.batch_sizes = []

            def plan(self, request):
                return self.inner.plan(request)

            def run(self, request):
                self.batch_sizes.append(request.arena().batch)
                return self.inner.run(request)

        sibling = CountingBackend(BACKEND_FACTORIES["single_gpu"]())
        grid = {
            (0, 0): FlakyBackend(BACKEND_FACTORIES["single_gpu"](), FaultPlan.after(1)),
            (0, 1): sibling,
        }
        table = _table(domain=16)
        server = ShardedPirServer(
            table,
            shards=1,
            replicas=2,
            backend_factory=lambda s, r: grid[(s, r)],
            prf_name=PRF,
        )
        client = _client(domain=16)
        requests = [
            server.parse_query(client.query(idx).requests[0])[1]
            for idx in ([1, 2], [3], [4, 5, 6])
        ]
        from repro.exec import EvalRequest

        merged, sizes = EvalRequest.merge(requests)
        answers = server.answer_request(merged, epoch=0, sizes=sizes)
        # The survivor served the constituents individually, in order.
        assert sibling.batch_sizes == [2, 1, 3]
        expected = server.combine(BACKEND_FACTORIES["single_gpu"]().run(merged).answers)
        assert np.array_equal(answers, expected)

    def test_all_replicas_down_raises_the_backend_fault(self):
        """Every replica dead: the set ejects all but its last replica,
        which stays in rotation and hands its own fault up, typed."""

        def dead(shard, replica):
            return FlakyBackend(BACKEND_FACTORIES["single_gpu"](), FaultPlan.after(1))

        table = _table()
        server = ShardedPirServer(
            table, shards=3, replicas=2, backend_factory=dead, prf_name=PRF
        )
        client = _client()
        with pytest.raises(BackendFault):
            server.handle(client.query([7]).requests[0])
        # Every shard was dispatched before the first fault went up:
        # one ejection and one hand-up each.
        assert server.replica_states() == [(EJECTED, HEALTHY)] * 3
        stats = server.stats_totals()
        assert (stats.ejections, stats.retries, stats.batches) == (3, 3, 0)

    def _two_replicas(self, flaky, **kwargs):
        grid = {(0, 0): flaky, (0, 1): BACKEND_FACTORIES["single_gpu"]()}
        table = _table(domain=16)
        server = ShardedPirServer(
            table,
            shards=1,
            replicas=2,
            backend_factory=lambda s, r: grid[(s, r)],
            prf_name=PRF,
            **kwargs,
        )
        oracle = PirServer(
            table, backend=BACKEND_FACTORIES["single_gpu"](), prf_name=PRF
        )
        return server, oracle, _client(domain=16)

    def test_ejected_replica_rejoins_healthy_after_rejoin_after_dispatches(self):
        """Eject on one fault, sit out rejoin_after dispatches (the
        ejecting one counts), rejoin straight to healthy and carry
        traffic again — deterministic."""
        flaky = FlakyBackend(BACKEND_FACTORIES["single_gpu"](), FaultPlan.nth(1))
        server, oracle, client = self._two_replicas(flaky, rejoin_after=2)

        def serve_one(i):
            batch = client.query([i % 16])
            assert server.handle(batch.requests[0]) == oracle.handle(batch.requests[0])

        serve_one(0)  # dispatch 1: replica 0 faults once, ejected
        assert server.replica_states()[0] == (EJECTED, HEALTHY)
        assert flaky.runs == 1  # no same-replica retry
        serve_one(1)  # dispatch 2: sibling serves; countdown done
        assert server.replica_states()[0] == (HEALTHY, HEALTHY)
        runs = flaky.runs
        serve_one(2)
        serve_one(3)
        assert flaky.runs == runs + 1  # round-robin hands it traffic
        stats = server.stats_totals()
        assert (stats.ejections, stats.rejoins, stats.failovers) == (1, 1, 1)

    def test_rejoined_replica_that_faults_is_ejected_again(self):
        always_dead = FlakyBackend(BACKEND_FACTORIES["single_gpu"](), FaultPlan.after(1))
        server, oracle, client = self._two_replicas(always_dead, rejoin_after=2)
        server.handle(client.query([1]).requests[0])  # eject
        assert server.replica_states()[0][0] == EJECTED
        server.handle(client.query([2]).requests[0])  # rejoin countdown
        assert server.replica_states()[0][0] == HEALTHY
        runs_before = always_dead.runs
        while always_dead.runs == runs_before:
            batch = client.query([3])
            assert server.handle(batch.requests[0]) == oracle.handle(batch.requests[0])
        # One run, no retry loop: re-ejected, and the batch failed over.
        assert always_dead.runs == runs_before + 1
        assert server.replica_states()[0][0] == EJECTED
        assert server.stats_totals().ejections == 2

    def test_failed_dispatch_advances_the_rejoin_countdown(self):
        """Both replicas fault on one dispatch: replica 0 is ejected,
        replica 1 hands the fault up — and that failed dispatch still
        counts toward replica 0's rejoin."""
        grid = {
            (0, r): FlakyBackend(BACKEND_FACTORIES["single_gpu"](), FaultPlan.nth(1))
            for r in range(2)
        }
        server = ShardedPirServer(
            _table(domain=16),
            shards=1,
            replicas=2,
            backend_factory=lambda s, r: grid[(s, r)],
            prf_name=PRF,
            rejoin_after=1,
        )
        with pytest.raises(BackendFault):
            server.handle(_client(domain=16).query([5]).requests[0])
        assert server.replica_states()[0] == (HEALTHY, HEALTHY)
        stats = server.stats_totals()
        assert (stats.ejections, stats.retries, stats.rejoins) == (1, 1, 1)


class TestNoDarkShard:
    """The benchmark's sharded shape (two shards, one replica each)
    through a burst of faults on one shard: the lone replica is never
    ejected, so the shard answers again as soon as the burst ends."""

    def _server(self):
        flaky = FlakyBackend(BACKEND_FACTORIES["single_gpu"](), FaultPlan.nth(1, 2, 3))
        table = _table()
        server = ShardedPirServer(
            table,
            shards=2,
            replicas=1,
            backend_factory=lambda s, r: (
                flaky if s == 0 else BACKEND_FACTORIES["single_gpu"]()
            ),
            prf_name=PRF,
        )
        oracle = PirServer(
            table, backend=BACKEND_FACTORIES["single_gpu"](), prf_name=PRF
        )
        return server, oracle

    def test_lone_replica_hands_faults_up_and_stays_healthy(self):
        server, oracle = self._server()
        client = _client()
        frames = [client.query([i, 60 - i]).requests[0] for i in range(8)]
        for frame in frames[:3]:
            with pytest.raises(BackendFault):
                server.handle(frame)
        for frame in frames[3:]:
            assert server.handle(frame) == oracle.handle(frame)
        assert server.replica_states() == [(HEALTHY,), (HEALTHY,)]
        stats = server.stats_totals()
        assert (stats.retries, stats.ejections) == (3, 0)

    def test_default_loop_ends_every_query_answered_or_faulted(self):
        server, oracle = self._server()
        client = _client()
        frames = [client.query([i]).requests[0] for i in range(6)]

        async def run():
            loop = AsyncPirServer(server, max_batch=2)
            tasks = await _backlog(loop, frames, queries=6)
            async with loop:
                pass
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), timeout=30
            )
            return loop, outcomes

        loop, outcomes = asyncio.run(run())
        # The first batch takes the whole burst on its three attempts;
        # every later batch answers.
        assert all(isinstance(o, BackendFault) for o in outcomes[:2])
        assert outcomes[2:] == [oracle.handle(frame) for frame in frames[2:]]
        assert (loop.stats.failed, loop.stats.answered) == (2, 4)
        assert server.replica_states() == [(HEALTHY,), (HEALTHY,)]

    def test_one_fault_per_shard_costs_one_loop_attempt(self):
        """Three shards, one replica each, each faulting once: the first
        dispatch takes all three faults, so the default loop answers
        every query on its second attempt."""
        table = _table()
        server = ShardedPirServer(
            table,
            shards=3,
            replicas=1,
            backend_factory=lambda s, r: FlakyBackend(
                BACKEND_FACTORIES["single_gpu"](), FaultPlan.nth(1)
            ),
            prf_name=PRF,
        )
        oracle = PirServer(
            table, backend=BACKEND_FACTORIES["single_gpu"](), prf_name=PRF
        )
        client = _client()
        frames = [client.query([i, 60 - i]).requests[0] for i in range(4)]

        async def run():
            loop = AsyncPirServer(server, max_batch=4)
            tasks = await _backlog(loop, frames, queries=4)
            async with loop:
                pass
            return loop, await asyncio.wait_for(asyncio.gather(*tasks), timeout=30)

        loop, outcomes = asyncio.run(run())
        assert outcomes == [oracle.handle(frame) for frame in frames]
        assert (loop.stats.failed, loop.stats.answered) == (0, 8)
        assert server.stats_totals().retries == 3


class TestEpochUpdates:
    def test_stepwise_publish_serves_old_epoch_throughout(self):
        table = _table()
        new_table = _table(seed=9)
        servers = _pair(table, shards=3, replicas=1)
        client = _client()
        pinned = client.query([3, 58])  # pinned to epoch 0 pre-flip
        for server in servers:
            assert server.begin_update(new_table) == 1
            server.ingest_shard(0)
        # Mid-ingest: epoch 0 still answers bit-exact.
        assert np.array_equal(_reconstruct(client, pinned, servers), table[[3, 58]])
        for server in servers:
            server.ingest_shard(2)
            server.ingest_shard(1)
            assert server.flip() == 1
        # Post-flip: a query still pinned to epoch 0 answers from the
        # retained old table...
        late = client.query([3, 58])
        assert np.array_equal(_reconstruct(client, late, servers), table[[3, 58]])
        # ...and an epoch-1 client sees the new one.
        client.epoch = 1
        fresh = client.query([3, 58])
        assert np.array_equal(_reconstruct(client, fresh, servers), new_table[[3, 58]])

    def test_replica_kill_during_flip_stays_bit_exact(self):
        """A replica dies between ingest steps; both epochs keep
        answering correctly through ejection and failover."""
        killable = []

        def factory(shard, replica):
            inner = BACKEND_FACTORIES["single_gpu"]()
            if shard == 1 and replica == 0:
                wrapped = FlakyBackend(inner, FaultPlan())  # armed below
                killable.append(wrapped)
                return wrapped
            return inner

        table = _table()
        new_table = _table(seed=9)
        servers = _pair(table, factory, shards=2, replicas=2)
        client = _client()
        warm = client.query([10, 40])
        assert np.array_equal(_reconstruct(client, warm, servers), table[[10, 40]])
        for server in servers:
            server.begin_update(new_table)
            server.ingest_shard(0)
        # Kill the replica mid-update: dead from its next run onward.
        for wrapped in killable:
            wrapped.fault_plan = FaultPlan.after(1)
        mid = client.query([10, 40])
        assert np.array_equal(_reconstruct(client, mid, servers), table[[10, 40]])
        for server in servers:
            server.ingest_shard(1)
            server.flip()
        client.epoch = 1
        post = client.query([10, 40])
        assert np.array_equal(_reconstruct(client, post, servers), new_table[[10, 40]])
        for server in servers:
            assert EJECTED in server.replica_states()[1]
            assert server.stats_totals().failovers >= 1

    def test_retired_epoch_raises_typed_error(self):
        table = _table()
        server = ShardedPirServer(
            table, shards=2, replicas=1, prf_name=PRF, retain_epochs=2
        )
        client = _client()
        stale = client.query([1])
        server.publish(_table(seed=2))  # epoch 1; epoch 0 retained
        assert server.handle(stale.requests[0])  # still answerable
        server.publish(_table(seed=3))  # epoch 2; epoch 0 retired
        with pytest.raises(EpochRetired) as excinfo:
            server.handle(stale.requests[0])
        assert excinfo.value.epoch == 0
        assert excinfo.value.retained == (1, 2)
        assert isinstance(excinfo.value, ValueError)

    def test_staged_and_future_epochs_rejected(self):
        table = _table()
        server = ShardedPirServer(table, shards=2, replicas=1, prf_name=PRF)
        early = _client(epoch=1).query([0])
        with pytest.raises(ValueError, match="never been published"):
            server.handle(early.requests[0])
        server.begin_update(_table(seed=2))
        with pytest.raises(ValueError, match="still ingesting"):
            server.handle(early.requests[0])

    def test_flip_refuses_partial_ingest(self):
        server = ShardedPirServer(_table(), shards=3, replicas=1, prf_name=PRF)
        server.begin_update(_table(seed=2))
        server.ingest_shard(0)
        with pytest.raises(ValueError, match="have not ingested"):
            server.flip()

    def test_update_must_keep_table_size(self):
        server = ShardedPirServer(_table(), shards=2, replicas=1, prf_name=PRF)
        with pytest.raises(ValueError, match="table size"):
            server.begin_update(np.zeros(DOMAIN + 1, dtype=np.uint64))

    def test_one_update_in_flight_at_a_time(self):
        server = ShardedPirServer(_table(), shards=2, replicas=1, prf_name=PRF)
        server.begin_update(_table(seed=2))
        with pytest.raises(ValueError, match="already staged"):
            server.begin_update(_table(seed=3))

    def test_registry_state_machine(self):
        registry = EpochRegistry(retain=2)
        assert registry.retained == (0,)
        assert registry.begin() == 1
        with pytest.raises(ValueError, match="already staged"):
            registry.begin()
        registry.check(0)
        with pytest.raises(ValueError, match="still ingesting"):
            registry.check(1)
        assert registry.flip() == (1, [])
        assert registry.retained == (0, 1)
        registry.begin()
        assert registry.flip() == (2, [0])
        with pytest.raises(EpochRetired):
            registry.check(0)
        with pytest.raises(ValueError, match="no epoch is staged"):
            registry.flip()


class TestAsyncIntegration:
    """The sharded server under the aggregation loop: fused batches fan
    out across shards, chaos included, replies bit-exact."""

    def _oracle(self, table, epoch=0):
        oracle = PirServer(
            table, backend=BACKEND_FACTORIES["single_gpu"](), prf_name=PRF
        )
        oracle.epoch = epoch
        return oracle

    def test_loop_over_sharded_server_is_bit_exact_through_kill(self):
        def factory(shard, replica):
            inner = BACKEND_FACTORIES["single_gpu"]()
            if replica == 0:
                # Every shard's replica 0 dies permanently mid-session
                # (run 2): fused batches in flight must fail over.
                return FlakyBackend(inner, FaultPlan.after(2))
            return inner

        table = _table()
        server = ShardedPirServer(
            table, shards=2, replicas=2, backend_factory=factory, prf_name=PRF
        )
        client = _client()
        frames = [client.query([i, (i * 7) % DOMAIN]).requests[0] for i in range(8)]

        async def run():
            loop = AsyncPirServer(server, max_batch=4)
            tasks = await _backlog(loop, frames, queries=16)
            async with loop:
                pass  # drain-on-stop flushes the whole backlog
            return await asyncio.gather(*tasks)

        replies = asyncio.run(run())
        oracle = self._oracle(table)
        assert replies == [oracle.handle(frame) for frame in frames]
        assert server.stats_totals().ejections >= 1
        assert server.stats_totals().failovers >= 1

    def test_loop_splits_batches_at_epoch_boundaries(self):
        """Queries pinned to different epochs never fuse; each answers
        from its own table version, bit-exact."""
        table = _table()
        new_table = _table(seed=9)
        server = ShardedPirServer(table, shards=2, replicas=1, prf_name=PRF)
        client = _client()
        old_batches = [client.query([i]) for i in range(3)]
        server.publish(new_table)
        client.epoch = 1
        new_batches = [client.query([i]) for i in range(3)]
        frames = [b.requests[0] for b in old_batches + new_batches]

        async def run():
            loop = AsyncPirServer(server, max_batch=64)
            tasks = await _backlog(loop, frames, queries=6)
            async with loop:
                pass
            return loop, await asyncio.gather(*tasks)

        loop, replies = asyncio.run(run())
        # Mixed epochs force at least two fused batches even though all
        # six queries fit one max_batch.
        assert loop.stats.batches >= 2
        for batch, reply in zip(old_batches + new_batches, replies):
            assert PirReply.from_bytes(reply).epoch == batch.epoch
        old_oracle = self._oracle(table)
        new_oracle = self._oracle(new_table, epoch=1)
        for batch, reply in zip(old_batches, replies[:3]):
            assert reply == old_oracle.handle(batch.requests[0])
        for batch, reply in zip(new_batches, replies[3:]):
            assert reply == new_oracle.handle(batch.requests[0])

    def test_all_replicas_down_fails_typed_not_hung(self):
        """Every query ends with the backend's own typed fault after
        its attempts, and the drain terminates."""
        def dead(shard, replica):
            return FlakyBackend(BACKEND_FACTORIES["single_gpu"](), FaultPlan.after(1))

        table = _table()
        server = ShardedPirServer(
            table, shards=2, replicas=1, backend_factory=dead, prf_name=PRF
        )
        client = _client()
        frames = [client.query([i]).requests[0] for i in range(3)]

        async def run():
            loop = AsyncPirServer(server, max_batch=3, max_attempts=2)
            tasks = await _backlog(loop, frames, queries=3)
            async with loop:
                pass
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(run())
        assert len(outcomes) == 3
        assert all(isinstance(o, BackendFault) for o in outcomes)
        assert server.replica_states() == [(HEALTHY,), (HEALTHY,)]


class TestServerSurface:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="replicas"):
            ShardedPirServer(_table(), shards=2, replicas=0)
        with pytest.raises(ValueError, match="shards"):
            ShardedPirServer(_table(domain=4), shards=5)
        with pytest.raises(ValueError, match="non-empty"):
            ShardedPirServer(np.zeros(0, dtype=np.uint64))

    def test_epoch_table_oracle_hook(self):
        table = _table()
        server = ShardedPirServer(table, shards=2, replicas=1, prf_name=PRF)
        new_table = _table(seed=4)
        server.publish(new_table)
        assert np.array_equal(server.epoch_table(0), table)
        assert np.array_equal(server.epoch_table(1), new_table)
        assert server.epoch == 1

    def test_answer_shares_goes_through_the_shards(self):
        """The unframed entry point dispatches like ``handle``: across
        the shards, with failover — not on the inherited backend, which
        is shard 0's replica 0."""
        flaky = FlakyBackend(BACKEND_FACTORIES["single_gpu"](), FaultPlan.nth(1))
        server = ShardedPirServer(
            _table(),
            shards=2,
            replicas=2,
            backend_factory=lambda s, r: (
                flaky if (s, r) == (0, 0) else BACKEND_FACTORIES["single_gpu"]()
            ),
            prf_name=PRF,
        )
        frame = _client().query([4, 19, 44]).requests[0]
        shares = server.answer_shares(PirQuery.from_bytes(frame).key_bytes)
        assert server.replica_states()[0][0] == EJECTED
        assert np.array_equal(shares, PirReply.from_bytes(server.handle(frame)).answers)

    def test_replica_set_without_an_epoch_fails_typed(self):
        """A set nobody installed a slice on answers with the KeyError
        its docstring promises (it used to be an AttributeError, from a
        table map created lazily by the first ``install_epoch``)."""
        replicas = ReplicaSet(0, 0, DOMAIN, [BACKEND_FACTORIES["single_gpu"]()])
        replicas.drop_epoch(0)  # nothing installed: a no-op, not a crash
        request = PirServer(_table(), prf_name=PRF).parse_query(
            _client().query([1]).requests[0]
        )[1]
        with pytest.raises(KeyError):
            replicas.answer(request, epoch=0)

"""The multi-process worker-pool backend.

Claims: ``MultiProcessBackend.run`` is bit-identical to
``SingleGpuBackend`` for every ingest form, residency mode, and eval
range — row-splitting over workers never changes an answer;
``run_combined`` against installed table slices is bit-identical to
``answers @ slice`` in one process, across partial installs and epoch
flips; worker crashes and worker exceptions surface as the typed
:class:`WorkerFailure` without poisoning later dispatches; and the
pool fronts a sharded, replicated, chaos-injected server with zero
wrong answers.
"""

import numpy as np
import pytest

from repro.crypto import get_prf
from repro.dpf import eval_full, gen, pack_keys
from repro.exec import (
    EvalRequest,
    MultiProcessBackend,
    SingleGpuBackend,
    WorkerFailure,
)
from repro.gpu import KeyArena
from repro.pir.server import PirServer
from repro.pir.wire import PirQuery, PirReply
from repro.serve.chaos import FaultPlan, FlakyBackend
from repro.serve.shard import ShardedPirServer

PRF_NAME = "chacha20"
DOMAIN = 200


def _make_keys(batch, domain=DOMAIN, seed=11):
    prf = get_prf(PRF_NAME)
    rng = np.random.default_rng(seed)
    keys = []
    for i in range(batch):
        k0, k1 = gen(int(rng.integers(0, domain)), domain, prf, rng, beta=i + 1)
        keys.append(k0 if i % 2 else k1)
    return keys, prf


def _request(keys, resident=False, eval_range=None):
    return EvalRequest(
        keys=keys,
        prf_name=PRF_NAME,
        entry_bytes=8,
        resident=resident,
        eval_range=eval_range,
    )


@pytest.fixture(scope="module")
def pool():
    with MultiProcessBackend(workers=3) as backend:
        yield backend


@pytest.fixture(scope="module")
def reference():
    keys, prf = _make_keys(5)
    return keys, np.stack([eval_full(k, prf) for k in keys])


class TestRunBitIdentity:
    @pytest.mark.parametrize("source_form", ["objects", "arena", "wire"])
    def test_matches_single_process(self, pool, reference, source_form):
        keys, expected = reference
        if source_form == "objects":
            source = keys
        elif source_form == "arena":
            source = KeyArena.from_keys(keys)
        else:
            source = pack_keys(keys)
        result = pool.run(_request(source))
        np.testing.assert_array_equal(result.answers, expected)
        np.testing.assert_array_equal(
            result.answers, SingleGpuBackend().run(_request(keys)).answers
        )

    @pytest.mark.parametrize("batch", [1, 2, 3, 7])
    def test_any_batch_to_worker_ratio(self, pool, batch):
        # Fewer keys than workers, equal, and more: the row split must
        # stay exact in every shape.
        keys, prf = _make_keys(batch, seed=batch)
        expected = np.stack([eval_full(k, prf) for k in keys])
        np.testing.assert_array_equal(pool.run(_request(keys)).answers, expected)

    def test_resident_mode_matches(self, pool, reference):
        keys, expected = reference
        result = pool.run(_request(keys, resident=True))
        np.testing.assert_array_equal(result.answers, expected)

    def test_eval_range_matches_reference_columns(self, pool, reference):
        keys, expected = reference
        result = pool.run(_request(keys).restrict(50, 150))
        assert result.answers.shape == (5, 100)
        np.testing.assert_array_equal(result.answers, expected[:, 50:150])

    def test_a_reducer_runs_once_on_the_parent_side(self, pool, reference):
        # A callable cannot cross the pipe: the workers return their
        # share matrices and the reducer sees the whole range once.
        keys, expected = reference
        table = np.arange(1, DOMAIN + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        windows = []

        def reduce(shares, lo, hi):
            windows.append((shares.shape, lo, hi))
            return shares @ table[lo:hi]

        request = EvalRequest(keys=keys, prf_name=PRF_NAME, reduce=reduce).restrict(50, 150)
        result = pool.run(request)
        np.testing.assert_array_equal(result.answers, expected[:, 50:150] @ table[50:150])
        assert windows == [((5, 100), 50, 150)]

    def test_workers_accumulate_cache_hits(self, pool, reference):
        keys, _ = reference
        before = pool.worker_cache_stats()
        pool.run(_request(keys))
        pool.run(_request(keys))
        after = pool.worker_cache_stats()
        assert all(b[0] >= a[0] for a, b in zip(before, after))
        assert sum(b[0] for b in after) > sum(a[0] for a in before)

    def test_plan_prices_the_pool_as_a_fleet(self, pool, reference):
        keys, _ = reference
        plan = pool.plan(_request(keys))
        assert plan.backend == "multi_process"
        assert pool.model_latency_s(5, DOMAIN, prf_name=PRF_NAME) > 0.0


class TestCombinedFastPath:
    def test_full_table_partial_equals_dot(self, reference):
        keys, expected = reference
        rng = np.random.default_rng(3)
        table = rng.integers(0, 2**63, size=DOMAIN, dtype=np.uint64)
        with MultiProcessBackend(workers=3) as pool:
            pool.install_table(0, 0, table)
            partial = pool.run_combined(_request(keys), 0)
            np.testing.assert_array_equal(partial, expected @ table)

    def test_range_install_partial_equals_slice_dot(self, reference):
        keys, expected = reference
        rng = np.random.default_rng(4)
        table = rng.integers(0, 2**63, size=DOMAIN, dtype=np.uint64)
        with MultiProcessBackend(workers=2) as pool:
            pool.install_table(1, 50, table[50:150])
            restricted = _request(keys).restrict(50, 150)
            partial = pool.run_combined(restricted, 1)
            np.testing.assert_array_equal(partial, expected[:, 50:150] @ table[50:150])

    def test_epoch_flip_answers_each_version(self, reference):
        keys, expected = reference
        rng = np.random.default_rng(5)
        old = rng.integers(0, 2**63, size=DOMAIN, dtype=np.uint64)
        new = rng.integers(0, 2**63, size=DOMAIN, dtype=np.uint64)
        with MultiProcessBackend(workers=2) as pool:
            pool.install_table(0, 0, old)
            pool.install_table(1, 0, new)
            request = _request(keys)
            np.testing.assert_array_equal(pool.run_combined(request, 0), expected @ old)
            np.testing.assert_array_equal(pool.run_combined(request, 1), expected @ new)
            pool.drop_table(0)
            with pytest.raises(KeyError):
                pool.run_combined(request, 0)
            np.testing.assert_array_equal(pool.run_combined(request, 1), expected @ new)

    def test_unknown_epoch_and_range_mismatch_fail_typed(self, reference):
        keys, _ = reference
        rng = np.random.default_rng(6)
        table = rng.integers(0, 2**63, size=DOMAIN, dtype=np.uint64)
        with MultiProcessBackend(workers=2) as pool:
            with pytest.raises(KeyError):
                pool.run_combined(_request(keys), 7)
            pool.install_table(0, 50, table[50:150])
            with pytest.raises(ValueError):
                # Unrestricted request covers [0, DOMAIN), not [50, 150).
                pool.run_combined(_request(keys), 0)


class TestLifecycle:
    def test_lazy_start_and_close(self, reference):
        keys, expected = reference
        pool = MultiProcessBackend(workers=2)
        assert not pool.started
        np.testing.assert_array_equal(pool.run(_request(keys)).answers, expected)
        assert pool.started
        pool.close()
        pool.close()  # idempotent
        assert not pool.started
        with pytest.raises(RuntimeError):
            pool.run(_request(keys))

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            MultiProcessBackend(workers=0)

    def test_crashed_worker_raises_typed_and_spares_siblings(self, reference):
        keys, expected = reference
        pool = MultiProcessBackend(workers=3)
        try:
            pool.start()
            pool._procs[1].terminate()
            pool._procs[1].join(timeout=5.0)
            with pytest.raises(WorkerFailure):
                pool.run(_request(keys))
            # The surviving workers' pipes stayed aligned: a dispatch
            # that avoids the dead worker (batch of 1 rows onto worker
            # 0) still answers bit-exactly.
            np.testing.assert_array_equal(
                pool.run(_request(keys[:1])).answers, expected[:1]
            )
        finally:
            pool.close()

    def test_worker_exception_serializes_not_kills(self, reference):
        keys, expected = reference
        with MultiProcessBackend(workers=1) as pool:
            pool.start()
            # Drive a worker-side failure through the op protocol: an
            # unknown op serializes back as an error reply.
            with pytest.raises(WorkerFailure):
                pool._dispatch([(0, ("bogus",))])
            # The worker survived and still answers correctly.
            np.testing.assert_array_equal(pool.run(_request(keys)).answers, expected)


class TestShardedServing:
    """The pool fronted unchanged by ReplicaSet / ShardedPirServer."""

    @pytest.fixture()
    def table(self):
        rng = np.random.default_rng(8)
        return rng.integers(0, 2**63, size=DOMAIN, dtype=np.uint64)

    def _oracle(self, table, request_bytes):
        return PirServer(table, prf_name=PRF_NAME).handle(request_bytes)

    def _query(self, keys, request_id=1, epoch=0):
        return PirQuery(
            request_id=request_id,
            count=len(keys),
            key_bytes=pack_keys(keys),
            epoch=epoch,
        ).to_bytes()

    def test_bit_identical_to_unsharded(self, table):
        keys, _ = _make_keys(5, seed=21)
        pools = []

        def factory(shard, replica):
            pool = MultiProcessBackend(workers=2)
            pools.append(pool)
            return pool

        try:
            server = ShardedPirServer(
                table, shards=2, replicas=1, backend_factory=factory,
                prf_name=PRF_NAME,
            )
            request_bytes = self._query(keys)
            assert server.handle(request_bytes) == self._oracle(table, request_bytes)
        finally:
            for pool in pools:
                pool.close()

    def test_epoch_flip_serves_both_pinned_versions(self, table):
        keys, _ = _make_keys(4, seed=22)
        rng = np.random.default_rng(9)
        new_table = rng.integers(0, 2**63, size=DOMAIN, dtype=np.uint64)
        pools = []

        def factory(shard, replica):
            pool = MultiProcessBackend(workers=2)
            pools.append(pool)
            return pool

        try:
            server = ShardedPirServer(
                table, shards=2, replicas=1, backend_factory=factory,
                prf_name=PRF_NAME,
            )
            old_query = self._query(keys, request_id=1, epoch=0)
            server.publish(new_table)
            new_query = self._query(keys, request_id=2, epoch=1)
            # A query pinned pre-flip answers from the old table even
            # after the flip; a post-flip query answers from the new.
            assert server.handle(old_query) == self._oracle(table, old_query)
            old_answers = PirReply.from_bytes(server.handle(old_query)).answers
            new_answers = PirReply.from_bytes(server.handle(new_query)).answers
            prf = get_prf(PRF_NAME)
            shares = np.stack([eval_full(k, prf) for k in keys])
            np.testing.assert_array_equal(old_answers, shares @ table)
            np.testing.assert_array_equal(new_answers, shares @ new_table)
        finally:
            for pool in pools:
                pool.close()

    def test_replica_kill_fails_over_with_zero_wrong_answers(self, table):
        keys, _ = _make_keys(6, seed=23)
        pools = []

        def factory(shard, replica):
            pool = MultiProcessBackend(workers=2)
            pools.append(pool)
            if shard == 0 and replica == 0:
                # This replica dies permanently from its 2nd dispatch.
                return FlakyBackend(pool, FaultPlan.after(2))
            return pool

        try:
            server = ShardedPirServer(
                table, shards=2, replicas=2, backend_factory=factory,
                prf_name=PRF_NAME, rejoin_after=None,
            )
            for request_id in range(1, 7):
                request_bytes = self._query(keys, request_id=request_id)
                got = PirReply.from_bytes(server.handle(request_bytes)).answers
                expected = PirReply.from_bytes(
                    self._oracle(table, request_bytes)
                ).answers
                np.testing.assert_array_equal(got, expected)
            assert server.stats_totals().ejections >= 1
            assert server.stats_totals().failovers >= 1
        finally:
            for pool in pools:
                pool.close()

"""One dispatch path per replica, on the ``ExecutionBackend`` contract alone.

Claims: a :class:`ReplicaSet` evaluates every attempt through
``PlanCache.run`` when the set has a cache and through ``backend.run``
when it has none — nothing else is ever asked of a backend, so a backend
that implements only the abstract ``plan`` / ``run`` serves a sharded
server byte-identically to the unsharded one; installing and dropping an
epoch's slice is bookkeeping on the set and never reaches a backend; the
partial a replica returns is ``shares[:, lo:hi] @ table[lo:hi]`` for
every key ingest form and batch shape; and :class:`FlakyBackend`
forwards the contract and nothing else.
"""

import numpy as np
import pytest

from repro.crypto import get_prf
from repro.dpf import eval_full, gen, pack_keys
from repro.exec import (
    EvalRequest,
    ExecutionBackend,
    PlanCache,
    SingleGpuBackend,
)
from repro.gpu import KeyArena
from repro.pir import PirClient, PirServer
from repro.serve import ReplicaSet, ShardedPirServer

from tests.strategies import BACKEND_FACTORIES, BackendFault, FaultPlan, FlakyBackend

PRF = "siphash"
DOMAIN = 61
LO, HI = 13, 47


def _table(seed=0):
    return np.random.default_rng(seed).integers(
        0, 1 << 64, size=DOMAIN, dtype=np.uint64
    )


def _keys(batch, seed=5):
    prf = get_prf(PRF)
    rng = np.random.default_rng(seed)
    keys = []
    for i in range(batch):
        k0, k1 = gen(int(rng.integers(0, DOMAIN)), DOMAIN, prf, rng, beta=i + 1)
        keys.append(k0 if i % 2 else k1)
    return keys, np.stack([eval_full(k, prf) for k in keys])


def _request(source):
    return EvalRequest(keys=source, prf_name=PRF)


class _Recording(ExecutionBackend):
    """Delegates the contract to an inner backend and logs every call.

    Defines nothing beyond ``ExecutionBackend``: any extra method a
    caller probed for would raise ``AttributeError`` here.
    """

    name = "recording"

    def __init__(self, inner=None):
        self.inner = inner if inner is not None else SingleGpuBackend()
        self.calls: list[str] = []

    def plan(self, request):
        self.calls.append("plan")
        return self.inner.plan(request)

    def run(self, request):
        self.calls.append("run")
        return self.inner.run(request)


class _ContractOnly(ExecutionBackend):
    """The two abstract methods and nothing else."""

    name = "contract_only"

    def __init__(self):
        self._inner = SingleGpuBackend()

    def plan(self, request):
        return self._inner.plan(request)

    def run(self, request):
        return self._inner.run(request)


def _set(backends, plan_cache=None, epoch=0, table=None):
    table = _table() if table is None else table
    replicas = ReplicaSet(0, LO, HI, backends, plan_cache=plan_cache)
    replicas.install_epoch(epoch, table[LO:HI])
    return replicas, table


class TestOneDispatchPath:
    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    def test_partial_is_the_restricted_dot(self, backend_name, cached):
        keys, shares = _keys(4)
        cache = PlanCache() if cached else None
        replicas, table = _set([BACKEND_FACTORIES[backend_name]()], cache)
        for _ in range(2):
            partial = replicas.answer(_request(keys), 0)
            np.testing.assert_array_equal(partial, shares[:, LO:HI] @ table[LO:HI])
        if cached:
            assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_without_a_cache_every_attempt_is_one_run(self):
        keys, _ = _keys(3)
        backend = _Recording()
        replicas, _ = _set([backend])
        for _ in range(3):
            replicas.answer(_request(keys), 0)
        assert backend.calls == ["run"] * 3

    def test_with_a_cache_every_attempt_is_one_cached_run(self):
        keys, _ = _keys(3)
        backend = _Recording()
        cache = PlanCache()
        replicas, _ = _set([backend], cache)
        for _ in range(3):
            replicas.answer(_request(keys), 0)
        # Priced once on the miss; every attempt, hit or miss, is a run.
        assert backend.calls == ["plan"] + ["run"] * 3
        assert (cache.stats.misses, cache.stats.hits) == (1, 2)

    @pytest.mark.parametrize("source_form", ["objects", "arena", "wire"])
    def test_every_ingest_form_gives_the_same_partial(self, source_form):
        keys, shares = _keys(5)
        source = {
            "objects": keys,
            "arena": KeyArena.from_keys(keys),
            "wire": pack_keys(keys),
        }[source_form]
        replicas, table = _set([SingleGpuBackend()])
        np.testing.assert_array_equal(
            replicas.answer(_request(source), 0), shares[:, LO:HI] @ table[LO:HI]
        )

    @pytest.mark.parametrize("batch", [1, 2, 3, 7])
    def test_any_batch_shape(self, batch):
        keys, shares = _keys(batch, seed=batch)
        replicas, table = _set([SingleGpuBackend()], PlanCache())
        np.testing.assert_array_equal(
            replicas.answer(_request(keys), 0), shares[:, LO:HI] @ table[LO:HI]
        )

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_a_contract_only_backend_serves_sharded(self, shards):
        table = _table(1)
        plain = PirServer(table, prf_name=PRF)
        sharded = ShardedPirServer(
            table,
            shards=shards,
            replicas=2,
            backend_factory=lambda shard, replica: _ContractOnly(),
            prf_name=PRF,
            plan_cache=PlanCache(),
        )
        batch = PirClient(DOMAIN, PRF, rng=np.random.default_rng(2)).query(
            [0, 30, 60, 30]
        )
        for frame in batch.requests:
            assert sharded.handle(frame) == plain.handle(frame)


class TestEpochSlices:
    def test_install_and_drop_never_reach_a_backend(self):
        backends = [_Recording(), _Recording()]
        replicas, table = _set(backends)
        replicas.install_epoch(1, table[LO:HI].copy())
        replicas.drop_epoch(0)
        replicas.drop_epoch(1)
        assert [b.calls for b in backends] == [[], []]

    def test_each_epoch_answers_from_its_own_slice(self):
        keys, shares = _keys(4)
        old, new = _table(3), _table(4)
        replicas, _ = _set([SingleGpuBackend()], PlanCache(), table=old)
        replicas.install_epoch(1, new[LO:HI])
        window = shares[:, LO:HI]
        np.testing.assert_array_equal(replicas.answer(_request(keys), 0), window @ old[LO:HI])
        np.testing.assert_array_equal(replicas.answer(_request(keys), 1), window @ new[LO:HI])
        replicas.drop_epoch(0)
        with pytest.raises(KeyError):
            replicas.answer(_request(keys), 0)
        np.testing.assert_array_equal(replicas.answer(_request(keys), 1), window @ new[LO:HI])

    def test_dropping_an_unknown_epoch_is_a_no_op(self):
        keys, shares = _keys(2)
        replicas, table = _set([SingleGpuBackend()])
        replicas.drop_epoch(9)
        np.testing.assert_array_equal(
            replicas.answer(_request(keys), 0), shares[:, LO:HI] @ table[LO:HI]
        )

    def test_a_slice_of_the_wrong_size_is_refused(self):
        replicas, table = _set([SingleGpuBackend()])
        with pytest.raises(ValueError, match="serves 34 rows"):
            replicas.install_epoch(1, table[LO : HI + 1])

    def test_the_installed_slice_is_not_copied(self):
        replicas, table = _set([SingleGpuBackend()])
        assert np.shares_memory(replicas._tables[0], table)


class TestFlakyBackendSurface:
    def test_forwards_no_attribute_beyond_the_contract(self):
        assert "__getattr__" not in vars(FlakyBackend)
        flaky = FlakyBackend(SingleGpuBackend(), FaultPlan.after(1))
        for name in (
            "install_table", "drop_table", "run_combined", "_scheduler",
            "device", "devices", "model_latency_s",
        ):
            assert not hasattr(flaky, name)

    def test_pricing_never_faults(self):
        keys, _ = _keys(2)
        inner = SingleGpuBackend()
        flaky = FlakyBackend(inner, FaultPlan.after(1))
        assert flaky.plan(_request(keys)) == inner.plan(_request(keys))
        with pytest.raises(BackendFault):
            flaky.run(_request(keys))
        assert (flaky.runs, flaky.faults) == (1, 1)

    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
    def test_healthy_runs_are_the_wrapped_backends(self, backend_name):
        """Until its fault fires, the wrapper is invisible: it plans,
        prices and answers exactly as the backend it wraps."""
        keys, shares = _keys(3)
        inner = BACKEND_FACTORIES[backend_name]()
        flaky = FlakyBackend(BACKEND_FACTORIES[backend_name](), FaultPlan.nth(2))
        assert flaky.plan(_request(keys)) == inner.plan(_request(keys))
        np.testing.assert_array_equal(flaky.run(_request(keys)), shares)
        with pytest.raises(BackendFault):
            flaky.run(_request(keys))
        assert (flaky.runs, flaky.faults) == (2, 1)

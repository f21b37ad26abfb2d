"""The unified execution layer: one request API, two backends.

Claims: every backend's ``run`` is bit-identical to the reference
evaluator for every accepted key-source form (objects, arena, wire
bytes) in both streaming and resident modes; ``plan`` exposes one
device's scheduler decision in the same shape regardless of backend;
and the request normalizes/ingests key material exactly once.
"""

import numpy as np
import pytest

from repro.crypto import get_prf
from repro.crypto.prf import CountingPrf
from repro.dpf import eval_full, gen, pack_keys
from repro.exec import (
    EvalRequest,
    ExecutionBackend,
    PlanCache,
    SimulatedBackend,
    SingleGpuBackend,
)
from repro.gpu import KeyArena, get_strategy

from tests.strategies import BACKEND_FACTORIES

PRF_NAME = "chacha20"
DOMAIN = 200
BATCH = 5


def _make_keys(batch=BATCH, domain=DOMAIN, seed=5):
    prf = get_prf(PRF_NAME)
    rng = np.random.default_rng(seed)
    keys = []
    for i in range(batch):
        k0, k1 = gen(int(rng.integers(0, domain)), domain, prf, rng, beta=i + 1)
        keys.append(k0 if i % 2 else k1)
    return keys, prf


@pytest.fixture(scope="module")
def reference():
    keys, prf = _make_keys()
    return keys, prf, np.stack([eval_full(k, prf) for k in keys])


@pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
class TestRunBitIdentity:
    @pytest.mark.parametrize("source_form", ["objects", "arena", "wire"])
    @pytest.mark.parametrize("resident", [False, True])
    def test_run_matches_reference(self, backend_name, source_form, resident, reference):
        keys, prf, expected = reference
        if source_form == "objects":
            source = keys
        elif source_form == "arena":
            source = KeyArena.from_keys(keys)
        else:
            source = pack_keys(keys)
        backend = BACKEND_FACTORIES[backend_name]()
        result = backend.run(
            EvalRequest(keys=source, prf_name=prf.name, resident=resident)
        )
        assert np.array_equal(result.answers, expected)
        assert result.batch_size == BATCH
        assert result.plan.backend == backend_name
        assert result.plan.resident is resident

    def test_repeated_runs_reuse_backend_state(self, backend_name, reference):
        """A serving loop over one backend stays bit-identical (the
        persistent workspace/scheduler caches must not leak state)."""
        keys, prf, expected = reference
        backend = BACKEND_FACTORIES[backend_name]()
        for _ in range(3):
            result = backend.run(EvalRequest(keys=keys, prf_name=prf.name))
            assert np.array_equal(result.answers, expected)


@pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
class TestPlan:
    def test_plan_shape_is_uniform_across_backends(self, backend_name, reference):
        keys, prf, _ = reference
        plan = BACKEND_FACTORIES[backend_name]().plan(
            EvalRequest(keys=keys, prf_name=prf.name)
        )
        assert plan.backend == backend_name
        assert plan.batch_size == BATCH
        assert plan.table_entries == DOMAIN
        assert plan.latency_s > 0
        assert plan.throughput_qps > 0
        assert plan.strategies == (plan.selection.strategy,)

    def test_resident_plans_amortize_the_key_upload(self, backend_name, reference):
        keys, prf, _ = reference
        backend = BACKEND_FACTORIES[backend_name]()
        resident = backend.plan(
            EvalRequest(keys=keys, prf_name=prf.name, resident=True)
        )
        assert resident.selection.plan.host_bytes_in == 0
        assert resident.selection.plan.resident_bytes > 0
        streaming = backend.plan(EvalRequest(keys=keys, prf_name=prf.name))
        assert resident.throughput_qps > streaming.throughput_qps

    def test_meets_slo(self, backend_name, reference):
        keys, prf, _ = reference
        plan = BACKEND_FACTORIES[backend_name]().plan(
            EvalRequest(keys=keys, prf_name=prf.name)
        )
        assert plan.meets_slo(None)
        assert plan.meets_slo(plan.latency_s * 2)
        assert not plan.meets_slo(plan.latency_s / 2)


@pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
class TestRangeRestriction:
    """`eval_range` through the request layer: a restricted run returns
    exactly the reference's column slice — the shard evaluation path."""

    @pytest.mark.parametrize("lo,hi", [(0, 67), (37, 151), (199, 200)])
    def test_restricted_run_matches_reference_columns(
        self, backend_name, lo, hi, reference
    ):
        keys, prf, expected = reference
        request = EvalRequest(keys=keys, prf_name=prf.name).restrict(lo, hi)
        result = BACKEND_FACTORIES[backend_name]().run(request)
        assert result.answers.shape == (BATCH, hi - lo)
        assert np.array_equal(result.answers, expected[:, lo:hi])

    @pytest.mark.parametrize("lo,hi", [(0, 67), (37, 151), (199, 200)])
    def test_restricted_run_through_the_plan_cache(
        self, backend_name, lo, hi, reference
    ):
        """The serving path: a hit and a miss both run the pruned walk."""
        keys, prf, expected = reference
        backend = BACKEND_FACTORIES[backend_name]()
        cache = PlanCache()
        request = EvalRequest(keys=keys, prf_name=prf.name).restrict(lo, hi)
        for _ in range(2):
            result = cache.run(backend, request)
            assert np.array_equal(result.answers, expected[:, lo:hi])
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_full_range_restriction_is_identity(self, backend_name, reference):
        keys, prf, expected = reference
        request = EvalRequest(keys=keys, prf_name=prf.name).restrict(0, DOMAIN)
        result = BACKEND_FACTORIES[backend_name]().run(request)
        assert np.array_equal(result.answers, expected)

    def test_restrict_shares_the_ingested_arena(self, backend_name, reference):
        keys, prf, _ = reference
        request = EvalRequest(keys=keys, prf_name=prf.name)
        restricted = request.restrict(10, 20)
        assert restricted.arena() is request.arena()
        assert restricted.resolved_range() == (10, 20)
        assert request.resolved_range() == (0, DOMAIN)

    def test_invalid_ranges_rejected(self, backend_name, reference):
        keys, prf, _ = reference
        request = EvalRequest(keys=keys, prf_name=prf.name)
        for lo, hi in ((5, 5), (-1, 3), (0, DOMAIN + 1), (DOMAIN, DOMAIN)):
            with pytest.raises(ValueError, match="sub-range"):
                request.restrict(lo, hi)


class TestRestrictedWork:
    """A restricted run computes the pruned walk, not the full tree."""

    @staticmethod
    def _counted_run(backend, request, monkeypatch):
        counting = CountingPrf(get_prf(PRF_NAME))
        monkeypatch.setattr("repro.exec.backend.get_prf", lambda name: counting)
        backend.run(request)
        return counting.blocks

    @pytest.mark.parametrize("lo,hi", [(0, 67), (37, 151), (199, 200)])
    def test_single_gpu_runs_the_pruned_count(self, lo, hi, reference, monkeypatch):
        keys, prf, _ = reference
        request = EvalRequest(keys=keys, prf_name=prf.name)
        backend = SingleGpuBackend()
        full = self._counted_run(backend, request, monkeypatch)
        restricted = self._counted_run(backend, request.restrict(lo, hi), monkeypatch)
        strategy = get_strategy(backend.plan(request).selection.strategy)
        assert restricted == strategy.cost(BATCH, DOMAIN, (lo, hi)).prf_blocks
        assert restricted < full == strategy.cost(BATCH, DOMAIN).prf_blocks

    @pytest.mark.parametrize("lo,hi", [(0, 67), (37, 151), (199, 200)])
    def test_simulated_prunes_the_range_too(self, lo, hi, reference, monkeypatch):
        keys, prf, _ = reference
        request = EvalRequest(keys=keys, prf_name=prf.name)
        backend = SimulatedBackend()
        full = self._counted_run(backend, request, monkeypatch)
        assert self._counted_run(backend, request.restrict(lo, hi), monkeypatch) < full


class TestBatchSlices:
    """Arena slices of one batch, run one after another on one backend,
    answer like the whole batch: the slice is a view, and the backend's
    reused workspace leaks nothing between runs."""

    @pytest.mark.parametrize("lo,hi", [(0, DOMAIN), (37, 151), (199, 200)])
    def test_slices_run_like_the_whole_batch(self, lo, hi, reference):
        keys, prf, expected = reference
        arena = KeyArena.from_wire(pack_keys(keys))
        backend = SingleGpuBackend()
        parts = [
            backend.run(
                EvalRequest(keys=arena[a:z], prf_name=prf.name).restrict(lo, hi)
            ).answers
            for a, z in ((0, 2), (2, 3), (3, BATCH))
        ]
        assert np.array_equal(np.vstack(parts), expected[:, lo:hi])


class TestEvalRequest:
    def test_arena_is_ingested_once(self):
        keys, prf = _make_keys()
        request = EvalRequest(keys=pack_keys(keys), prf_name=prf.name)
        assert request.arena() is request.arena()

    def test_prf_mismatch_rejected_at_ingestion(self):
        keys, _ = _make_keys()
        request = EvalRequest(keys=keys, prf_name="aes128")
        with pytest.raises(ValueError, match="would not reconstruct"):
            SingleGpuBackend().run(request)

    def test_prf_defaults_to_the_keys_prf(self):
        keys, prf = _make_keys(batch=2, domain=32)
        request = EvalRequest(keys=keys)
        assert request.resolved_prf_name == prf.name
        expected = np.stack([eval_full(k, prf) for k in keys])
        assert np.array_equal(SingleGpuBackend().run(request).answers, expected)

    def test_empty_sources_rejected(self):
        for source in ([], b"", KeyArena.from_keys(_make_keys(batch=1)[0])[0:0]):
            with pytest.raises(ValueError):
                EvalRequest(keys=source).arena()

    def test_unsupported_source_type_rejected(self):
        with pytest.raises(TypeError, match="cannot ingest"):
            EvalRequest(keys=42).arena()
        # str is a Sequence, but never key material — it must hit the
        # same TypeError, not an AttributeError deep inside from_keys.
        with pytest.raises(TypeError, match="cannot ingest"):
            EvalRequest(keys="not-wire-bytes").arena()


class TestCustomStrategyPool:
    """A tuned candidate pool changes what is modeled, not what runs:
    the plan moves, the answers do not."""

    @pytest.mark.parametrize("backend_class", [SingleGpuBackend, SimulatedBackend])
    def test_a_tuned_pool_changes_only_the_plan(self, backend_class, reference):
        from repro.gpu import MemoryBoundedTree

        keys, prf, expected = reference
        request = EvalRequest(keys=keys, prf_name=prf.name)
        default = backend_class(strategies=[MemoryBoundedTree()])
        tuned = backend_class(strategies=[MemoryBoundedTree(log_subtrees=1)])
        plans = [backend.plan(request).selection for backend in (default, tuned)]
        assert [p.strategy for p in plans] == ["memory_bounded"] * 2
        assert plans[0].plan != plans[1].plan
        for backend in (default, tuned):
            assert np.array_equal(backend.run(request).answers, expected)


class TestProtocol:
    def test_backends_implement_the_abstract_protocol(self):
        for factory in BACKEND_FACTORIES.values():
            assert isinstance(factory(), ExecutionBackend)
        with pytest.raises(TypeError):
            ExecutionBackend()

    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
    def test_the_protocol_is_plan_run_run_with_plan_plan_key(self, backend_name):
        """A backend answers for requests and nothing else: no shape-
        pricing hook rides along for a serving policy to read."""
        backend = BACKEND_FACTORIES[backend_name]()
        methods = {
            name
            for name in dir(backend)
            if not name.startswith("_") and callable(getattr(backend, name))
        }
        assert methods == {"plan", "run", "run_with_plan"}
        assert hash(backend.plan_key) == hash(backend.plan_key)

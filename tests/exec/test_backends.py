"""The unified execution layer: one request API, the backend and its oracle.

Claims: every backend's ``run``, alone or through a plan cache, is
bit-identical to the reference evaluator for every accepted key-source
form (objects, arena, wire bytes) and returns the answers array itself;
``plan`` exposes one device's scheduler decision in the same shape
regardless of backend; the protocol is ``plan``, ``run`` and
``plan_key`` and nothing else; and the request normalizes/ingests key
material exactly once.
"""

import dataclasses

import numpy as np
import pytest

from repro.crypto import get_prf
from repro.crypto.prf import CountingPrf
from repro.dpf import eval_full, gen, pack_keys
from repro.exec import (
    EvalRequest,
    ExecutionBackend,
    ExecutionPlan,
    PlanCache,
    SingleGpuBackend,
)
from repro.gpu import V100, KeyArena, get_strategy

from tests.strategies import BACKEND_FACTORIES
from tests.strategies.backends import SimulatedBackend

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
    def test_run_matches_reference(self, backend_name, source_form, reference):
        keys, prf, expected = reference
        if source_form == "objects":
            source = keys
        elif source_form == "arena":
            source = KeyArena.from_keys(keys)
        else:
            source = pack_keys(keys)
        backend = BACKEND_FACTORIES[backend_name]()
        answers = backend.run(EvalRequest(keys=source, prf_name=prf.name))
        assert np.array_equal(answers, expected)

    @pytest.mark.parametrize("source_form", ["objects", "arena", "wire"])
    def test_run_with_plan_matches_reference(self, backend_name, source_form, reference):
        """The plan cache answers like ``run`` for every form, on a miss
        and on a hit: it looks a plan up, and the backend walks without
        it."""
        keys, prf, expected = reference
        source = {
            "objects": keys,
            "arena": KeyArena.from_keys(keys),
            "wire": pack_keys(keys),
        }[source_form]
        backend = BACKEND_FACTORIES[backend_name]()
        request = EvalRequest(keys=source, prf_name=prf.name)
        cache = PlanCache()
        for _ in range(2):
            assert np.array_equal(cache.run(backend, request), expected)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_repeated_runs_reuse_backend_state(self, backend_name, reference):
        """A serving loop over one backend stays bit-identical (the
        persistent workspace/scheduler caches must not leak state)."""
        keys, prf, expected = reference
        backend = BACKEND_FACTORIES[backend_name]()
        for _ in range(3):
            answers = backend.run(EvalRequest(keys=keys, prf_name=prf.name))
            assert np.array_equal(answers, expected)


@pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
class TestAnswersArray:
    """``run`` returns the answers themselves, not a wrapper around them."""

    def test_run_returns_the_share_matrix(self, backend_name, reference):
        keys, prf, _ = reference
        answers = BACKEND_FACTORIES[backend_name]().run(
            EvalRequest(keys=keys, prf_name=prf.name)
        )
        assert type(answers) is np.ndarray
        assert answers.dtype == np.uint64 and answers.shape == (BATCH, DOMAIN)

    def test_a_reduced_run_returns_the_answers(self, backend_name, reference):
        keys, prf, expected = reference
        table = np.random.default_rng(11).integers(
            0, 1 << 64, size=DOMAIN, dtype=np.uint64
        )
        request = EvalRequest(
            keys=keys, prf_name=prf.name, reduce=lambda s, lo, hi: s @ table[lo:hi]
        )
        answers = BACKEND_FACTORIES[backend_name]().run(request)
        assert type(answers) is np.ndarray
        assert answers.dtype == np.uint64 and answers.shape == (BATCH,)
        assert np.array_equal(answers, expected @ table)


@pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
class TestPlan:
    def test_plan_shape_is_uniform_across_backends(self, backend_name, reference):
        keys, prf, _ = reference
        plan = BACKEND_FACTORIES[backend_name]().plan(
            EvalRequest(keys=keys, prf_name=prf.name)
        )
        assert plan.backend == backend_name
        assert plan.selection.plan.batch_size == BATCH
        assert plan.selection.plan.table_entries == DOMAIN
        assert plan.selection.stats.latency_s > 0
        assert plan.selection.stats.throughput_qps > 0
        assert plan.strategies == (plan.selection.strategy,)

    def test_instances_share_a_plan_cache_entry(self, backend_name, reference):
        """Every instance of a pool entry prices alike, so a second one
        hits the first one's cached plan."""
        keys, prf, expected = reference
        first, second = (BACKEND_FACTORIES[backend_name]() for _ in range(2))
        assert first.plan_key == second.plan_key
        cache = PlanCache()
        request = EvalRequest(keys=keys, prf_name=prf.name)
        for backend in (first, second):
            assert np.array_equal(cache.run(backend, request), expected)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)


def test_a_plan_is_a_backend_name_and_a_selection():
    """The per-plan copies of the selection's numbers are gone: a plan's
    batch, table, latency and rate are read through ``selection``."""
    assert [f.name for f in dataclasses.fields(ExecutionPlan)] == [
        "backend",
        "selection",
    ]
    for name in ("batch_size", "table_entries", "latency_s", "throughput_qps"):
        assert not hasattr(ExecutionPlan, name)


class TestPool:
    """Each shared pool entry plans what its name says: the pinned
    entries would otherwise quietly plan the default V100 design, and
    the suites would price one plan six times."""

    @pytest.mark.parametrize(
        "design", ["branch_parallel", "level_by_level", "memory_bounded"]
    )
    def test_a_pinned_entry_plans_its_design(self, design, reference):
        keys, prf, _ = reference
        request = EvalRequest(keys=keys, prf_name=prf.name)
        default = SingleGpuBackend().plan(request).selection.strategy
        plan = BACKEND_FACTORIES[f"single_gpu_{design}"]().plan(request)
        assert plan.selection.strategy == design != default
        assert [name for name, _ in plan.selection.rankings] == [design]

    def test_the_a100_entry_prices_on_another_device(self, reference):
        keys, prf, _ = reference
        request = EvalRequest(keys=keys, prf_name=prf.name)
        v100 = SingleGpuBackend().plan(request)
        a100 = BACKEND_FACTORIES["single_gpu_a100"]().plan(request)
        assert a100.selection.stats.latency_s != v100.selection.stats.latency_s


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
        answers = BACKEND_FACTORIES[backend_name]().run(request)
        assert answers.shape == (BATCH, hi - lo)
        assert np.array_equal(answers, expected[:, lo:hi])

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
            assert np.array_equal(cache.run(backend, request), expected[:, lo:hi])
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_full_range_restriction_is_identity(self, backend_name, reference):
        keys, prf, expected = reference
        request = EvalRequest(keys=keys, prf_name=prf.name).restrict(0, DOMAIN)
        assert np.array_equal(BACKEND_FACTORIES[backend_name]().run(request), expected)

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
        module = type(backend).__module__
        monkeypatch.setattr(f"{module}.get_prf", lambda name: counting)
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
            )
            for a, z in ((0, 2), (2, 3), (3, BATCH))
        ]
        assert np.array_equal(np.vstack(parts), expected[:, lo:hi])


class TestEvalRequest:
    def test_a_request_is_keys_a_range_and_a_reducer(self):
        public = [
            f.name for f in dataclasses.fields(EvalRequest) if not f.name.startswith("_")
        ]
        assert public == ["keys", "prf_name", "eval_range", "reduce", "traces"]

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
        assert np.array_equal(SingleGpuBackend().run(request), expected)

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


class TestProtocol:
    @pytest.mark.parametrize("backend_class", [SingleGpuBackend, SimulatedBackend])
    def test_backends_take_no_arguments(self, backend_class):
        """The backend and the tests' oracle both price on the
        calibrated V100 over every design."""
        with pytest.raises(TypeError):
            backend_class(V100)

    def test_backends_implement_the_abstract_protocol(self):
        for factory in BACKEND_FACTORIES.values():
            assert isinstance(factory(), ExecutionBackend)
        with pytest.raises(TypeError):
            ExecutionBackend()

    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
    def test_the_protocol_is_plan_run_run_with_plan_plan_key(self, backend_name):
        """A backend answers for requests and nothing else: no shape-
        pricing hook rides along for a serving policy to read, and no
        second entry point runs a request under a plan."""
        backend = BACKEND_FACTORIES[backend_name]()
        methods = {
            name
            for name in dir(backend)
            if not name.startswith("_") and callable(getattr(backend, name))
        }
        assert methods == {"plan", "run"}
        assert hash(backend.plan_key) == hash(backend.plan_key)

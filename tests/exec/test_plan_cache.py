"""The plan cache: memoized steady-state dispatch.

Claims: cached-path answers are bit-identical to uncached
``backend.run`` for every batch size and eval range; a miss plans the
request it has, and that plan serves every later batch in its pow2
bucket, each run at its own exact size; the cache keys on everything
that changes the plan (backend, PRF, domain, batch bucket) and on
nothing else; and LRU eviction is bounded by ``max_entries``.
"""

import numpy as np
import pytest

from repro.crypto import get_prf
from repro.dpf import eval_full, gen
from repro.exec import EvalRequest, PlanCache, SingleGpuBackend, batch_bucket
from tests.strategies import BACKEND_FACTORIES, FaultPlan, FlakyBackend

PRF_NAME = "chacha20"
DOMAIN = 200


def _make_request(batch, domain=DOMAIN, seed=7):
    prf = get_prf(PRF_NAME)
    rng = np.random.default_rng(seed)
    keys = []
    for i in range(batch):
        k0, k1 = gen(int(rng.integers(0, domain)), domain, prf, rng, beta=i + 1)
        keys.append(k0 if i % 2 else k1)
    request = EvalRequest(keys=keys, prf_name=PRF_NAME)
    expected = np.stack([eval_full(k, prf) for k in keys])
    return request, expected


class TestBatchBucket:
    @pytest.mark.parametrize(
        "batch,bucket",
        [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8), (9, 16), (1000, 1024)],
    )
    def test_rounds_up_to_pow2(self, batch, bucket):
        assert batch_bucket(batch) == bucket

    @pytest.mark.parametrize("batch", [0, -1])
    def test_rejects_nonpositive(self, batch):
        with pytest.raises(ValueError):
            batch_bucket(batch)


class TestBitExactness:
    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 8, 13])
    def test_cached_run_matches_uncached(self, batch):
        request, expected = _make_request(batch)
        backend = SingleGpuBackend()
        cache = PlanCache()
        answers = cache.run(backend, request)
        np.testing.assert_array_equal(answers, expected)
        np.testing.assert_array_equal(answers, backend.run(request))

    def test_a_miss_plans_the_exact_batch(self):
        # Batch 5 is keyed at bucket 8 but planned as the 5-row request
        # it is, and the kernel executes exactly those 5 rows.
        class Recording(SingleGpuBackend):
            def __init__(self):
                super().__init__()
                self.planned = []
                self.ran = []

            def plan(self, request):
                self.planned.append(request.arena().batch)
                return super().plan(request)

            def run_with_plan(self, request, plan):
                self.ran.append((request.arena().batch, plan.selection.plan.batch_size))
                return super().run_with_plan(request, plan)

        backend = Recording()
        cache = PlanCache()
        request, expected = _make_request(5)
        answers = cache.run(backend, request)
        assert backend.planned == [5]
        assert backend.ran == [(5, 5)]
        assert answers.shape[0] == 5
        np.testing.assert_array_equal(answers, expected)
        # A second size in the same bucket reuses the plan unchanged
        # and still runs at its own exact batch.
        second, second_expected = _make_request(7, seed=9)
        got = cache.run(backend, second)
        assert backend.planned == [5]
        assert backend.ran == [(5, 5), (7, 5)]
        np.testing.assert_array_equal(got, second_expected)

    def test_eval_range_restriction_survives_the_cache(self):
        request, expected = _make_request(6)
        restricted = request.restrict(50, 150)
        answers = PlanCache().run(SingleGpuBackend(), restricted)
        assert answers.shape == (6, 100)
        np.testing.assert_array_equal(answers, expected[:, 50:150])

    def test_repeated_hits_stay_bit_exact(self):
        cache = PlanCache()
        backend = SingleGpuBackend()
        for seed in (1, 2, 3):
            request, expected = _make_request(5, seed=seed)
            np.testing.assert_array_equal(cache.run(backend, request), expected)
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1


class TestCacheKey:
    def test_same_bucket_shares_an_entry(self):
        cache = PlanCache()
        backend = SingleGpuBackend()
        cache.run(backend, _make_request(5)[0])   # bucket 8 — miss
        cache.run(backend, _make_request(7, seed=9)[0])  # bucket 8 — hit
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert len(cache) == 1

    def test_different_bucket_is_a_new_entry(self):
        cache = PlanCache()
        backend = SingleGpuBackend()
        cache.run(backend, _make_request(5)[0])  # bucket 8
        cache.run(backend, _make_request(9)[0])  # bucket 16
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_distinct_backend_instances_never_share(self):
        # Two wrapped/unknown backends must not collide even if they
        # wrap the same device: the base plan_key is per-instance.
        request, _ = _make_request(5)
        cache = PlanCache()
        for _ in range(2):
            cache.run(FlakyBackend(SingleGpuBackend(), FaultPlan()), request)
        assert cache.stats.misses == 2
        # Every plain SingleGpuBackend prices alike, so these *do* share.
        plain = PlanCache()
        plain.run(SingleGpuBackend(), request)
        plain.run(SingleGpuBackend(), request)
        assert (plain.stats.misses, plain.stats.hits) == (1, 1)

    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
    def test_a_shared_cache_hands_each_pool_backend_its_own_plan(
        self, backend_name, monkeypatch
    ):
        # One cache in front of the whole pool: every backend misses
        # once, and its later hit is the plan it prices itself.
        request, expected = _make_request(5)
        pool = {name: factory() for name, factory in BACKEND_FACTORIES.items()}
        cache = PlanCache()
        for backend in pool.values():
            cache.run(backend, request)
        assert cache.stats.misses == len(pool) == len(cache)
        backend = pool[backend_name]
        plans = []
        run_with_plan = backend.run_with_plan
        monkeypatch.setattr(
            backend,
            "run_with_plan",
            lambda request, plan: plans.append(plan) or run_with_plan(request, plan),
        )
        answers = cache.run(backend, request)
        assert cache.stats.hits == 1
        assert plans == [backend.plan(request)]
        np.testing.assert_array_equal(answers, expected)

    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
    @pytest.mark.parametrize("first,second", [(5, 7), (7, 5)])
    def test_a_bucket_serves_the_plan_of_the_batch_that_missed_first(
        self, backend_name, first, second, monkeypatch
    ):
        backend = BACKEND_FACTORIES[backend_name]()
        missed, _ = _make_request(first)
        later, expected = _make_request(second, seed=9)
        cache = PlanCache()
        cache.run(backend, missed)
        plans = []
        run_with_plan = backend.run_with_plan
        monkeypatch.setattr(
            backend,
            "run_with_plan",
            lambda request, plan: plans.append(plan) or run_with_plan(request, plan),
        )
        answers = cache.run(backend, later)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)
        assert plans == [backend.plan(missed)] != [backend.plan(later)]
        assert plans[0].selection.plan.batch_size == first
        np.testing.assert_array_equal(answers, expected)


class TestEviction:
    def test_lru_bounded_by_max_entries(self):
        cache = PlanCache(max_entries=2)
        backend = SingleGpuBackend()
        r4, _ = _make_request(4)
        r8, _ = _make_request(8)
        r16, _ = _make_request(16)
        cache.run(backend, r4)
        cache.run(backend, r8)
        cache.run(backend, r4)   # refresh bucket-4 entry
        cache.run(backend, r16)  # evicts bucket 8 (LRU)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        cache.run(backend, r4)   # still cached
        assert cache.stats.hits == 2
        cache.run(backend, r8)   # was evicted — a fresh miss
        assert cache.stats.misses == 4

    def test_clear_resets_entries_but_not_stats(self):
        cache = PlanCache()
        cache.run(SingleGpuBackend(), _make_request(4)[0])
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


class TestStats:
    def test_hit_rate(self):
        cache = PlanCache()
        backend = SingleGpuBackend()
        request, _ = _make_request(4)
        assert cache.stats.hit_rate == 0.0
        cache.run(backend, request)
        cache.run(backend, request)
        cache.run(backend, request)
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

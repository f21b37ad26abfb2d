"""The executed walk against the reference DPF evaluation.

Every registered design runs one tiled walk; Figure 6's four designs
are modeled by ``plan``, not executed.  So the claims are about that
walk, swept over its tile (``tests.strategies.tiles``): it computes
*exactly* the reference ``eval_full`` shares; its PRF work and metered
live memory equal ``Strategy.cost``; and metered memory returns to zero
when the PRF or a reducer raises.  The designs' own separation — O(B L)
level-by-level vs O(B K log L) memory-bounded — is pinned on their
modeled plans.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given

from repro.crypto import available_prfs, get_prf
from repro.crypto.prf import CountingPrf
from repro.dpf import eval_full, gen
from repro.gpu import ExpansionWorkspace, MemoryMeter, available_strategies, get_strategy
from repro.gpu.strategies import NODE_BYTES, Strategy

from tests.strategies import (
    STANDARD_SETTINGS,
    batch_sizes,
    dpf_cases,
    fast_prf_names,
    tile_rules,
    tiled,
)

PRF = get_prf("chacha20")

ALL_STRATEGIES = available_strategies()

WALK = get_strategy("cooperative_groups")
"""Any design will do: they all run the one walk."""

# Constructor variants that model non-default tree splits.
VARIANTS = [
    ("branch_parallel", {}),
    ("level_by_level", {}),
    ("memory_bounded", {}),
    ("memory_bounded", {"log_subtrees": 0}),
    ("memory_bounded", {"log_subtrees": 3}),
    ("cooperative_groups", {}),
    ("cooperative_groups", {"log_tile": 0}),
    ("cooperative_groups", {"log_tile": 4}),
]


def _keys(domain, alpha=None, prf=PRF, seed=0, beta=1):
    rng = np.random.default_rng(seed)
    return gen(alpha if alpha is not None else domain // 2, domain, prf, rng, beta=beta)


def _eval_one(key, prf=PRF):
    return WALK.eval_batch([key], prf)[0]


class TestOneWalk:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_every_design_runs_and_costs_the_same_walk(self, name):
        strategy = get_strategy(name)
        assert type(strategy).eval_batch is Strategy.eval_batch
        assert type(strategy).cost is Strategy.cost
        keys = list(_keys(300, seed=4))
        assert np.array_equal(strategy.eval_batch(keys, PRF), WALK.eval_batch(keys, PRF))
        cost = strategy.cost(2, 300, (7, 211))
        assert cost.strategy == name
        assert replace(cost, strategy=WALK.name) == WALK.cost(2, 300, (7, 211))

    @pytest.mark.parametrize("name,params", VARIANTS)
    def test_tuning_parameters_change_neither_output_nor_cost(self, name, params):
        k0, _ = _keys(441, seed=3)
        strategy = get_strategy(name, **params)
        assert np.array_equal(strategy.eval_batch([k0], PRF)[0], eval_full(k0, PRF))
        assert strategy.cost(3, 441) == get_strategy(name).cost(3, 441)


class TestBitEquality:
    @pytest.mark.parametrize("domain", [1, 2, 3, 13, 64, 100, 257, 1000])
    def test_matches_eval_full(self, tile, domain):
        k0, k1 = _keys(domain)
        for key in (k0, k1):
            assert np.array_equal(_eval_one(key), eval_full(key, PRF))

    @pytest.mark.parametrize("prf_name", available_prfs())
    def test_matches_eval_full_all_prfs(self, tile, prf_name):
        prf = get_prf(prf_name)
        k0, k1 = _keys(37, prf=prf)  # non-power-of-two on purpose
        for key in (k0, k1):
            assert np.array_equal(_eval_one(key, prf), eval_full(key, prf))

    def test_batch_matches_per_key_loop(self, tile):
        keys = []
        for seed in range(3):
            k0, k1 = _keys(100, alpha=17 * seed % 100, seed=seed, beta=seed + 5)
            keys.extend([k0, k1])
        batch = WALK.eval_batch(keys, PRF)
        assert batch.shape == (len(keys), 100)
        for row, key in zip(batch, keys):
            assert np.array_equal(row, eval_full(key, PRF))

    @given(case=dpf_cases(prfs=fast_prf_names), tile=tile_rules)
    @STANDARD_SETTINGS
    def test_property_matches_eval_full(self, case, tile):
        (k0, k1), prf = case.keys()
        with tiled(tile):
            for key in (k0, k1):
                assert np.array_equal(_eval_one(key, prf), eval_full(key, prf))

    def test_batch_rejects_mixed_domains(self):
        k0, _ = _keys(64)
        j0, _ = _keys(128)
        with pytest.raises(ValueError, match="same domain"):
            get_strategy("level_by_level").eval_batch([k0, j0], PRF)

    def test_rejects_wrong_prf(self):
        k0, _ = _keys(64)
        with pytest.raises(ValueError, match="reconstruct"):
            get_strategy("branch_parallel").eval_batch([k0], get_prf("siphash"))


class _Boom(Exception):
    pass


class _RaisingPrf(CountingPrf):
    """A PRF whose ``fail_on``-th cipher call raises ``error``."""

    def __init__(self, inner, fail_on):
        super().__init__(inner)
        self.fail_on, self.error = fail_on, _Boom("prf")

    def _tick(self):
        if self.calls + 1 == self.fail_on:
            raise self.error

    def expand(self, seeds, tweak):
        self._tick()
        return super().expand(seeds, tweak)

    def expand_pair_stacked(self, seeds):
        self._tick()
        return super().expand_pair_stacked(seeds)


class TestFailureReleasesTheMeter:
    """ROADMAP invariant 3: metered memory returns to zero — also when
    the PRF, or a reducer (caller code, run mid-walk), raises."""

    DOMAIN = 200  # deep enough that every tile but the whole tree repeats

    def _clean(self, keys, workspace, meter, expected, eval_range):
        """The workspace a failed call left behind serves the next one."""
        got = WALK.eval_batch(keys, PRF, meter, workspace, eval_range)
        assert np.array_equal(got, expected)
        assert meter.current == 0

    @pytest.mark.parametrize("eval_range", [None, (37, 163)])
    @pytest.mark.parametrize("fail_on", [1, 5])
    def test_prf_that_raises(self, tile, fail_on, eval_range):
        keys = list(_keys(self.DOMAIN))
        expected = WALK.eval_batch(keys, PRF, eval_range=eval_range)
        meter, workspace = MemoryMeter(), ExpansionWorkspace()
        prf = _RaisingPrf(PRF, fail_on)
        with pytest.raises(_Boom) as caught:
            WALK.eval_batch(keys, prf, meter, workspace, eval_range)
        assert caught.value is prf.error
        assert meter.current == 0 and meter.peak > 0
        self._clean(keys, workspace, meter, expected, eval_range)

    @pytest.mark.parametrize("eval_range", [None, (37, 163)])
    def test_reducer_that_raises(self, tile, eval_range):
        keys = list(_keys(self.DOMAIN))
        expected = WALK.eval_batch(keys, PRF, eval_range=eval_range)
        meter, workspace = MemoryMeter(), ExpansionWorkspace()
        windows = []
        WALK.eval_batch(
            keys,
            PRF,
            meter,
            workspace,
            eval_range,
            reduce=lambda s, lo, hi: windows.append(lo) or s.sum(axis=1),
        )
        for fail_on in {1, len(windows)}:
            error, seen = _Boom("reducer"), []

            def reduce(shares, lo, hi):
                seen.append(lo)
                if len(seen) == fail_on:
                    raise error
                return shares.sum(axis=1)

            with pytest.raises(_Boom) as caught:
                WALK.eval_batch(keys, PRF, meter, workspace, eval_range, reduce=reduce)
            assert caught.value is error and seen == windows[:fail_on]
            assert meter.current == 0
            self._clean(keys, workspace, meter, expected, eval_range)


class TestExactCosts:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("domain", [1, 13, 257, 1000])
    def test_prf_blocks_and_peak_memory_are_exact(self, tile, domain, batch):
        keys = []
        for seed in range(batch):
            k0, k1 = _keys(domain, alpha=seed % domain, seed=seed)
            keys.append(k0 if seed % 2 else k1)
        counting = CountingPrf(PRF)
        meter = MemoryMeter()
        WALK.eval_batch(keys, counting, meter)
        cost = WALK.cost(batch, domain)
        assert counting.blocks == cost.prf_blocks
        assert meter.peak == cost.peak_mem_bytes
        assert meter.current == 0  # every device buffer released

    def test_figure6_memory_separation(self):
        """O(B L) level-by-level vs O(B K log L) memory-bounded, as the
        designs' modeled device footprints."""
        batch, domain = 4, 1024
        log_subtrees = 4
        lbl = get_strategy("level_by_level").plan(batch, domain).peak_mem_bytes
        mbt = get_strategy("memory_bounded", log_subtrees=log_subtrees)
        mbt_peak = mbt.plan(batch, domain).peak_mem_bytes

        # Level-by-level is Omega(B * L): the full leaf frontier lives at once.
        assert lbl >= 16 * batch * domain
        # Memory-bounded stays within the O(B * K * log L) analytic bound.
        subtrees = 2**log_subtrees
        depth = 10  # log2(1024)
        assert mbt_peak <= 3 * NODE_BYTES * batch * subtrees * depth
        # And the separation is material, not a constant-factor accident.
        assert mbt_peak * 4 < lbl

    def test_memory_bound_tightens_with_fewer_subtrees(self):
        batch, domain = 2, 4096
        peaks = [
            get_strategy("memory_bounded", log_subtrees=log_subtrees)
            .plan(batch, domain)
            .peak_mem_bytes
            for log_subtrees in (6, 4, 2)
        ]
        assert peaks[0] > peaks[1] > peaks[2]

    @given(batch=batch_sizes, tile=tile_rules)
    @STANDARD_SETTINGS
    def test_peak_memory_scales_linearly_in_batch(self, batch, tile):
        domain = 256
        with tiled(tile):
            cost_1 = WALK.cost(1, domain)
            cost_b = WALK.cost(batch, domain)
        assert cost_b.peak_mem_bytes == batch * cost_1.peak_mem_bytes
        assert cost_b.prf_blocks == batch * cost_1.prf_blocks


class TestKernelPlans:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_plan_describes_the_workload(self, name):
        batch, table = 16, 4096
        plan = get_strategy(name).plan(batch, table, entry_bytes=8, prf_name="sha256")
        assert plan.strategy == name
        assert plan.batch_size == batch and plan.table_entries == table
        assert plan.prf_name == "sha256"
        assert plan.prf_cost == get_prf("sha256").gpu_cost
        assert plan.total_prf_blocks > 0
        assert plan.host_bytes_in > 0 and plan.host_bytes_out == batch * 8
        assert all(p.parallel_width >= 1 for p in plan.phases)

    def test_fused_strategies_avoid_materializing_shares(self):
        batch, table = 8, 1 << 16
        lbl = get_strategy("level_by_level").plan(batch, table)
        assert not lbl.fused
        assert lbl.peak_mem_bytes >= 16 * batch * table  # frontier in global mem
        for name in ("branch_parallel", "memory_bounded", "cooperative_groups"):
            plan = get_strategy(name).plan(batch, table)
            assert plan.fused
            assert plan.peak_mem_bytes < lbl.peak_mem_bytes

    def test_branch_parallel_trades_compute_for_memory(self):
        batch, table = 4, 1 << 14
        bp = get_strategy("branch_parallel").plan(batch, table)
        mbt = get_strategy("memory_bounded").plan(batch, table)
        assert bp.total_prf_blocks > mbt.total_prf_blocks  # O(L log L) vs O(L)
        assert bp.peak_mem_bytes < mbt.peak_mem_bytes

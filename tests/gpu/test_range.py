"""The range-pruned batched traversal: a shard expands only its rows.

Three claims.  ``eval_batch(..., eval_range=(lo, hi))`` is bit-identical
to columns ``lo:hi`` of the reference ``eval_full`` for every strategy,
ingest form and workspace mode; a partition of the domain concatenates
back to the whole matrix; and the pruning is real — the PRF blocks a
:class:`CountingPrf` sees equal the analytic ``cost(..., eval_range)``,
which for the three O(L) walks is ``sum_l 2 * width(l)`` per key over
the word-packed tree (rows ``[lo, hi)`` live in leaves
``[lo // 2, ceil(hi / 2))``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import get_prf
from repro.crypto.prf import CountingPrf
from repro.dpf import eval_full, gen, pack_keys
from repro.dpf.ggm import leaf_window, level_window, tree_depth
from repro.gpu import (
    ExpansionWorkspace,
    KeyArena,
    MemoryMeter,
    MultiGpuExecutor,
    V100,
    available_strategies,
    get_strategy,
)
from repro.serve import shard_ranges

from tests.strategies import STANDARD_SETTINGS, key_ranges, rng_seeds

PRF = get_prf("siphash")
ALL_STRATEGIES = available_strategies()
BATCH = 3


def _keys(domain, seed=0, batch=BATCH):
    rng = np.random.default_rng(seed)
    keys = []
    for index in range(batch):
        pair = gen(int(rng.integers(0, domain)), domain, PRF, rng, beta=index + 1)
        keys.append(pair[index % 2])
    return keys


def _reference(keys):
    return np.stack([eval_full(key, PRF) for key in keys])


def _ingest(keys, form):
    if form == "objects":
        return keys
    if form == "wire":
        return pack_keys(keys)
    return KeyArena.from_keys(keys)


class TestRangeBitIdentity:
    @given(
        case=key_ranges(),
        seed=rng_seeds,
        name=st.sampled_from(ALL_STRATEGIES),
        form=st.sampled_from(["objects", "wire", "arena"]),
        with_workspace=st.booleans(),
    )
    @STANDARD_SETTINGS
    def test_range_equals_reference_columns(
        self, case, seed, name, form, with_workspace
    ):
        domain, lo, hi = case
        keys = _keys(domain, seed)
        workspace = ExpansionWorkspace() if with_workspace else None
        strategy = get_strategy(name)
        expected = _reference(keys)[:, lo:hi]
        # Twice through one workspace: a dirty buffer must not leak.
        for _ in range(2):
            got = strategy.eval_batch(
                _ingest(keys, form), PRF, None, workspace, (lo, hi)
            )
            assert got.shape == (BATCH, hi - lo)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    @pytest.mark.parametrize("domain", [5, 64, 251, 257])
    def test_shard_partition_concatenates_to_the_full_matrix(
        self, name, shards, domain
    ):
        keys = _keys(domain, seed=shards)
        strategy = get_strategy(name)
        workspace = ExpansionWorkspace()
        parts = [
            strategy.eval_batch(keys, PRF, None, workspace, (lo, hi))
            for lo, hi in shard_ranges(domain, shards)
        ]
        assert np.array_equal(np.concatenate(parts, axis=1), _reference(keys))

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_no_range_is_the_full_window(self, name):
        keys = _keys(100)
        strategy = get_strategy(name)
        assert np.array_equal(
            strategy.eval_batch(keys, PRF, eval_range=(0, 100)),
            strategy.eval_batch(keys, PRF),
        )

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_invalid_ranges_rejected(self, name):
        keys = _keys(100)
        strategy = get_strategy(name)
        for bad in ((5, 5), (7, 3), (-1, 3), (0, 101), (100, 100)):
            with pytest.raises(ValueError, match="sub-range"):
                strategy.eval_batch(keys, PRF, eval_range=bad)
            with pytest.raises(ValueError, match="sub-range"):
                strategy.cost(BATCH, 100, bad)

    def test_multigpu_executor_prunes_per_device_shard(self):
        keys = _keys(300, batch=5)
        executor = MultiGpuExecutor([V100, V100])
        got = executor.eval_batch(keys, PRF, eval_range=(37, 211))
        assert np.array_equal(got, _reference(keys)[:, 37:211])


# (domain, lo, hi): whole, halves, one row, straddling a 2^4 tile /
# subtree edge of the tuned variants below, prime width, prime domain,
# then every parity of (lo, hi) and the root-only domains.
COST_RANGES = [
    (1024, 0, 1024),
    (1024, 0, 512),
    (1024, 512, 1024),
    (1024, 333, 334),
    (1024, 1023, 1024),
    (1024, 500, 530),
    (1024, 100, 197),
    (1000, 0, 1000),
    (1000, 250, 750),
    (251, 17, 240),
    (1, 0, 1),
    (1024, 333, 336),
    (1024, 332, 335),
    (1000, 1, 999),
    (251, 0, 251),
    (2, 0, 2),
    (2, 1, 2),
    (3, 2, 3),
]

COST_VARIANTS = [
    ("branch_parallel", {}),
    ("level_by_level", {}),
    ("memory_bounded", {}),
    ("memory_bounded", {"log_subtrees": 4}),
    ("cooperative_groups", {}),
    ("cooperative_groups", {"log_tile": 4}),
]


class TestExactRangeCost:
    @pytest.mark.parametrize("name,params", COST_VARIANTS)
    @pytest.mark.parametrize("domain,lo,hi", COST_RANGES)
    def test_counted_blocks_and_metered_peak_match_the_cost(
        self, name, params, domain, lo, hi
    ):
        keys = _keys(domain)
        strategy = get_strategy(name, **params)
        counting = CountingPrf(PRF)
        meter = MemoryMeter()
        strategy.eval_batch(keys, counting, meter, None, (lo, hi))
        cost = strategy.cost(BATCH, domain, (lo, hi))
        full = strategy.cost(BATCH, domain)
        assert counting.blocks == cost.prf_blocks
        assert meter.current == 0  # every device buffer released
        assert meter.peak == cost.peak_mem_bytes <= full.peak_mem_bytes
        assert cost.prf_blocks <= full.prf_blocks

    @pytest.mark.parametrize("name", ["level_by_level", "memory_bounded", "cooperative_groups"])
    @pytest.mark.parametrize("domain,lo,hi", COST_RANGES)
    def test_linear_walks_pay_two_blocks_per_window_node(self, name, domain, lo, hi):
        depth = tree_depth(domain)
        leaf_lo, leaf_hi = leaf_window(lo, hi)
        per_key = 0
        for level in range(depth):
            node_lo, node_hi = level_window(depth, level, leaf_lo, leaf_hi)
            per_key += 2 * (node_hi - node_lo)
        cost = get_strategy(name).cost(BATCH, domain, (lo, hi))
        assert cost.prf_blocks == BATCH * per_key

    @pytest.mark.parametrize("name", ["level_by_level", "memory_bounded", "cooperative_groups"])
    def test_packed_tree_block_count(self, name):
        """The literal count CI runs by name beside the benchmark's
        ``serve.shard_work_ratio``: a 2^10-row key costs two blocks per
        inner node of the 2^9-leaf tree, and two half-range calls one
        tree plus at most two blocks per level."""
        keys = _keys(1024, batch=4)
        strategy = get_strategy(name)
        one_tree = 4 * 2 * (2**9 - 1)
        whole = CountingPrf(PRF)
        strategy.eval_batch(keys, whole)
        assert whole.blocks == one_tree
        halves = CountingPrf(PRF)
        for half in shard_ranges(1024, 2):
            strategy.eval_batch(keys, halves, eval_range=half)
        assert one_tree <= halves.blocks <= one_tree + 4 * 2 * 9

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_two_half_shards_cost_about_one_tree(self, name):
        """The headline: halves of a 2^10 domain together cost one
        whole-tree walk plus one extra root expansion, not two trees."""
        strategy = get_strategy(name)
        whole = strategy.cost(1, 1024).prf_blocks
        halves = sum(
            strategy.cost(1, 1024, r).prf_blocks for r in shard_ranges(1024, 2)
        )
        assert whole <= halves <= whole + 2

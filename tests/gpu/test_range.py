"""The range-pruned batched traversal: a shard expands only its rows.

Three claims.  ``eval_batch(..., eval_range=(lo, hi))`` is bit-identical
to columns ``lo:hi`` of the reference ``eval_full`` at every tile of the
executed walk (``tests.strategies.tiles``), for every ingest form and
workspace mode; a partition of the domain concatenates back to the
whole matrix; and the pruning is real — the PRF blocks a
:class:`CountingPrf` sees equal the exact ``cost(..., eval_range)``,
``sum_l 2 * width(l)`` per key over the word-packed tree (rows
``[lo, hi)`` live in leaves ``[lo // 2, ceil(hi / 2))``) whatever the
tile.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import get_prf
from repro.crypto.prf import CountingPrf
from repro.dpf import eval_full, gen, pack_keys
from repro.dpf.ggm import leaf_window, level_window, tree_depth
from repro.gpu import ExpansionWorkspace, KeyArena, MemoryMeter, get_strategy
from repro.serve import shard_ranges

from tests.strategies import STANDARD_SETTINGS, key_ranges, rng_seeds, tile_rules, tiled

PRF = get_prf("siphash")
WALK = get_strategy("cooperative_groups")  # any design: they all run one walk
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
        tile=tile_rules,
        form=st.sampled_from(["objects", "wire", "arena"]),
        with_workspace=st.booleans(),
    )
    @STANDARD_SETTINGS
    def test_range_equals_reference_columns(
        self, case, seed, tile, form, with_workspace
    ):
        domain, lo, hi = case
        keys = _keys(domain, seed)
        workspace = ExpansionWorkspace() if with_workspace else None
        expected = _reference(keys)[:, lo:hi]
        # Twice through one workspace: a dirty buffer must not leak.
        with tiled(tile):
            for _ in range(2):
                got = WALK.eval_batch(_ingest(keys, form), PRF, None, workspace, (lo, hi))
                assert got.shape == (BATCH, hi - lo)
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    @pytest.mark.parametrize("domain", [5, 64, 251, 257])
    def test_shard_partition_concatenates_to_the_full_matrix(
        self, tile, shards, domain
    ):
        keys = _keys(domain, seed=shards)
        workspace = ExpansionWorkspace()
        parts = [
            WALK.eval_batch(keys, PRF, None, workspace, (lo, hi))
            for lo, hi in shard_ranges(domain, shards)
        ]
        assert np.array_equal(np.concatenate(parts, axis=1), _reference(keys))

    def test_no_range_is_the_full_window(self, tile):
        keys = _keys(100)
        assert np.array_equal(
            WALK.eval_batch(keys, PRF, eval_range=(0, 100)),
            WALK.eval_batch(keys, PRF),
        )

    def test_invalid_ranges_rejected(self, tile):
        keys = _keys(100)
        for bad in ((5, 5), (7, 3), (-1, 3), (0, 101), (100, 100)):
            with pytest.raises(ValueError, match="sub-range"):
                WALK.eval_batch(keys, PRF, eval_range=bad)
            with pytest.raises(ValueError, match="sub-range"):
                WALK.cost(BATCH, 100, bad)


# (domain, lo, hi): whole, halves, one row, straddling a four-leaf
# tile edge, prime width, prime domain, then every parity of (lo, hi)
# and the root-only domains.
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


class TestExactRangeCost:
    @pytest.mark.parametrize("batch", [1, BATCH])
    @pytest.mark.parametrize("domain,lo,hi", COST_RANGES)
    def test_counted_blocks_and_metered_peak_match_the_cost(
        self, tile, batch, domain, lo, hi
    ):
        keys = _keys(domain, batch=batch)
        counting = CountingPrf(PRF)
        meter = MemoryMeter()
        WALK.eval_batch(keys, counting, meter, None, (lo, hi))
        cost = WALK.cost(batch, domain, (lo, hi))
        full = WALK.cost(batch, domain)
        assert counting.blocks == cost.prf_blocks
        assert meter.current == 0  # every device buffer released
        assert meter.peak == cost.peak_mem_bytes <= full.peak_mem_bytes
        assert cost.prf_blocks <= full.prf_blocks

    @pytest.mark.parametrize("domain,lo,hi", COST_RANGES)
    def test_the_walk_pays_two_blocks_per_window_node(self, tile, domain, lo, hi):
        depth = tree_depth(domain)
        leaf_lo, leaf_hi = leaf_window(lo, hi)
        per_key = 0
        for level in range(depth):
            node_lo, node_hi = level_window(depth, level, leaf_lo, leaf_hi)
            per_key += 2 * (node_hi - node_lo)
        assert WALK.cost(BATCH, domain, (lo, hi)).prf_blocks == BATCH * per_key

    @pytest.mark.parametrize("eval_range", [None, (0, 512)])
    @pytest.mark.parametrize("batch", [1, 2, 64])
    def test_serving_shape_cipher_calls(self, batch, eval_range):
        """The literal count CI runs by name beside the benchmark's
        ``serve.shard_work_ratio``.  At every served shape the walk's
        tile is the whole 2^10-row tree, so the walk makes one cipher
        call per level, ``tree_depth(L) = 9``: a key costs two blocks
        per inner node of the 2^9-leaf tree, and the ``(0, 512)`` shard
        two per node above its 2^8 leaves.  Two or three shard calls
        cost one tree plus at most two blocks per level per shard
        boundary."""
        keys = _keys(1024, batch=batch)
        counting = CountingPrf(PRF)
        WALK.eval_batch(keys, counting, eval_range=eval_range)
        per_key = 2 * (2**9 - 1) if eval_range is None else 2 * (1 + 2**8 - 1)
        assert (counting.calls, counting.blocks) == (tree_depth(1024), batch * per_key)
        one_tree = batch * 2 * (2**9 - 1)
        for shards in (2, 3):
            parts = CountingPrf(PRF)
            for part in shard_ranges(1024, shards):
                WALK.eval_batch(keys, parts, eval_range=part)
            boundaries = shards - 1
            assert one_tree <= parts.blocks <= one_tree + boundaries * batch * 2 * 9

    def test_two_half_shards_cost_about_one_tree(self, tile):
        """The headline: halves of a 2^10 domain together cost one
        whole-tree walk plus one extra root expansion, not two trees."""
        whole = WALK.cost(1, 1024).prf_blocks
        halves = sum(WALK.cost(1, 1024, r).prf_blocks for r in shard_ranges(1024, 2))
        assert whole <= halves <= whole + 2

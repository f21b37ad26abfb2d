"""The fused PRG fast path and T-table AES against the seed reference.

Three layers of pinning, per the perf-PR contract ("every output
bit-identical to the current reference"):

* ``expand_pair`` for *every* PRF equals two unfused ``expand`` calls
  (which themselves are pinned by known-answer vectors elsewhere).
* T-table AES equals the retained byte-pipeline reference on random
  batches, beyond the FIPS-197 known answers.
* The executed walk stays bit-identical to ``repro.dpf.dpf.eval_full``
  at every tile, for every PRF under the fused path (property-based,
  reusing the shared ``tests/strategies`` profiles).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import CountingPrf, available_prfs, get_prf
from repro.crypto.aes import (
    _CHUNK,
    Aes128,
    _tweak_row,
    aes128_encrypt_blocks,
    aes128_encrypt_blocks_reference,
    expand_key,
)
from repro.crypto.prf import Prf
from repro.dpf import eval_full
from repro.dpf.ggm import apply_correction, expand_level, prg_expand
from repro.gpu import get_strategy

from tests.strategies import (
    STANDARD_SETTINGS,
    dpf_cases,
    prf_names,
    rng_seeds,
    tile_rules,
    tiled,
)

ALL_PRFS = available_prfs()


class TestFusedExpandPair:
    @pytest.mark.parametrize("name", ALL_PRFS)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 64])
    def test_matches_unfused_reference(self, name, n):
        prf = get_prf(name)
        rng = np.random.default_rng(123 + n)
        seeds = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
        left, right = prf.expand_pair(seeds)
        assert np.array_equal(left, prf.expand(seeds, 0))
        assert np.array_equal(right, prf.expand(seeds, 1))

    @pytest.mark.parametrize("name", ALL_PRFS)
    def test_returns_fresh_writable_arrays(self, name):
        # expand_level mutates the halves in place; aliasing the input
        # seeds (or returning read-only views) would corrupt the tree.
        prf = get_prf(name)
        seeds = np.zeros((4, 16), dtype=np.uint8)
        left, right = prf.expand_pair(seeds)
        left[:] ^= 0xFF
        right[:] ^= 0xFF
        assert np.array_equal(seeds, np.zeros((4, 16), dtype=np.uint8))

    @pytest.mark.parametrize("name", ALL_PRFS)
    def test_does_not_mutate_seeds(self, name):
        prf = get_prf(name)
        rng = np.random.default_rng(5)
        seeds = rng.integers(0, 256, size=(8, 16), dtype=np.uint8)
        before = seeds.copy()
        prf.expand_pair(seeds)
        assert np.array_equal(seeds, before)

    @given(name=prf_names, seed=rng_seeds, n=st.integers(1, 32))
    @STANDARD_SETTINGS
    def test_property_fused_equals_unfused(self, name, seed, n):
        prf = get_prf(name)
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
        left, right = prf.expand_pair(seeds)
        assert np.array_equal(left, prf.expand(seeds, 0))
        assert np.array_equal(right, prf.expand(seeds, 1))


class TestTTableAes:
    @pytest.mark.parametrize(
        "n", [1, 2, 5, 333, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]
    )
    def test_matches_reference_pipeline_on_random_batches(self, n):
        # Sizes straddle the chunk: a lone tail block, an exact chunk,
        # a one-block second chunk, two full chunks and a tail.
        rng = np.random.default_rng(n)
        rks = expand_key(bytes(range(16)))
        blocks = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
        assert np.array_equal(
            aes128_encrypt_blocks(rks, blocks),
            aes128_encrypt_blocks_reference(rks, blocks),
        )

    @pytest.mark.parametrize("n", [3, _CHUNK + 1])
    def test_strided_and_read_only_inputs(self, n):
        rng = np.random.default_rng(n)
        rks = expand_key(bytes(range(16)))
        wide = rng.integers(0, 256, size=(2 * n, 32), dtype=np.uint8)
        strided = wide[::2, 8:24]
        assert not strided.flags["C_CONTIGUOUS"]
        frozen = strided.copy()
        frozen.setflags(write=False)
        want = aes128_encrypt_blocks_reference(rks, strided)
        for blocks in (strided, frozen):
            before = blocks.copy()
            got = aes128_encrypt_blocks(rks, blocks)
            assert np.array_equal(got, want)
            assert np.array_equal(blocks, before)
            assert got.flags["WRITEABLE"] and not np.shares_memory(got, blocks)

    def test_results_do_not_alias_the_scratch(self):
        # Two calls on one thread reuse the same chunk scratch; a result
        # that was a view of it would change under the second call.
        rng = np.random.default_rng(9)
        rks = expand_key(bytes(range(16)))
        small = rng.integers(0, 256, size=(7, 16), dtype=np.uint8)
        large = rng.integers(0, 256, size=(_CHUNK + 9, 16), dtype=np.uint8)
        first = aes128_encrypt_blocks(rks, small)
        kept = first.copy()
        second = aes128_encrypt_blocks(rks, large)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        first[:] = 0
        assert np.array_equal(second, aes128_encrypt_blocks_reference(rks, large))

    def test_empty_batch(self):
        rks = expand_key(bytes(16))
        out = aes128_encrypt_blocks(rks, np.empty((0, 16), dtype=np.uint8))
        assert out.shape == (0, 16) and out.dtype == np.uint8

    def test_does_not_mutate_input(self):
        rng = np.random.default_rng(1)
        rks = expand_key(bytes(range(16)))
        blocks = rng.integers(0, 256, size=(64, 16), dtype=np.uint8)
        before = blocks.copy()
        aes128_encrypt_blocks(rks, blocks)
        assert np.array_equal(blocks, before)

    @given(
        key=st.binary(min_size=16, max_size=16),
        data=st.binary(min_size=16, max_size=16),
    )
    @STANDARD_SETTINGS
    def test_property_ttable_equals_reference(self, key, data):
        rks = expand_key(key)
        block = np.frombuffer(data, dtype=np.uint8).reshape(1, 16)
        assert np.array_equal(
            aes128_encrypt_blocks(rks, block),
            aes128_encrypt_blocks_reference(rks, block),
        )


class TestExpandPairStacked:
    @pytest.mark.parametrize("name", ALL_PRFS)
    def test_stacked_matches_unfused(self, name):
        prf = get_prf(name)
        rng = np.random.default_rng(11)
        seeds = rng.integers(0, 256, size=(7, 16), dtype=np.uint8)
        stacked = prf.expand_pair_stacked(seeds)
        assert stacked.shape == (14, 16) and stacked.dtype == np.uint8
        assert np.array_equal(stacked[:7], prf.expand(seeds, 0))
        assert np.array_equal(stacked[7:], prf.expand(seeds, 1))

    @pytest.mark.parametrize("name", ALL_PRFS)
    def test_expand_pair_halves_are_adjacent_views(self, name):
        # The concat-layout eval_full relies on expand_pair being a
        # zero-copy split of the stacked buffer: the halves must sit
        # back to back in one allocation, not in two.
        prf = get_prf(name)
        rng = np.random.default_rng(12)
        seeds = rng.integers(0, 256, size=(5, 16), dtype=np.uint8)
        left, right = prf.expand_pair(seeds)
        assert left.base is not None and left.base is right.base
        assert right.ctypes.data - left.ctypes.data == 5 * 16
        assert left.flags["C_CONTIGUOUS"] and right.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize(
        "n", [1, _CHUNK // 2 - 1, _CHUNK // 2, _CHUNK // 2 + 1, 3000, _CHUNK + 5]
    )
    def test_aes_prg_matches_reference_cipher_across_chunks(self, n):
        # The MMO tweak is folded into the first AddRoundKey and both
        # tweaked copies are encrypted in one pass: a chunk of the 2n
        # virtual blocks may end inside either copy or span their seam.
        key = bytes(range(16, 32))
        prf, rks = Aes128(key), expand_key(key)
        rng = np.random.default_rng(n)
        seeds = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
        seeds.setflags(write=False)
        want = [
            aes128_encrypt_blocks_reference(rks, seeds ^ _tweak_row(tweak)) ^ seeds
            for tweak in (0, 1)
        ]
        stacked = prf.expand_pair_stacked(seeds)
        assert np.array_equal(stacked[:n], want[0])
        assert np.array_equal(stacked[n:], want[1])
        assert np.array_equal(prf.expand(seeds, 0), want[0])
        assert np.array_equal(prf.expand(seeds, 1), want[1])

    def test_base_class_fallback_stacks_unfused_halves(self):
        class SplitPrf(Prf):
            name = "split"

            def expand(self, seeds, tweak):
                return np.full_like(seeds, tweak + 1)

        prf = SplitPrf()
        seeds = np.zeros((3, 16), dtype=np.uint8)
        stacked = prf.expand_pair_stacked(seeds)
        assert np.all(stacked[:3] == 1) and np.all(stacked[3:] == 2)
        left, right = prf.expand_pair(seeds)
        assert np.all(left == 1) and np.all(right == 2)


class TestExpandLevel:
    """ggm.expand_level's fused rewrite and out= buffers vs first principles."""

    def _reference(self, prf, seeds, ts, cw_seed, cw_tl, cw_tr):
        # The seed semantics, spelled out with the unfused primitives.
        s_left, t_left, s_right, t_right = prg_expand(prf, seeds, ts)
        s_left, t_left = apply_correction(s_left, t_left, ts, cw_seed, cw_tl)
        s_right, t_right = apply_correction(s_right, t_right, ts, cw_seed, cw_tr)
        n = seeds.shape[0]
        out_seeds = np.empty((2 * n, 16), dtype=np.uint8)
        out_ts = np.empty(2 * n, dtype=np.uint8)
        out_seeds[0::2], out_seeds[1::2] = s_left, s_right
        out_ts[0::2], out_ts[1::2] = t_left, t_right
        return out_seeds, out_ts

    @pytest.mark.parametrize("name", ALL_PRFS)
    @pytest.mark.parametrize("use_out", [False, True])
    def test_matches_unfused_reference(self, name, use_out):
        prf = get_prf(name)
        rng = np.random.default_rng(17)
        n = 9
        seeds = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
        ts = rng.integers(0, 2, size=n, dtype=np.uint8)
        cw_seed = rng.integers(0, 256, size=16, dtype=np.uint8)
        want = self._reference(prf, seeds, ts, cw_seed, 1, 0)
        out = None
        if use_out:
            out = (np.empty((2 * n, 16), dtype=np.uint8), np.empty(2 * n, dtype=np.uint8))
        got = expand_level(prf, seeds, ts, cw_seed, 1, 0, out=out)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        if use_out:
            assert got[0] is out[0] and got[1] is out[1]


class TestCountingPrfFusedPath:
    def test_expand_pair_counts_blocks_not_invocations(self):
        counting = CountingPrf(get_prf("chacha20"))
        seeds = np.zeros((5, 16), dtype=np.uint8)
        counting.expand_pair(seeds)
        # One cipher invocation, but 2N PRF blocks — the Figure 6
        # analytic counts are in blocks and must not halve.
        assert counting.calls == 1
        assert counting.blocks == 10

    def test_expand_pair_is_transparent(self):
        inner = get_prf("siphash")
        counting = CountingPrf(inner)
        rng = np.random.default_rng(2)
        seeds = rng.integers(0, 256, size=(6, 16), dtype=np.uint8)
        got = counting.expand_pair(seeds)
        want = inner.expand_pair(seeds)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


class TestTheWalkStaysBitIdentical:
    """Fused fast path vs the reference, across the full PRF matrix."""

    @given(case=dpf_cases(max_domain=64), tile=tile_rules)
    @STANDARD_SETTINGS
    def test_property_all_prfs_all_tiles(self, case, tile):
        (k0, k1), prf = case.keys()
        walk = get_strategy("cooperative_groups")  # any design: one walk
        with tiled(tile):
            for key in (k0, k1):
                assert np.array_equal(walk.eval_batch([key], prf)[0], eval_full(key, prf))

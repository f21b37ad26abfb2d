"""The key arena against the per-key object path.

The arena is only an optimization, so every test here is an
equivalence: ``from_wire`` == ``from_keys`` field for field, arena
slicing == stacking the sliced key list, arena-fed ``eval_batch`` ==
list-fed ``eval_batch`` == per-key ``eval_full``, and a reused
:class:`ExpansionWorkspace` changes nothing but allocation counts.
"""

import numpy as np
import pytest
from hypothesis import given

from repro.crypto import get_prf
from repro.crypto.prf import CountingPrf
from repro.dpf import eval_full, gen, pack_keys
from repro.gpu import ExpansionWorkspace, KeyArena, MemoryMeter, get_strategy

from tests.strategies import (
    STANDARD_SETTINGS,
    batch_sizes,
    dpf_cases,
    fast_prf_names,
    tile_rules,
    tiled,
)

PRF = get_prf("chacha20")

WALK = get_strategy("cooperative_groups")  # any design: they all run one walk


def _make_keys(batch=6, domain=100, prf=PRF, seed=0):
    rng = np.random.default_rng(seed)
    keys = []
    for i in range(batch):
        k0, k1 = gen(int(rng.integers(domain)), domain, prf, rng, beta=i + 1)
        keys.append(k0 if i % 2 else k1)
    return keys


ARENA_FIELDS = (
    "roots",
    "root_ts",
    "cw_seeds",
    "cw_t_left",
    "cw_t_right",
    "output_cws",
    "negate",
)


def _assert_arena_equal(a: KeyArena, b: KeyArena):
    assert (a.batch, a.depth, a.domain_size, a.prf_name) == (
        b.batch,
        b.depth,
        b.domain_size,
        b.prf_name,
    )
    for field in ARENA_FIELDS:
        got, want = getattr(a, field), getattr(b, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field


class TestWireEquivalence:
    def test_from_wire_equals_from_keys(self):
        keys = _make_keys()
        _assert_arena_equal(KeyArena.from_wire(pack_keys(keys)), KeyArena.from_keys(keys))
        assert KeyArena.from_wire(pack_keys(keys)) == KeyArena.from_keys(keys)

    @given(case=dpf_cases(prfs=fast_prf_names), batch=batch_sizes)
    @STANDARD_SETTINGS
    def test_property_from_wire_equals_from_keys(self, case, batch):
        (k0, k1), _ = case.keys()
        keys = [k0 if i % 2 else k1 for i in range(batch)]
        _assert_arena_equal(
            KeyArena.from_wire(pack_keys(keys)), KeyArena.from_keys(keys)
        )

    def test_to_keys_round_trip(self):
        keys = _make_keys()
        restored = KeyArena.from_wire(pack_keys(keys)).to_keys()
        assert [k.to_bytes() for k in restored] == [k.to_bytes() for k in keys]

    def test_from_wire_rejects_malformed_batches(self):
        keys = _make_keys(batch=2)
        wire = pack_keys(keys)
        with pytest.raises(ValueError, match="truncated"):
            KeyArena.from_wire(b"")
        with pytest.raises(ValueError, match="magic"):
            KeyArena.from_wire(b"XXXX" + wire[4:])
        with pytest.raises(ValueError, match="mid-record"):
            KeyArena.from_wire(wire[:-3])
        other = _make_keys(batch=1, domain=317, seed=5)[0]
        with pytest.raises(ValueError, match="same domain"):
            KeyArena.from_wire(wire + other.to_bytes())
        mutated = bytearray(wire)
        mutated[4] = 7  # party byte of the first record
        with pytest.raises(ValueError, match="party"):
            KeyArena.from_wire(bytes(mutated))
        corrupt = bytearray(wire)
        corrupt[8] ^= 0x01  # domain_size no longer matches the record length
        with pytest.raises(ValueError, match="mid-record"):
            KeyArena.from_wire(bytes(corrupt))
        record = len(wire) // 2
        bad_prf = bytearray(wire)
        bad_prf[record + 5] = get_prf("siphash").wire_id  # second record's PRF id
        with pytest.raises(ValueError, match="same PRF"):
            KeyArena.from_wire(bytes(bad_prf))

    def test_from_wire_rejects_mixed_prfs(self):
        a = _make_keys(batch=1, prf=get_prf("chacha20"))[0]
        b = _make_keys(batch=1, prf=get_prf("highwayhash"))[0]
        # The PRF is one id byte, so records of every PRF have one
        # length and the PRF check, not the stride, refuses the mix.
        with pytest.raises(ValueError, match="same PRF"):
            KeyArena.from_wire(a.to_bytes() + b.to_bytes())
        c = _make_keys(batch=1, prf=get_prf("aes128"))[0]
        d = _make_keys(batch=1, prf=get_prf("sha256"))[0]
        with pytest.raises(ValueError, match="same PRF"):
            KeyArena.from_wire(c.to_bytes() + d.to_bytes())

    def test_from_keys_validates(self):
        keys = _make_keys()
        with pytest.raises(ValueError, match="at least one"):
            KeyArena.from_keys([])
        with pytest.raises(ValueError, match="reconstruct"):
            KeyArena.from_keys(keys, prf_name="siphash")
        with pytest.raises(ValueError, match="same domain"):
            KeyArena.from_keys(keys + _make_keys(batch=1, domain=64, seed=2))

    def test_to_wire_equals_pack_keys(self):
        keys = _make_keys()
        arena = KeyArena.from_keys(keys)
        assert arena.to_wire() == pack_keys(keys)
        _assert_arena_equal(KeyArena.from_wire(arena.to_wire()), arena)

    @given(case=dpf_cases(prfs=fast_prf_names), batch=batch_sizes)
    @STANDARD_SETTINGS
    def test_property_to_wire_round_trips(self, case, batch):
        (k0, k1), _ = case.keys()
        keys = [k0 if i % 2 else k1 for i in range(batch)]
        arena = KeyArena.from_keys(keys)
        assert arena.to_wire() == pack_keys(keys)
        assert KeyArena.from_wire(arena.to_wire()) == arena

    def test_to_wire_of_a_slice_carries_only_the_slice(self):
        keys = _make_keys()
        arena = KeyArena.from_keys(keys)
        assert arena[2:5].to_wire() == pack_keys(keys[2:5])


class TestSlicing:
    def test_slices_are_views(self):
        arena = KeyArena.from_keys(_make_keys())
        shard = arena[2:5]
        assert len(shard) == 3
        for field in ARENA_FIELDS:
            assert np.shares_memory(getattr(shard, field), getattr(arena, field)), field

    def test_slice_equals_stacking_the_slice(self):
        keys = _make_keys()
        arena = KeyArena.from_keys(keys)
        _assert_arena_equal(arena[1:4], KeyArena.from_keys(keys[1:4]))

    def test_non_slice_indexing_rejected(self):
        arena = KeyArena.from_keys(_make_keys())
        with pytest.raises(TypeError):
            arena[0]

    def test_empty_slice_rejected_by_eval_entry_points(self):
        arena = KeyArena.from_keys(_make_keys())
        empty = arena[0:0]
        assert len(empty) == 0
        with pytest.raises(ValueError, match="at least one"):
            get_strategy("memory_bounded").eval_batch(empty, PRF)

    def test_sliced_arena_evaluates_like_sliced_keys(self, tile):
        keys = _make_keys()
        arena = KeyArena.from_wire(pack_keys(keys))
        got = WALK.eval_batch(arena[2:6], PRF)
        want = np.stack([eval_full(k, PRF) for k in keys[2:6]])
        assert np.array_equal(got, want)


class TestArenaEvaluation:
    @pytest.mark.parametrize("domain", [1, 2, 13, 100, 257])
    def test_arena_eval_matches_list_eval(self, tile, domain):
        keys = _make_keys(batch=4, domain=domain)
        got = WALK.eval_batch(KeyArena.from_wire(pack_keys(keys)), PRF)
        assert np.array_equal(got, WALK.eval_batch(keys, PRF))

    def test_arena_eval_rejects_wrong_prf(self):
        arena = KeyArena.from_keys(_make_keys())
        with pytest.raises(ValueError, match="reconstruct"):
            get_strategy("memory_bounded").eval_batch(arena, get_prf("siphash"))

    def test_arena_eval_meters_and_counts_identically(self, tile):
        """The arena changes *where* key material lives, not the
        kernel: PRF-block counts and metered peaks stay exact."""
        keys = _make_keys(batch=3, domain=257)
        counting = CountingPrf(PRF)
        meter = MemoryMeter()
        WALK.eval_batch(KeyArena.from_keys(keys), counting, meter)
        cost = WALK.cost(3, 257)
        assert counting.blocks == cost.prf_blocks
        assert meter.peak == cost.peak_mem_bytes
        assert meter.current == 0


class TestWorkspaceReuse:
    def test_workspace_reuse_is_bit_identical(self, tile):
        workspace = ExpansionWorkspace()
        # Interleave shapes so reuse sees growth, shrinkage, and repeat
        # visits of the same shape — stale bytes must never leak.
        shapes = [(4, 100), (2, 257), (4, 100), (1, 13), (4, 100), (2, 64)]
        for seed, (batch, domain) in enumerate(shapes):
            keys = _make_keys(batch=batch, domain=domain, seed=seed)
            fresh = WALK.eval_batch(keys, PRF)
            reused = WALK.eval_batch(keys, PRF, workspace=workspace)
            assert np.array_equal(fresh, reused), (batch, domain)

    def test_workspace_results_survive_the_next_call(self, tile):
        """Returned share matrices must not alias workspace storage."""
        workspace = ExpansionWorkspace()
        keys = _make_keys(batch=2, domain=128)
        first = WALK.eval_batch(keys, PRF, workspace=workspace)
        snapshot = first.copy()
        WALK.eval_batch(_make_keys(batch=2, domain=128, seed=9), PRF, workspace=workspace)
        assert np.array_equal(first, snapshot)

    @given(
        case=dpf_cases(prfs=fast_prf_names),
        batch=batch_sizes,
        tile=tile_rules,
    )
    @STANDARD_SETTINGS
    def test_property_workspace_reuse(self, case, batch, tile):
        (k0, k1), prf = case.keys()
        keys = [k0 if i % 2 else k1 for i in range(batch)]
        workspace = ExpansionWorkspace()
        with tiled(tile):
            want = WALK.eval_batch(keys, prf)
            assert np.array_equal(WALK.eval_batch(keys, prf, workspace=workspace), want)
            assert np.array_equal(WALK.eval_batch(keys, prf, workspace=workspace), want)

    @pytest.mark.parametrize("domain", [1, 2, 3, 4, 1024])
    def test_reducing_walk_leaves_a_writeable_arena_alone(self, tile, domain):
        """A reducing walk converts each tile's leaves in place, in the
        tile's seed words, so those must be the workspace's: below a
        zero-level tile (one leaf, or L <= 2) they would be the arena's
        roots or another slot's nodes."""
        keys = _make_keys(batch=4, domain=domain, seed=domain)
        arena = KeyArena.from_keys(keys)
        assert arena.roots.flags.writeable and arena.root_ts.flags.writeable
        roots, root_ts = arena.roots.tobytes(), arena.root_ts.tobytes()
        oracle = np.stack([eval_full(key, PRF) for key in keys])
        rng = np.random.default_rng(domain)
        table = rng.integers(0, 1 << 64, size=domain, dtype=np.uint64)
        ranges = {(0, domain), (0, (domain + 1) // 2), (domain // 2, domain)}
        ranges |= {(1, domain - 1)} if domain > 2 else set()
        workspace = ExpansionWorkspace()
        for lo, hi in sorted(ranges):
            for _ in range(2):
                got = WALK.eval_batch(
                    arena,
                    PRF,
                    workspace=workspace,
                    eval_range=(lo, hi),
                    reduce=lambda shares, a, z: shares @ table[a:z],
                )
                assert np.array_equal(got, oracle[:, lo:hi] @ table[lo:hi]), (lo, hi)
                assert arena.roots.tobytes() == roots, (lo, hi)
                assert arena.root_ts.tobytes() == root_ts, (lo, hi)

    def test_workspace_grows_monotonically(self):
        workspace = ExpansionWorkspace()
        get_strategy("level_by_level").eval_batch(
            _make_keys(batch=2, domain=256), PRF, workspace=workspace
        )
        grown = workspace.nbytes
        assert grown > 0
        get_strategy("level_by_level").eval_batch(
            _make_keys(batch=1, domain=16), PRF, workspace=workspace
        )
        assert workspace.nbytes == grown  # smaller shapes reuse, not shrink

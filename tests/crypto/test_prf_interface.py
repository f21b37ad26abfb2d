"""Registry, metadata, and statistical sanity tests across all PRFs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import CountingPrf, Prf, available_prfs, get_prf, register_prf
from repro.crypto.prf import prf_name_for_wire_id

ALL_PRFS = ["aes128", "sha256", "chacha20", "siphash", "highwayhash"]


class TestRegistry:
    def test_all_five_paper_prfs_registered(self):
        assert set(ALL_PRFS) <= set(available_prfs())

    def test_unknown_prf_raises(self):
        with pytest.raises(KeyError):
            get_prf("des")

    @pytest.mark.parametrize("name", ALL_PRFS)
    def test_one_shared_instance_per_name(self, name):
        # The MMO key is fixed, so an instance is a constant: a dispatch
        # must not pay for a new key schedule.  Counters wrap, per use.
        assert get_prf(name) is get_prf(name)
        assert CountingPrf(get_prf(name)).inner is get_prf(name)

    def test_wire_ids_are_fixed(self):
        # A key record names its PRF by this byte: changing one is a
        # wire-format change.
        ids = {name: get_prf(name).wire_id for name in ALL_PRFS}
        assert ids == {"aes128": 1, "sha256": 2, "chacha20": 3, "siphash": 4, "highwayhash": 5}
        assert {prf_name_for_wire_id(i) for i in ids.values()} == set(ALL_PRFS)
        assert prf_name_for_wire_id(0) is None
        assert CountingPrf(get_prf("siphash")).wire_id == 4

    @pytest.mark.parametrize(
        "name, wire_id, match",
        [
            ("rot13", 0, "0 is reserved"),
            ("rot13", 256, "in 1..255"),
            ("rot13", 4, "which 'siphash' already holds"),
            ("aes128", 2, "which 'sha256' already holds"),
        ],
    )
    def test_register_refuses_a_reserved_or_taken_wire_id(self, name, wire_id, match):
        before = {n: type(get_prf(n)) for n in available_prfs()}
        cls = type("Candidate", (Prf,), {"name": name, "wire_id": wire_id})
        with pytest.raises(ValueError, match=match):
            register_prf(cls)
        assert {n: type(get_prf(n)) for n in available_prfs()} == before
        assert prf_name_for_wire_id(wire_id) == {2: "sha256", 4: "siphash"}.get(wire_id)

    def test_cost_metadata_reflects_table5_ordering(self):
        # Table 5 (GPU, 1M entries): SipHash > ChaCha20 > HighwayHash >
        # AES-128 ~ SHA-256.  Lower cost = faster.
        costs = {name: get_prf(name).gpu_cost for name in ALL_PRFS}
        assert costs["siphash"] < costs["chacha20"] < costs["highwayhash"]
        assert costs["highwayhash"] < costs["aes128"] <= costs["sha256"]

    def test_standardized_flags(self):
        assert get_prf("aes128").standardized
        assert get_prf("chacha20").standardized
        assert get_prf("sha256").standardized
        assert not get_prf("siphash").standardized
        assert not get_prf("highwayhash").standardized


@pytest.mark.parametrize("name", ALL_PRFS)
class TestCommonContract:
    def test_shape_and_dtype(self, name):
        prf = get_prf(name)
        seeds = np.zeros((10, 16), dtype=np.uint8)
        out = prf.expand(seeds, 0)
        assert out.shape == (10, 16)
        assert out.dtype == np.uint8

    def test_deterministic(self, name):
        prf = get_prf(name)
        rng = np.random.default_rng(7)
        seeds = rng.integers(0, 256, size=(6, 16), dtype=np.uint8)
        assert np.array_equal(prf.expand(seeds, 2), prf.expand(seeds, 2))

    def test_batch_equals_elementwise(self, name):
        prf = get_prf(name)
        rng = np.random.default_rng(8)
        seeds = rng.integers(0, 256, size=(9, 16), dtype=np.uint8)
        batch = prf.expand(seeds, 1)
        for i in range(9):
            assert np.array_equal(batch[i], prf.expand(seeds[i : i + 1], 1)[0])

    def test_output_bits_are_balanced(self, name):
        # A cheap avalanche sanity check: over random seeds, each output
        # bit should be ~50% ones.  Catches gross implementation bugs
        # (stuck lanes, endianness truncation) without being a real
        # randomness test.
        prf = get_prf(name)
        rng = np.random.default_rng(9)
        seeds = rng.integers(0, 256, size=(2048, 16), dtype=np.uint8)
        out = prf.expand(seeds, 0)
        ones = np.unpackbits(out, axis=1).mean()
        assert 0.47 < ones < 0.53

    def test_expand_pair_halves_differ(self, name):
        prf = get_prf(name)
        seeds = np.zeros((3, 16), dtype=np.uint8)
        left, right = prf.expand_pair(seeds)
        assert not np.array_equal(left, right)


class TestCountingPrf:
    def test_counts_calls_and_blocks(self):
        prf = CountingPrf(get_prf("chacha20"))
        seeds = np.zeros((5, 16), dtype=np.uint8)
        prf.expand(seeds, 0)
        prf.expand(seeds, 1)
        assert prf.calls == 2
        assert prf.blocks == 10
        prf.reset()
        assert prf.calls == 0
        assert prf.blocks == 0

    def test_transparent_output(self):
        inner = get_prf("aes128")
        wrapped = CountingPrf(inner)
        seeds = np.arange(16, dtype=np.uint8).reshape(1, 16)
        assert np.array_equal(wrapped.expand(seeds, 0), inner.expand(seeds, 0))


@given(
    data=st.binary(min_size=16, max_size=16),
    tweak=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=25, deadline=None)
def test_property_aes_expand_is_seed_dependent(data, tweak):
    prf = get_prf("aes128")
    seed = np.frombuffer(data, dtype=np.uint8).reshape(1, 16)
    flipped = seed.copy()
    flipped[0, 0] ^= 1
    assert not np.array_equal(prf.expand(seed, tweak), prf.expand(flipped, tweak))

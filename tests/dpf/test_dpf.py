"""Correctness, secrecy-sanity, and serialization tests for the DPF core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import get_prf
from repro.dpf import DpfKey, eval_full, eval_points, gen, key_size_bytes

PRF = get_prf("chacha20")  # fastest standardized PRF; keeps tests quick


def _reconstruct(alpha, domain, beta=1, prf=PRF, seed=0):
    rng = np.random.default_rng(seed)
    k0, k1 = gen(alpha, domain, prf, rng, beta=beta)
    return eval_full(k0, prf) + eval_full(k1, prf)


class TestCorrectness:
    @pytest.mark.parametrize("domain", [1, 2, 3, 4, 7, 8, 16, 100, 256, 1000])
    def test_reconstructs_one_hot(self, domain):
        alpha = domain // 2
        total = _reconstruct(alpha, domain)
        expected = np.zeros(domain, dtype=np.uint64)
        expected[alpha] = 1
        assert np.array_equal(total, expected)

    @pytest.mark.parametrize("alpha", [0, 1, 254, 255])
    def test_boundary_indices(self, alpha):
        total = _reconstruct(alpha, 256)
        assert total[alpha] == 1
        assert total.sum() == 1

    def test_beta_scaling(self):
        beta = 123456789
        total = _reconstruct(37, 64, beta=beta)
        assert total[37] == beta
        assert np.count_nonzero(total) == 1

    def test_beta_wraps_mod_2_64(self):
        beta = (1 << 64) - 1  # == -1 mod 2^64
        total = _reconstruct(5, 16, beta=beta)
        assert int(total[5]) == beta

    @pytest.mark.parametrize("prf_name", ["aes128", "sha256", "chacha20", "siphash", "highwayhash"])
    def test_all_prfs_reconstruct(self, prf_name):
        prf = get_prf(prf_name)
        total = _reconstruct(11, 32, prf=prf)
        expected = np.zeros(32, dtype=np.uint64)
        expected[11] = 1
        assert np.array_equal(total, expected)

    def test_domain_of_one(self):
        total = _reconstruct(0, 1)
        assert total.shape == (1,)
        assert total[0] == 1

    def test_eval_points_matches_full(self):
        rng = np.random.default_rng(3)
        k0, k1 = gen(200, 500, PRF, rng)
        indices = np.array([0, 1, 199, 200, 201, 499])
        full0 = eval_full(k0, PRF)
        full1 = eval_full(k1, PRF)
        assert np.array_equal(eval_points(k0, PRF, indices), full0[indices])
        assert np.array_equal(eval_points(k1, PRF, indices), full1[indices])

    def test_eval_points_rejects_out_of_domain(self):
        rng = np.random.default_rng(4)
        k0, _ = gen(0, 8, PRF, rng)
        with pytest.raises(ValueError):
            eval_points(k0, PRF, np.array([8]))


class TestValidation:
    def test_alpha_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gen(16, 16, PRF, rng)
        with pytest.raises(ValueError):
            gen(-1, 16, PRF, rng)

    def test_empty_domain(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gen(0, 0, PRF, rng)

    def test_prf_mismatch_detected(self):
        rng = np.random.default_rng(0)
        k0, _ = gen(3, 16, PRF, rng)
        with pytest.raises(ValueError, match="PRF"):
            eval_full(k0, get_prf("aes128"))

    def test_object_built_key_with_an_inconsistent_shape_rejected(self):
        """What the wire parsers refuse, the constructor refuses too:
        such a key used to be accepted and only fail, or silently
        mis-index, inside ``eval_full``."""
        k0, _ = gen(3, 100, PRF, np.random.default_rng(0))
        fields = dict(
            party=0,
            domain_size=100,
            log_domain=7,
            root_seed=k0.root_seed,
            root_t=0,
            correction_words=k0.correction_words,
            output_cw=k0.output_cw,
            prf_name=PRF.name,
        )
        assert DpfKey(**fields).to_bytes() == k0.to_bytes()
        with pytest.raises(ValueError, match="inconsistent"):
            DpfKey(**{**fields, "log_domain": 3})
        with pytest.raises(ValueError, match="inconsistent"):
            DpfKey(**{**fields, "domain_size": 0, "log_domain": 0})
        # One word per level of the 50-leaf tree: 6, not log_domain = 7.
        for cws in (k0.correction_words[:-1], k0.correction_words + k0.correction_words[:1]):
            with pytest.raises(ValueError, match="6 correction words"):
                DpfKey(**{**fields, "correction_words": cws})
        with pytest.raises(ValueError, match="2 words"):
            DpfKey(**{**fields, "output_cw": (1,)})


class TestSecrecySanity:
    """Cheap statistical checks that one key alone looks index-independent.

    These are sanity checks on the implementation (e.g. that we did not
    leak alpha into a single key's share values), not a cryptographic
    proof.
    """

    def test_single_share_is_not_one_hot(self):
        rng = np.random.default_rng(5)
        k0, _ = gen(9, 64, PRF, rng)
        share = eval_full(k0, PRF)
        # The share at alpha should be indistinguishable in magnitude
        # from other positions; in particular the share alone must not
        # reveal alpha as an outlier of zeros.
        assert np.count_nonzero(share) > 32

    def test_share_values_look_uniform(self):
        rng = np.random.default_rng(6)
        k0, _ = gen(100, 4096, PRF, rng)
        share = eval_full(k0, PRF)
        # Mean of uniform uint64 ~ 2^63 with std 2^64/sqrt(12*N).
        mean = float(share.mean(dtype=np.float64))
        assert abs(mean - 2**63) < 6 * (2**64) / np.sqrt(12 * 4096)

    def test_keys_differ_between_invocations(self):
        rng = np.random.default_rng(7)
        k0_first, _ = gen(5, 32, PRF, rng)
        k0_second, _ = gen(5, 32, PRF, rng)
        assert not np.array_equal(k0_first.root_seed, k0_second.root_seed)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        k0, k1 = gen(77, 1000, PRF, rng)
        for key in (k0, k1):
            parsed = DpfKey.from_bytes(key.to_bytes())
            assert parsed.party == key.party
            assert parsed.domain_size == key.domain_size
            assert parsed.log_domain == key.log_domain
            assert parsed.output_cw == key.output_cw
            assert parsed.prf_name == key.prf_name
            assert np.array_equal(parsed.root_seed, key.root_seed)
            assert np.array_equal(eval_full(parsed, PRF), eval_full(key, PRF))

    def test_key_size_formula_matches_actual(self):
        rng = np.random.default_rng(9)
        for domain in (1, 2, 16, 1000, 1 << 14):
            k0, _ = gen(domain - 1, domain, PRF, rng)
            assert k0.size_bytes == key_size_bytes(domain, PRF.name)

    def test_key_size_grows_logarithmically(self):
        small = key_size_bytes(1 << 10)
        large = key_size_bytes(1 << 20)
        # 16 seed bytes per extra level; the 9- and 19-level trees pack
        # their control bits into 3 and 5 bytes.
        assert large - small == 10 * 16 + 2

    def test_packed_leaves_need_one_level_fewer(self):
        k0, _ = gen(77, 1024, PRF, np.random.default_rng(1))
        assert (k0.log_domain, k0.depth, len(k0.correction_words)) == (10, 9, 9)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            DpfKey.from_bytes(b"XXXX" + bytes(64))

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            DpfKey.from_bytes(b"\x01")


@given(
    domain=st.integers(min_value=1, max_value=512),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_property_dpf_reconstruction(domain, data):
    alpha = data.draw(st.integers(min_value=0, max_value=domain - 1))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    total = _reconstruct(alpha, domain, seed=seed)
    expected = np.zeros(domain, dtype=np.uint64)
    expected[alpha] = 1
    assert np.array_equal(total, expected)

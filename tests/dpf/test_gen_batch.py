"""The batched key-generation walk against its batch of one.

``gen_batch`` walks every key of a request down the tree together;
``gen`` is that walk for one key.  The properties here hold the batch
to what ``K`` successive ``gen`` calls produce: the same bytes, the
same generator position, and key pairs that reconstruct ``beta`` at
``alpha`` and 0 elsewhere, on the domains where index arithmetic
breaks (1, 2, 3, non-powers of two, ``2^k +- 1``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import available_prfs, get_prf
from repro.crypto.prf import CountingPrf
from repro.dpf import KeyBatch, eval_full, gen, gen_batch
from repro.dpf.ggm import tree_depth

from tests.strategies import (
    STANDARD_SETTINGS,
    awkward_domain_sizes,
    betas,
    prf_names,
    rng_seeds,
)

_U64 = (1 << 64) - 1


@st.composite
def batch_cases(draw):
    domain = draw(awkward_domain_sizes())
    count = draw(st.integers(1, 7))
    # Both words of the last leaf, and the first row, show up often.
    alpha = st.one_of(
        st.sampled_from(sorted({0, max(domain - 2, 0), domain - 1})),
        st.integers(0, domain - 1),
    )
    return {
        "domain": domain,
        "alphas": draw(st.lists(alpha, min_size=count, max_size=count)),
        "betas": draw(
            st.one_of(betas, st.lists(betas, min_size=count, max_size=count))
        ),
        "prf": draw(prf_names),
        "seed": draw(rng_seeds),
    }


@given(case=batch_cases())
@STANDARD_SETTINGS
def test_every_key_of_a_batch_is_a_point_function(case):
    prf = get_prf(case["prf"])
    batch = gen_batch(
        case["alphas"],
        case["domain"],
        prf,
        np.random.default_rng(case["seed"]),
        beta=case["betas"],
    )
    per_key = np.broadcast_to(np.asarray(case["betas"], dtype=object), len(batch))
    for i, (alpha, beta) in enumerate(zip(case["alphas"], per_key)):
        key_0, key_1 = batch.pair(i)
        expected = np.zeros(case["domain"], dtype=np.uint64)
        expected[alpha] = beta & _U64
        assert np.array_equal(eval_full(key_0, prf) + eval_full(key_1, prf), expected)


@given(case=batch_cases())
@STANDARD_SETTINGS
def test_row_i_equals_the_ith_sequential_gen(case):
    prf = get_prf(case["prf"])
    rng, twin = (np.random.default_rng(case["seed"]) for _ in range(2))
    batch = gen_batch(case["alphas"], case["domain"], prf, rng, beta=case["betas"])
    per_key = np.broadcast_to(np.asarray(case["betas"], dtype=object), len(batch))
    for i, (alpha, beta) in enumerate(zip(case["alphas"], per_key)):
        sequential = gen(alpha, case["domain"], prf, twin, beta=beta)
        for got, want in zip(batch.pair(i), sequential):
            assert got.to_bytes() == want.to_bytes()
    # ... and the generator stands where the sequential draws leave it.
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("name", available_prfs())
@pytest.mark.parametrize("domain", [1, 2, 3, 1000, 1024, 4097])
def test_one_cipher_call_per_level_whatever_the_batch(name, domain):
    depth = tree_depth(domain)
    for count in (1, 9):
        prf = CountingPrf(get_prf(name))
        batch = gen_batch(np.arange(count) % domain, domain, prf, np.random.default_rng(5))
        assert isinstance(batch, KeyBatch) and len(batch) == count
        assert prf.calls == depth
        # Two parties' seeds, two children each, at every level.
        assert prf.blocks == 2 * 2 * count * depth


class TestRejectsBeforeDrawing:
    @pytest.mark.parametrize(
        "alphas, domain, match",
        [
            ([0, 8], 8, "alpha=8 out of range for domain of 8"),
            ([3, -1, 9], 8, "alpha=-1 out of range for domain of 8"),
            ([1 << 70], 8, "out of range"),
            ([], 8, "non-empty"),
            ([[1, 2]], 8, "1-D"),
            ([0], 0, "domain_size must be positive, got 0"),
        ],
    )
    def test_bad_arguments_leave_the_generator_alone(self, alphas, domain, match):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            gen_batch(alphas, domain, get_prf("siphash"), rng)
        assert rng.bit_generator.state == before

    def test_scalar_gen_keeps_its_messages(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="alpha=5 out of range for domain of 5"):
            gen(5, 5, get_prf("siphash"), rng)
        with pytest.raises(ValueError, match="domain_size must be positive"):
            gen(0, 0, get_prf("siphash"), rng)

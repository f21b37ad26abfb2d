"""Hypothesis strategies for DPF/PIR property-based tests.

Domain sizes deliberately skew toward small, awkward values
(non-powers-of-two, 1, primes) — that is where index arithmetic breaks —
while staying small enough that the pure-numpy PRFs keep examples fast.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from repro.crypto import available_prfs, get_prf
from repro.dpf import gen

MAX_DOMAIN = 256

_U64 = (1 << 64) - 1


class DpfCase(NamedTuple):
    """One generated DPF instance: the secret point plus both keys."""

    domain_size: int
    alpha: int
    beta: int
    prf_name: str
    seed: int

    def keys(self):
        prf = get_prf(self.prf_name)
        rng = np.random.default_rng(self.seed)
        return gen(self.alpha, self.domain_size, prf, rng, beta=self.beta), prf


def domain_sizes(max_size: int = MAX_DOMAIN) -> st.SearchStrategy[int]:
    """Table sizes, biased toward boundary and non-power-of-two values."""
    return st.one_of(
        st.sampled_from([1, 2, 3, 5, 31, 100, 127, 128]),
        st.integers(min_value=1, max_value=max_size),
    )


AWKWARD_DOMAINS = (1, 2, 3, 5, 7, 13, 15, 17, 31, 33, 63, 65, 127, 129, 251, 255, 256)
"""Where window arithmetic breaks: 1, 2, primes and ``2^k +- 1``."""


def awkward_domain_sizes(max_domain: int = MAX_DOMAIN) -> st.SearchStrategy[int]:
    """Table sizes skewed toward :data:`AWKWARD_DOMAINS`."""
    return st.one_of(
        st.sampled_from([d for d in AWKWARD_DOMAINS if d <= max_domain]),
        st.integers(min_value=1, max_value=max_domain),
    )


@st.composite
def key_ranges(draw, max_domain: int = MAX_DOMAIN) -> tuple[int, int, int]:
    """``(domain_size, lo, hi)`` with ``0 <= lo < hi <= domain_size``.

    Domains skew toward :data:`AWKWARD_DOMAINS`; ranges skew toward the
    edges of the domain (a shard's first and last rows) and toward the
    one-row window.
    """
    domain = draw(awkward_domain_sizes(max_domain))
    lo = draw(st.one_of(st.just(0), st.integers(0, domain - 1)))
    hi = draw(st.one_of(st.just(lo + 1), st.just(domain), st.integers(lo + 1, domain)))
    return domain, lo, hi


def alphas_for_domain(domain_size: int) -> st.SearchStrategy[int]:
    """Valid secret indices for a given table size."""
    return st.integers(min_value=0, max_value=domain_size - 1)


prf_names = st.sampled_from(tuple(available_prfs()))

fast_prf_names = st.sampled_from(("chacha20", "siphash"))
"""The cheap PRFs, for properties that need many examples."""

batch_sizes = st.integers(min_value=1, max_value=6)

betas = st.one_of(st.sampled_from([0, 1, _U64]), st.integers(0, _U64))

rng_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def dpf_cases(
    draw,
    max_domain: int = MAX_DOMAIN,
    prfs: st.SearchStrategy[str] = prf_names,
) -> DpfCase:
    """A full DPF instance description (keys generated lazily)."""
    domain = draw(domain_sizes(max_domain))
    return DpfCase(
        domain_size=domain,
        alpha=draw(alphas_for_domain(domain)),
        beta=draw(betas),
        prf_name=draw(prfs),
        seed=draw(rng_seeds),
    )

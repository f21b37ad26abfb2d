"""A slow independent oracle for the word-packed walks at awkward domains.

``eval_points`` asked for one row at a time walks one root->leaf path
and picks one word of the leaf; nothing in it is shared with the
breadth-first walks beyond the PRG.  Every other evaluation — the
reference ``eval_full``, ``dpf.eval_range`` and the executed walk's
``eval_batch`` at every tile (``tests.strategies.tiles``), on every
ingest form and range — must agree with it bit for bit where leaf
arithmetic breaks: domains 1, 2, 3, primes and
``2^k - 1, 2^k, 2^k + 1``, ranges with every parity of ``lo`` and
``hi``, the one-row range inside a leaf, and an odd domain whose last
leaf uses one word.

The same holds one step further: a walk that is handed a reducer never
shows the matrix, so its sum has to equal the oracle's columns times
the table, its windows have to cover the range once each, and every
backend has to agree with its own unreduced run.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import available_prfs, get_prf
from repro.crypto.prf import CountingPrf
from repro.dpf import eval_full, eval_points, eval_range, gen, pack_keys
from repro.dpf.ggm import tree_depth
from repro.exec import EvalRequest, PlanCache
from repro.gpu import KeyArena, get_strategy

from tests.strategies import (
    BACKEND_FACTORIES,
    STANDARD_SETTINGS,
    batch_sizes,
    fast_prf_names,
    key_ranges,
    rng_seeds,
)

PRF = get_prf("siphash")
WALK = get_strategy("cooperative_groups")  # any design: they all run one walk
BETA = 0xC0FFEE

ORACLE_DOMAINS = (1, 2, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 31, 32, 33, 63, 64, 65)
"""1, 2, 3, primes, and ``2^k - 1, 2^k, 2^k + 1``."""

EXHAUSTIVE_BELOW = 18
"""Domains up to here get every ``(lo, hi)``; larger ones the edges."""


def _alphas(domain):
    """First, last, middle, and both words of the last whole leaf."""
    return sorted({0, domain - 1, domain // 2, max(domain - 2, 0), max(domain - 3, 0)})


def _keys(domain):
    """One key per alpha of interest, parties alternating."""
    rng = np.random.default_rng(domain)
    return [
        gen(alpha, domain, PRF, rng, beta=BETA)[index % 2]
        for index, alpha in enumerate(_alphas(domain))
    ]


@functools.lru_cache(maxsize=None)
def _oracle(domain):
    """``_keys(domain)`` evaluated one key and one row at a time."""
    matrix = np.array(
        [
            [eval_points(key, PRF, np.array([row]))[0] for row in range(domain)]
            for key in _keys(domain)
        ],
        dtype=np.uint64,
    )
    matrix.setflags(write=False)
    return matrix


def _ranges(domain):
    if domain < EXHAUSTIVE_BELOW:
        return [(lo, hi) for lo in range(domain) for hi in range(lo + 1, domain + 1)]
    edges = sorted({0, 1, 2, 3, domain // 2, domain // 2 + 1, domain - 3, domain - 2, domain - 1})
    ranges = {(lo, hi) for lo in edges for hi in edges + [domain] if lo < hi}
    # The one-row range in each word of a leaf.
    ranges |= {(row, row + 1) for row in (domain // 2 & ~1, domain // 2 | 1)}
    return sorted(ranges)


@pytest.mark.parametrize("prf_name", available_prfs())
@pytest.mark.parametrize("domain", ORACLE_DOMAINS)
def test_both_parties_sum_to_beta_at_alpha(prf_name, domain):
    prf = get_prf(prf_name)
    rng = np.random.default_rng(domain)
    for alpha in _alphas(domain):
        key_0, key_1 = gen(alpha, domain, prf, rng, beta=BETA)
        expected = np.zeros(domain, dtype=np.uint64)
        expected[alpha] = BETA
        assert np.array_equal(eval_full(key_0, prf) + eval_full(key_1, prf), expected)
        assert len(key_0.correction_words) == tree_depth(domain)


@pytest.mark.parametrize("domain", ORACLE_DOMAINS)
def test_reference_walks_agree_with_the_oracle(domain):
    for key, oracle in zip(_keys(domain), _oracle(domain)):
        assert np.array_equal(eval_full(key, PRF), oracle)
        for lo, hi in _ranges(domain):
            assert np.array_equal(eval_range(key, PRF, lo, hi), oracle[lo:hi]), (lo, hi)


@pytest.mark.parametrize("domain", ORACLE_DOMAINS)
def test_every_tile_and_ingest_form_agrees_with_the_oracle(tile, domain):
    keys, oracle = _keys(domain), _oracle(domain)
    for source in (keys, pack_keys(keys), KeyArena.from_keys(keys)):
        assert np.array_equal(WALK.eval_batch(source, PRF), oracle)
    arena = KeyArena.from_wire(pack_keys(keys))
    for lo, hi in _ranges(domain):
        got = WALK.eval_batch(arena, PRF, eval_range=(lo, hi))
        assert got.flags.c_contiguous
        assert np.array_equal(got, oracle[:, lo:hi]), (lo, hi)


def _odd_partition(domain, shards):
    """``shards`` contiguous ranges whose inner boundaries are all odd."""
    cuts = sorted({(domain * i // shards) | 1 for i in range(1, shards)} - {domain})
    bounds = [0] + [cut for cut in cuts if 0 < cut < domain] + [domain]
    return list(zip(bounds, bounds[1:]))


@pytest.mark.parametrize("shards", [1, 2, 3, 5])
@pytest.mark.parametrize("domain", [5, 63, 64, 65, 251, 1000])
def test_odd_boundary_shards_concatenate_and_share_one_tree(tile, shards, domain):
    """A boundary inside a leaf makes both neighbours expand that leaf:
    one extra root->leaf path per boundary, two blocks per level, no
    more."""
    keys = _keys(domain)
    ranges = _odd_partition(domain, shards)
    counting = CountingPrf(PRF)
    parts = [WALK.eval_batch(keys, counting, eval_range=r) for r in ranges]
    whole = np.stack([eval_full(key, PRF) for key in keys])
    assert np.array_equal(np.concatenate(parts, axis=1), whole)
    one_tree = WALK.cost(len(keys), domain).prf_blocks
    extra_paths = len(keys) * (len(ranges) - 1) * 2 * tree_depth(domain)
    assert one_tree <= counting.blocks <= one_tree + extra_paths
    assert counting.blocks == sum(
        WALK.cost(len(keys), domain, r).prf_blocks for r in ranges
    )


def _table(domain, width=None):
    """A seeded table over ``domain`` rows, ``width`` words wide."""
    shape = (domain,) if width is None else (domain, width)
    return np.random.default_rng(1000 + domain).integers(0, 1 << 64, size=shape, dtype=np.uint64)


class _Recording:
    """``shares @ table[lo:hi]`` that keeps the windows it was handed."""

    def __init__(self, table, batch):
        self.table, self.batch, self.windows = table, batch, []

    def __call__(self, shares, lo, hi):
        assert shares.shape == (self.batch, hi - lo) and shares.dtype == np.uint64
        self.windows.append((lo, hi))
        return shares @ self.table[lo:hi]

    def covers_once(self, lo, hi):
        """The windows are ``[lo, hi)`` cut into consecutive pieces."""
        edges = [lo] + [z for _, z in self.windows]
        return self.windows == list(zip(edges, edges[1:])) and edges[-1] == hi


@pytest.mark.parametrize("domain", ORACLE_DOMAINS)
def test_every_tile_reduces_to_the_oracle_times_the_table(tile, domain):
    keys, oracle, table = _keys(domain), _oracle(domain), _table(domain)
    sources = (keys, pack_keys(keys), KeyArena.from_keys(keys))
    for lo, hi in _ranges(domain):
        expected = oracle[:, lo:hi] @ table[lo:hi]
        # Every parity of (lo, hi) on every ingest form; the arena
        # alone carries the rest of the ranges.
        edge = lo <= 1 or hi >= domain - 1
        for source in sources if edge else sources[2:]:
            reducer = _Recording(table, len(keys))
            got = WALK.eval_batch(source, PRF, eval_range=(lo, hi), reduce=reducer)
            assert np.array_equal(got, expected), (lo, hi)
            assert reducer.covers_once(lo, hi), (lo, hi, reducer.windows)


@pytest.mark.parametrize("domain", ORACLE_DOMAINS)
def test_a_wide_reducer_sums_to_the_wide_answer(tile, domain):
    """Three words per record: the reducer returns ``(B, 3)``, the walk
    does not know."""
    keys, oracle, table = _keys(domain), _oracle(domain), _table(domain, width=3)
    for lo, hi in [(0, domain)] + [r for r in _ranges(domain) if r[0] % 2 and r[1] % 2][:3]:
        got = WALK.eval_batch(
            keys, PRF, eval_range=(lo, hi), reduce=lambda shares, a, z: shares @ table[a:z]
        )
        assert got.shape == (len(keys), 3)
        assert np.array_equal(got, oracle[:, lo:hi] @ table[lo:hi]), (lo, hi)


@pytest.mark.parametrize("batch", [2, 16])
def test_the_walk_reduces_tile_by_tile(batch):
    """Past one tile the reducer is called more than once, on whole
    tiles except at the clipped ends, and a whole tile is 512 leaves —
    1,024 rows — whatever the batch."""
    domain, (lo, hi) = 1 << 16, (1001, (1 << 16) - 3)
    rng = np.random.default_rng(16)
    keys = [gen(int(rng.integers(domain)), domain, PRF, rng)[i % 2] for i in range(batch)]
    table = _table(domain)
    reducer = _Recording(table, len(keys))
    got = WALK.eval_batch(keys, PRF, eval_range=(lo, hi), reduce=reducer)
    assert np.array_equal(got, WALK.eval_batch(keys, PRF, eval_range=(lo, hi)) @ table[lo:hi])
    assert reducer.covers_once(lo, hi)
    widths = {z - a for a, z in reducer.windows[1:-1]}
    assert len(reducer.windows) > 2 and widths == {1024}


@pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
@STANDARD_SETTINGS
@given(
    shape=key_ranges(),
    batch=batch_sizes,
    prf_name=fast_prf_names,
    seed=rng_seeds,
    cached=st.booleans(),
)
def test_every_backend_reduces_to_its_own_matrix_times_the_table(
    backend_name, shape, batch, prf_name, seed, cached
):
    """``run(request with a reducer)`` is ``run(request) @ table[lo:hi]``:
    restricted, through a ``PlanCache`` (whose bucket plan may be another
    batch's), and merged from one-key requests and split again."""
    domain, lo, hi = shape
    prf = get_prf(prf_name)
    rng = np.random.default_rng(seed)
    keys = [gen(int(rng.integers(domain)), domain, prf, rng)[i % 2] for i in range(batch)]
    table = rng.integers(0, 1 << 64, size=domain, dtype=np.uint64)
    backend = BACKEND_FACTORIES[backend_name]()
    cache = PlanCache()

    def run(request):
        return cache.run(backend, request) if cached else backend.run(request)

    def reduce(shares, a, z):
        return shares @ table[a:z]

    plain = EvalRequest(keys=pack_keys(keys), prf_name=prf_name).restrict(lo, hi)
    expected = run(plain) @ table[lo:hi]
    assert np.array_equal(run(replace(plain, reduce=reduce)), expected)
    # The reducer survives restrict() and merge()/unmerge().
    whole = EvalRequest(keys=keys, prf_name=prf_name, reduce=reduce)
    assert np.array_equal(run(whole.restrict(lo, hi)), expected)
    singles = EvalRequest.unmerge(whole.restrict(lo, hi), [1] * batch)
    merged, sizes = EvalRequest.merge(singles)
    pieces = np.split(run(merged), np.cumsum(sizes)[:-1])
    assert [piece.shape for piece in pieces] == [(1,)] * batch
    assert np.array_equal(np.concatenate(pieces), expected)

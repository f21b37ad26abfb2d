"""DPF key generation and evaluation (paper Section 3.1).

``gen_batch`` runs on the client (cheap, O(log L) PRF blocks per key —
Figure 3 — and one PRF *call* per tree level for all the keys of a
request together; ``gen`` is its batch of one);
``eval_full`` runs on the servers (O(L) PRF calls, the paper's
acceleration target).  ``eval_full`` here is the *reference* level-by-
level expansion; the GPU strategies in :mod:`repro.gpu.strategies`
provide the accelerated/instrumented traversals and are tested for
bit-equality against this function.

Leaves are word-packed (:mod:`repro.dpf.ggm`): table row ``r`` is word
``r % 2`` of leaf ``r // 2``, so every walk here runs over the
``ceil(L / 2)``-leaf tree and costs half the PRF blocks of a
one-row-per-leaf tree.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crypto.prf import Prf, SEED_BYTES
from repro.dpf import ggm
from repro.dpf.keys import DpfKey, KeyBatch

_U64_MASK = (1 << 64) - 1


def gen(
    alpha: int,
    domain_size: int,
    prf: Prf,
    rng: np.random.Generator,
    beta: int = 1,
) -> tuple[DpfKey, DpfKey]:
    """Generate the two DPF keys encoding ``f(alpha) = beta``.

    The batch-of-one call of :func:`gen_batch`, returned as key objects.

    Args:
        alpha: Secret index in ``[0, domain_size)``.
        domain_size: Table size L.
        prf: PRF shared with the evaluating servers.
        rng: Source of the random root seeds.
        beta: Output value at ``alpha`` (mod 2^64); PIR uses 1.

    Returns:
        ``(key_0, key_1)`` for the two non-colluding servers.

    Raises:
        ValueError: If ``alpha`` is out of range or the domain is empty.
    """
    return gen_batch([alpha], domain_size, prf, rng, beta).pair(0)


def gen_batch(
    alphas: Sequence[int] | np.ndarray,
    domain_size: int,
    prf: Prf,
    rng: np.random.Generator,
    beta: int | Sequence[int] | np.ndarray = 1,
) -> KeyBatch:
    """Generate the key pairs of ``K`` points in one walk down the tree.

    All ``2K`` party seeds descend together: one
    :meth:`~repro.crypto.prf.Prf.expand_pair_stacked` call per level,
    with the path bits, the keep/lose selection, the correction words
    and the control-bit fixes computed for every key at once.  A PRF
    call costs about the same for 512 seeds as for 2, so ``K`` keys
    cost little more than one.

    The root seeds are one key-major ``(K, 2, 16)`` draw, which leaves
    ``rng`` exactly where ``K`` successive :func:`gen` calls would; key
    ``i`` is byte-identical to the ``i``-th of those calls.

    Args:
        alphas: The ``K`` secret indices, each in ``[0, domain_size)``.
        domain_size: Table size L.
        prf: PRF shared with the evaluating servers.
        rng: Source of the random root seeds.  Not touched unless every
            argument is valid.
        beta: Output value at each ``alpha`` (mod 2^64), one for all
            keys or one per key; PIR uses 1.

    Raises:
        ValueError: If ``alphas`` is empty, any alpha is out of range,
            or the domain is empty.
    """
    if domain_size <= 0:
        raise ValueError(f"domain_size must be positive, got {domain_size}")
    alphas = np.asarray(alphas)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError(
            f"alphas must be a non-empty 1-D sequence, got shape {alphas.shape}"
        )
    out_of_range = (alphas < 0) | (alphas >= domain_size)
    if out_of_range.any():
        raise ValueError(
            f"alpha={int(alphas[out_of_range][0])} out of range for domain "
            f"of {domain_size}"
        )
    count = alphas.shape[0]
    # Reduced as Python integers, so any sign or magnitude wraps mod 2^64.
    betas = np.atleast_1d(np.asarray(beta, dtype=object)) & _U64_MASK
    betas = np.broadcast_to(betas.astype(np.uint64), (count,))
    n = ggm.tree_depth(domain_size)
    leaves, words = np.divmod(alphas.astype(np.int64), ggm.LEAF_WORDS)
    rows = np.arange(count)

    # (key, party, byte): party A's seed then party B's, key by key.
    roots = rng.integers(0, 256, size=(count, 2, SEED_BYTES), dtype=np.uint8)
    seeds = roots
    ts = np.tile(np.array([0, 1], dtype=np.uint8), (count, 1))
    cw_seeds = np.empty((count, n, SEED_BYTES), dtype=np.uint8)
    cw_ts = np.empty((2, count, n), dtype=np.uint8)  # [left, right]
    for level in range(n):
        path_bits = ((leaves >> (n - 1 - level)) & 1).astype(np.uint8)
        # (side, key, party, byte): every left child, then every right.
        children = prf.expand_pair_stacked(
            seeds.reshape(2 * count, SEED_BYTES)
        ).reshape(2, count, 2, SEED_BYTES)
        child_ts = children[..., 0] & 1
        keep, lose = children[path_bits, rows], children[path_bits ^ 1, rows]

        cw_seed = lose[:, 0] ^ lose[:, 1]
        cw_seeds[:, level] = cw_seed
        # The kept side's two control bits must differ, the lost side's agree.
        cw_t = child_ts[:, :, 0] ^ child_ts[:, :, 1] ^ path_bits
        cw_t[0] ^= 1
        cw_ts[:, :, level] = cw_t

        seeds = keep ^ (cw_seed[:, np.newaxis] * ts[:, :, np.newaxis])
        ts = child_ts[path_bits, rows] ^ (ts & cw_t[path_bits, rows, np.newaxis])

    # The leaf's two words are two table rows: beta goes to alpha's
    # word and the other row of the leaf reconstructs to 0.
    conv = ggm.convert_to_u64(seeds)
    output_cws = conv[:, 1] - conv[:, 0]
    output_cws[rows, words] += betas
    flip = ts[:, 1] == 1
    output_cws[flip] = -output_cws[flip]

    return KeyBatch(
        domain_size=domain_size,
        prf_name=prf.name,
        roots=roots,
        cw_seeds=cw_seeds,
        cw_t_left=cw_ts[0],
        cw_t_right=cw_ts[1],
        output_cws=output_cws,
    )


_BITREV_CACHE: dict[int, np.ndarray] = {}
_BITREV_CACHE_MAX_BITS = 20
"""Depths above this (8 MiB+ of int64 indices each) are rebuilt per call
rather than retained, so sweeping domain sizes cannot accumulate
unbounded resident permutations."""


def _bitrev_perm(n: int) -> np.ndarray:
    """The n-bit bit-reversal permutation of ``arange(2**n)``."""
    perm = _BITREV_CACHE.get(n)
    if perm is None:
        idx = np.arange(1 << n, dtype=np.int64)
        perm = np.zeros_like(idx)
        for bit in range(n):
            perm |= ((idx >> bit) & 1) << (n - 1 - bit)
        if n <= _BITREV_CACHE_MAX_BITS:
            _BITREV_CACHE[n] = perm
    return perm


def eval_full(key: DpfKey, prf: Prf) -> np.ndarray:
    """Expand a key over the whole domain (reference level-by-level walk).

    The expansion keeps each level's children in ``[left | right]``
    block order (the layout the fused
    :meth:`~repro.crypto.prf.Prf.expand_pair` produces) instead of
    interleaving per parent; per-level corrections and control bits are
    order-independent, so a single bit-reversal gather at the leaves
    restores natural index order bit-identically while the per-level
    work stays two XOR passes plus one fused cipher invocation.

    Returns:
        ``(domain_size,)`` uint64 array of output shares; adding both
        parties' arrays mod 2^64 yields ``beta`` at ``alpha`` and 0
        elsewhere.
    """
    _check_prf(key, prf)
    seeds = key.root_seed[np.newaxis, :].copy()
    ts = np.array([key.root_t], dtype=np.uint8)
    for cw in key.correction_words:
        width = seeds.shape[0]
        new_seeds = prf.expand_pair_stacked(seeds)
        t_left = new_seeds[:width, 0] & 1
        t_right = new_seeds[width:, 0] & 1
        corr = ggm.correction_u64(cw.seed, ts)
        words = new_seeds.view(np.uint64).reshape(2 * width, 2)
        words[:width] ^= corr
        words[width:] ^= corr
        new_ts = np.empty(2 * width, dtype=np.uint8)
        np.bitwise_xor(t_left, ts & np.uint8(cw.t_left), out=new_ts[:width])
        np.bitwise_xor(t_right, ts & np.uint8(cw.t_right), out=new_ts[width:])
        seeds, ts = new_seeds, new_ts
    values = ggm.leaf_values(seeds, ts, key.output_cw, key.party)
    # Undo the [left | right] block layout: leaf i sits at bitrev(i);
    # an odd domain leaves the last leaf's second word unused.
    return values[_bitrev_perm(key.depth)].reshape(-1)[: key.domain_size]


def eval_range(key: DpfKey, prf: Prf, lo: int, hi: int) -> np.ndarray:
    """Expand a key over the contiguous sub-domain ``[lo, hi)`` only.

    This is the shard-server evaluation path: a server holding rows
    ``[lo, hi)`` of the table needs the key's shares on exactly those
    rows, and expanding the whole tree to throw most of it away would
    make sharding a no-op for compute.  The walk keeps, per level, only
    the GGM nodes whose subtrees intersect ``[lo, hi)`` — in natural
    index order that set is one contiguous window
    ``[lo >> shift, (hi - 1) >> shift]``, so each level is a single
    :func:`repro.dpf.ggm.expand_level` over the window followed by a
    clip.  Cost is ``O((hi - lo) + log L)`` PRF pairs instead of
    ``O(L)``.

    Returns:
        ``(hi - lo,)`` uint64 output shares, bit-identical to
        ``eval_full(key, prf)[lo:hi]`` (pinned by
        ``tests/dpf/test_properties.py``).

    Raises:
        ValueError: On a PRF mismatch or a range that is empty or falls
            outside ``[0, domain_size)``.
    """
    _check_prf(key, prf)
    if not 0 <= lo < hi <= key.domain_size:
        raise ValueError(
            f"range [{lo}, {hi}) is not a non-empty sub-range of the "
            f"domain [0, {key.domain_size})"
        )
    n = key.depth
    leaf_lo, leaf_hi = ggm.leaf_window(lo, hi)
    seeds = key.root_seed[np.newaxis, :].copy()
    ts = np.array([key.root_t], dtype=np.uint8)
    node_lo = 0  # natural-order index of seeds[0] at the current level
    for level, cw in enumerate(key.correction_words):
        seeds, ts = ggm.expand_level(
            prf, seeds, ts, cw.seed, cw.t_left, cw.t_right
        )
        # Children cover natural-order nodes [2*node_lo, 2*node_lo + 2m);
        # keep only those whose subtree meets the leaf window.
        keep_lo, keep_hi = ggm.level_window(n, level + 1, leaf_lo, leaf_hi)
        seeds = seeds[keep_lo - 2 * node_lo : keep_hi - 2 * node_lo]
        ts = ts[keep_lo - 2 * node_lo : keep_hi - 2 * node_lo]
        node_lo = keep_lo
    # The surviving frontier is exactly the leaf window, in order.
    values = ggm.leaf_values(seeds, ts, key.output_cw, key.party)
    return ggm.window_rows(values.reshape(-1), lo, hi)


def eval_points(key: DpfKey, prf: Prf, indices: np.ndarray) -> np.ndarray:
    """Evaluate a key at a set of indices without a full expansion.

    This is the O(|indices| log L) path walk; useful for client-side
    spot checks and tests.  Server-side PIR always needs the full
    expansion (it must touch every row to stay oblivious).

    Returns:
        ``(len(indices),)`` uint64 output shares.
    """
    _check_prf(key, prf)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= key.domain_size):
        raise ValueError("index out of domain")
    m = indices.shape[0]
    leaves, words = np.divmod(indices, ggm.LEAF_WORDS)
    seeds = np.broadcast_to(key.root_seed, (m, 16)).copy()
    ts = np.full(m, key.root_t, dtype=np.uint8)
    n = key.depth
    for level, cw in enumerate(key.correction_words):
        bits = ((leaves >> (n - 1 - level)) & 1).astype(np.uint8)
        s_left, t_left, s_right, t_right = ggm.prg_expand(prf, seeds, ts)
        chosen_s = np.where(bits[:, np.newaxis] == 0, s_left, s_right)
        chosen_t = np.where(bits == 0, t_left, t_right)
        cw_t = np.where(bits == 0, np.uint8(cw.t_left), np.uint8(cw.t_right))
        seeds = chosen_s ^ (cw.seed[np.newaxis, :] * ts[:, np.newaxis])
        ts = (chosen_t ^ (ts & cw_t)).astype(np.uint8)
    values = ggm.leaf_values(seeds, ts, key.output_cw, key.party)
    return values[np.arange(m), words]


def _check_prf(key: DpfKey, prf: Prf) -> None:
    if key.prf_name != prf.name:
        raise ValueError(
            f"key was generated for PRF {key.prf_name!r} but evaluation "
            f"uses {prf.name!r}; the parties would not reconstruct"
        )

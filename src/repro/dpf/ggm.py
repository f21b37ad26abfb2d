"""GGM-tree expansion primitives shared by DPF Gen/Eval and GPU kernels.

The DPF evaluation (paper Eq. 1--3, Figure 4) is the expansion of a
binary tree of 128-bit seeds: each node carries a seed ``s`` and a
control bit ``t``; its children are derived with two PRF calls plus a
per-level correction applied when ``t = 1``.  These helpers implement
that step vectorized over an arbitrary frontier of nodes, which is the
building block every parallelization strategy in :mod:`repro.gpu`
reuses.

Leaves are *word-packed* (the early-termination form of the BGI
construction): a 16-byte leaf seed is already pseudorandom, so its two
64-bit words are read as the shares of two adjacent table rows.  Leaf
``j`` answers rows ``2j`` and ``2j + 1``, the tree over ``L`` rows has
``ceil(L / 2)`` leaves, and the last level of a one-row-per-leaf tree —
half of its PRF blocks — is never expanded.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.prf import SEED_BYTES, Prf, seeds_to_u64

LEAF_WORDS = SEED_BYTES // 8
"""Table rows answered by one GGM leaf: the 64-bit words of its seed."""


def log2_ceil(value: int) -> int:
    """``ceil(log2(value))``, 0 for value <= 1.

    Integer-exact (no float log), shared by key generation, key-size
    accounting, and every GPU strategy.
    """
    return max(int(value - 1).bit_length(), 0)


def tree_depth(domain_size: int) -> int:
    """Levels of the GGM tree over ``domain_size`` word-packed rows.

    ``log2_ceil(ceil(L / LEAF_WORDS))``: one less than ``log2_ceil(L)``
    from ``L = 2`` up, and 0 for the one- and two-row domains whose
    root seed is the only leaf.
    """
    return log2_ceil(-(-domain_size // LEAF_WORDS))


def leaf_window(lo: int, hi: int) -> tuple[int, int]:
    """The leaves ``[lo // 2, ceil(hi / 2))`` that hold rows ``[lo, hi)``.

    The window's words are rows ``[2 * (lo // 2), 2 * ceil(hi / 2))``:
    at most one row more than asked for at each end.
    """
    return lo // LEAF_WORDS, -(-hi // LEAF_WORDS)


def window_rows(words: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows ``[lo, hi)`` out of the words of :func:`leaf_window` ``(lo, hi)``.

    ``words`` holds, along its last axis, the flattened words of those
    leaves — rows ``[2 * (lo // 2), 2 * ceil(hi / 2))``; the result is a
    view that drops the at most one extra row at each end.
    """
    first_row = LEAF_WORDS * (lo // LEAF_WORDS)
    return words[..., lo - first_row : hi - first_row]


def level_window(depth: int, level: int, lo: int, hi: int) -> tuple[int, int]:
    """The ``level``-nodes whose subtrees meet leaves ``[lo, hi)``.

    In natural index order those nodes of a depth-``depth`` tree are one
    contiguous window ``[lo >> shift, ((hi - 1) >> shift) + 1)`` with
    ``shift = depth - level``: a range-restricted walk keeps exactly
    this window at every level (the root window is always ``(0, 1)``,
    the leaf window is ``(lo, hi)`` itself).
    """
    shift = depth - level
    return lo >> shift, ((hi - 1) >> shift) + 1


def prg_expand(
    prf: Prf, seeds: np.ndarray, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Length-doubling PRG on a frontier of nodes.

    Args:
        prf: The PRF backing the PRG (Matyas--Meyer--Oseas mode).
        seeds: ``(N, 16)`` uint8 node seeds.
        ts: ``(N,)`` uint8 control bits (0/1); unused here but accepted
            so call sites read naturally — correction happens in
            :func:`apply_correction`.

    Returns:
        ``(left_seeds, left_ts, right_seeds, right_ts)`` where seeds are
        ``(N, 16)`` uint8 and control bits ``(N,)`` uint8 extracted from
        the low bit of each child block's first byte.
    """
    del ts  # The PRG depends only on the seed.
    left, right = prf.expand_pair(seeds)
    return left, left[:, 0] & 1, right, right[:, 0] & 1


def apply_correction(
    child_seeds: np.ndarray,
    child_ts: np.ndarray,
    parent_ts: np.ndarray,
    cw_seed: np.ndarray,
    cw_t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a level's correction word where the parent control bit is set.

    Args:
        child_seeds: ``(N, 16)`` uint8 child seeds (mutated copy returned).
        child_ts: ``(N,)`` uint8 child control bits.
        parent_ts: ``(N,)`` uint8 parent control bits.
        cw_seed: ``(16,)`` uint8 seed correction word.
        cw_t: Control-bit correction (0/1) for this child side.

    Returns:
        Corrected ``(seeds, ts)``.
    """
    mask = parent_ts.astype(np.uint8)
    seeds = child_seeds ^ (cw_seed[np.newaxis, :] * mask[:, np.newaxis])
    ts = (child_ts ^ (mask & np.uint8(cw_t))).astype(np.uint8)
    return seeds, ts


def correction_u64(cw_seed: np.ndarray, parent_ts: np.ndarray) -> np.ndarray:
    """Per-node seed correction as ``(N, 2)`` uint64 words.

    The 16-byte correction word is XORed into a child seed exactly when
    the parent control bit is 1; because the mask is 0/1, multiplying
    the two uint64 halves of the correction word by it is bit-identical
    to the bytewise ``cw * mask`` and an eighth of the element count.
    """
    cw64 = seeds_to_u64(cw_seed.reshape(1, 16))
    return cw64 * parent_ts.astype(np.uint64)[:, np.newaxis]


def expand_level(
    prf: Prf,
    seeds: np.ndarray,
    ts: np.ndarray,
    cw_seed: np.ndarray,
    cw_t_left: int,
    cw_t_right: int,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand a frontier one level, interleaving children in index order.

    Node ``j`` at the current depth produces children ``2j`` (left) and
    ``2j + 1`` (right) at the next depth, so the returned arrays hold
    ``2N`` nodes in natural index order.

    The PRG runs as a single fused cipher pass
    (:meth:`~repro.crypto.prf.Prf.expand_pair`), and the seed
    corrections are applied as uint64-view XORs in place on the cipher
    output before the interleave.

    Args:
        out: Optional ``(seeds, ts)`` destination arrays of shape
            ``(2N, 16)`` / ``(2N,)`` uint8; callers expanding level by
            level pass ping-pong buffers here to avoid reallocating the
            frontier on every level.

    Returns:
        ``(seeds, ts)`` of shape ``(2N, 16)`` / ``(2N,)`` — the ``out``
        arrays when provided.
    """
    n = seeds.shape[0]
    s_left, s_right = prf.expand_pair(seeds)
    # Control bits come from the *uncorrected* child blocks.
    t_left = s_left[:, 0] & 1
    t_right = s_right[:, 0] & 1
    corr = correction_u64(cw_seed, ts)
    s_left = np.ascontiguousarray(s_left)
    s_right = np.ascontiguousarray(s_right)
    s_left.view(np.uint64)[:] ^= corr
    s_right.view(np.uint64)[:] ^= corr
    mask = ts.astype(np.uint8)
    t_left = (t_left ^ (mask & np.uint8(cw_t_left))).astype(np.uint8)
    t_right = (t_right ^ (mask & np.uint8(cw_t_right))).astype(np.uint8)

    if out is None:
        out_seeds = np.empty((2 * n, 16), dtype=np.uint8)
        out_ts = np.empty(2 * n, dtype=np.uint8)
    else:
        out_seeds, out_ts = out
    out_seeds[0::2] = s_left
    out_seeds[1::2] = s_right
    out_ts[0::2] = t_left
    out_ts[1::2] = t_right
    return out_seeds, out_ts


def convert_to_u64(seeds: np.ndarray) -> np.ndarray:
    """View ``(..., 16)`` leaf seeds as ``(..., 2)`` words of Z_{2^64} (LE).

    Zero-copy: only the last axis has to be contiguous, which holds for
    every frontier slice the traversals produce.
    """
    return seeds.view("<u8")


def leaf_values(
    seeds: np.ndarray, ts: np.ndarray, output_cw: tuple[int, int], party: int
) -> np.ndarray:
    """Final share conversion at the leaves.

    Party ``b`` outputs ``(-1)^b * (convert(s) + t * CW_out)`` mod 2^64,
    word by word, so that the two parties' leaves sum to ``beta`` in
    row ``alpha`` and to 0 in every other row.

    Returns:
        ``(N, 2)`` uint64 output shares: row ``i`` holds the two table
        rows of leaf ``i``, so flattening it yields table-row order.
    """
    cw = np.array([word % (1 << 64) for word in output_cw], dtype=np.uint64)
    values = convert_to_u64(seeds) + ts.astype(np.uint64)[:, np.newaxis] * cw
    if party == 1:
        np.negative(values, out=values)
    return values

"""The paper's four GPU kernel designs, modeled, and the one walk that runs.

Section 3.2 of the paper explores four ways to map the GGM-tree
expansion of a DPF onto a SIMT device, trading PRF recomputation
against live memory (Figure 6):

* :class:`BranchParallel` — one thread per *leaf*; every thread walks
  root->leaf independently.  Maximum parallelism from the first wave
  and no intermediate storage on a real GPU (the path seed lives in a
  register), at the price of O(L log L) PRF work per query.
* :class:`LevelByLevel` — the textbook breadth-first expansion; O(L)
  PRF work but the whole frontier is materialized in global memory,
  O(B L) bytes for a batch of B queries, plus an unfused second kernel
  for the table dot product.
* :class:`MemoryBoundedTree` — expand the top of the tree to a frontier
  of K subtree roots, then depth-first traverse the K subtrees in
  parallel lanes with an explicit per-level stack: O(L) PRF work with
  only O(B K log L) live bytes, fused with the dot product.  This is
  the paper's headline kernel and its Table 4 calibration target.
* :class:`CooperativeGroups` — a single cooperative launch that keeps
  each subtree tile resident in shared memory, paying occupancy (the
  tile evicts resident blocks) instead of global-memory traffic.

Each design is a *model*: :meth:`Strategy.plan` emits its
:class:`~repro.gpu.kernel.KernelPlan` — phases, PRF blocks, device
footprint — which :mod:`repro.gpu.sim` prices and the scheduler chooses
among.  The plan prices the paper's kernel, one table row per leaf,
because that is what the device model was calibrated against (Table 4).

What executes on this host is one walk, the same whichever design was
chosen (:meth:`Strategy.eval_batch`): breadth-first down to the roots of
tiles of ``T`` leaves, then groups of tiles breadth-first through their
first shared levels, then each tile breadth-first in a reusable buffer
and handed on — into a share matrix, or into a reducer, so that the
``(B, L)`` matrix never exists.  ``T`` is 512 leaves, clamped to the
tree; at every served shape that is the whole tree.  In numpy the O(L)
designs differ only in how they tile, and the tile is what sets both
the time and the memory (``docs/performance.md``), so one tiled walk
replaces four.  It is
bit-identical to :func:`repro.dpf.dpf.eval_full`, meters its expansion
buffers through :class:`~repro.gpu.memory.MemoryMeter`, and
:meth:`Strategy.cost` is its exact count.  The converted output shares
are not metered: on a device they are accumulated straight into the dot
product.

Leaves are word-packed (:mod:`repro.dpf.ggm`): a leaf seed's two 64-bit
words are the shares of two adjacent table rows, so the walk runs over
the ``ceil(L / 2)``-leaf tree — half the PRF blocks of the paper's
one-row-per-leaf kernels.

A registry mirrors :mod:`repro.crypto.prf`:
:func:`available_strategies` / :func:`get_strategy`.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.crypto.prf import Prf, get_prf
from repro.dpf import ggm
from repro.dpf.keys import key_size_bytes
from repro.gpu.arena import ExpansionWorkspace, KeyArena, KeySource, thread_workspace
from repro.gpu.kernel import KernelPhase, KernelPlan
from repro.gpu.memory import MemoryMeter

NODE_BYTES = 17
"""Metered bytes per live tree node: a 16-byte seed plus its control bit."""

_LOG_TILE = 9
"""log2 of the walk's tile leaf count ``T``, clamped to the tree: the
whole 2^9-leaf tree of a 2^10-row table, 512-leaf tiles of a larger
one."""

_GROUP_DEPTH = 4
"""Levels that a group of tiles expands together before its tiles split.

A group is ``2**(t - 1 - a)`` consecutive tiles, ``a`` this constant
clamped to ``t - 1``.  Its ``a`` shared levels end at ``T / 2`` nodes a
key, the width of a tile's widest parent level, and each tile goes on
from its ``2**a`` of them.  At ``t = 9`` both start 16 nodes a key
wide, so at ``offline_batch``'s B = 32, L = 2^16 no call below the tile
roots is narrower than 512 seeds (ungrouped tiles made 390 of 582 calls
at 1,024 seeds or fewer)."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class StrategyCost:
    """Exact cost of one :meth:`Strategy.eval_batch` call (Figure 6 quantities).

    Tests assert ``prf_blocks`` against a
    :class:`~repro.crypto.prf.CountingPrf` and ``peak_mem_bytes``
    against the walk's :class:`~repro.gpu.memory.MemoryMeter` peak.  Both
    are counts of the walk that ran, which is the same for every design;
    a design's modeled counts are in its :class:`KernelPlan`.

    Attributes:
        strategy: Registry name of the design the call was made for.
        batch_size: Queries per invocation B.
        domain_size: Table size L.
        prf_blocks: Total PRF block evaluations.
        peak_mem_bytes: Peak live bytes of the expansion working set.
        parallel_width: Maximum exposed parallelism (work items).
    """

    strategy: str
    batch_size: int
    domain_size: int
    prf_blocks: int
    peak_mem_bytes: int
    parallel_width: int


def resolve_range(
    domain_size: int, eval_range: tuple[int, int] | None
) -> tuple[int, int]:
    """The validated ``[lo, hi)`` rows an evaluation covers.

    ``None`` is the whole domain — the window ``(0, domain_size)``.

    Raises:
        ValueError: If the range is empty, inverted, or falls outside
            ``[0, domain_size)``.
    """
    if eval_range is None:
        return 0, domain_size
    lo, hi = eval_range
    if not 0 <= lo < hi <= domain_size:
        raise ValueError(
            f"eval_range [{lo}, {hi}) is not a non-empty sub-range of "
            f"the keys' domain [0, {domain_size})"
        )
    return lo, hi


Reducer = Callable[[np.ndarray, int, int], np.ndarray]
"""``reduce(shares, lo, hi)``: fold the ``(B, hi - lo)`` uint64 shares of
table rows ``[lo, hi)`` into a ``(B,)`` (or ``(B, W)``) partial answer —
``shares @ table[lo:hi]`` for a PIR server.  ``shares`` is a view of a
buffer the walk reuses: consume it before returning."""


class _ShareMatrix:
    """Where leaves go without a reducer: the ``(B, hi - lo, 2)`` words."""

    def __init__(self, batch: int, lo: int, hi: int):
        self.words = np.empty((batch, hi - lo, ggm.LEAF_WORDS), dtype=np.uint64)
        self._lo = lo

    def window(self, lo: int, hi: int) -> np.ndarray:
        """The slot of leaves ``[lo, hi)``, to be filled in place."""
        return self.words[:, lo - self._lo : hi - self._lo]

    def commit(self, words: np.ndarray, lo: int, hi: int) -> None:
        """Nothing to do: the leaves were written in place."""


class _Reduction:
    """Where leaves go with a reducer: into its running sum mod 2^64.

    A tile's leaves are converted in place, in the words of its own
    seeds (dead once read), and reduced before the next tile walks, so
    the walk holds no share bytes beyond its tile frontier however large
    the table is.
    """

    def __init__(self, reduce: Reducer, batch: int, row_lo: int, row_hi: int):
        self._reduce = reduce
        self._batch = batch
        self._rows = (row_lo, row_hi)
        self.total: np.ndarray | None = None

    def commit(self, words: np.ndarray, lo: int, hi: int) -> None:
        """Reduce the rows of leaves ``[lo, hi)`` that were asked for.

        The leaves' words are rows ``[2 * lo, 2 * hi)``; only the first
        and the last window of a walk can hold a row outside the range.
        """
        row_lo = max(self._rows[0], ggm.LEAF_WORDS * lo)
        row_hi = min(self._rows[1], ggm.LEAF_WORDS * hi)
        shares = ggm.window_rows(words.reshape(self._batch, -1), row_lo, row_hi)
        part = self._reduce(shares, row_lo, row_hi)
        if self.total is None:
            self.total = np.array(part, dtype=np.uint64)
        else:
            self.total += part


def _level_windows(
    depth: int, start: int, stop: int, lo: int, hi: int
) -> list[tuple[int, int]]:
    """The node windows of levels ``start..stop`` for leaves ``[lo, hi)``."""
    return [ggm.level_window(depth, level, lo, hi) for level in range(start, stop + 1)]


def _window_widths(depth: int, start: int, stop: int, lo: int, hi: int) -> list[int]:
    """Node-window widths at levels ``start..stop`` for leaves ``[lo, hi)``."""
    return [b - a for a, b in _level_windows(depth, start, stop, lo, hi)]


def _window_width(depth: int, level: int, lo: int, hi: int) -> int:
    """Node-window width at ``level`` for leaves ``[lo, hi)``."""
    shift = depth - level
    return ((hi - 1) >> shift) + 1 - (lo >> shift)


def _walk_shape(depth: int, log_tile: int, group_depth: int) -> tuple[int, int, int]:
    """``(t, a, g)``: the walk's tile depth, group depth and log2 tiles per group.

    A tile is ``T = 2**t`` leaves, ``t`` the smaller of ``log_tile`` and
    the tree's depth; a group is ``2**g = 2**(t - 1 - a)`` consecutive
    tiles that expand ``a`` levels together, ``a`` the group depth
    clamped to ``t - 1`` (both 0 for a one-leaf tile).
    """
    t = min(log_tile, depth)
    a = min(group_depth, max(t - 1, 0))
    return t, a, max(t - 1 - a, 0)


def _chunk_window(chunk: int, log_span: int, lo: int, hi: int) -> tuple[int, int]:
    """The leaves of ``[lo, hi)`` inside aligned chunk ``chunk`` of ``2**log_span``."""
    return max(lo, chunk << log_span), min(hi, (chunk + 1) << log_span)


def _edge_chunks(lo: int, hi: int, log_span: int) -> set[tuple[int, int]]:
    """The first, second and last chunk windows of leaves ``[lo, hi)``.

    Only the first and the last chunk can be clipped; every chunk between
    them is whole, and walks like the second.
    """
    first, last = lo >> log_span, (hi - 1) >> log_span
    return {
        _chunk_window(chunk, log_span, lo, hi)
        for chunk in (first, min(first + 1, last), last)
    }


def _split(
    nodes: tuple[np.ndarray, np.ndarray],
    depth: int,
    level: int,
    lo: int,
    hi: int,
    log_span: int,
) -> Iterator[tuple[int, int, tuple[np.ndarray, np.ndarray]]]:
    """Cut a level-``level`` node window over leaves ``[lo, hi)`` into chunks.

    Yields ``(c_lo, c_hi, (seeds, ts))`` for each aligned chunk of
    ``2**log_span`` leaves that meets ``[lo, hi)``, in order: the
    chunk's leaves and the views of ``nodes`` whose subtrees hold them.
    """
    seeds, ts = nodes
    shift = depth - level
    base = lo >> shift
    for chunk in range(lo >> log_span, ((hi - 1) >> log_span) + 1):
        c_lo, c_hi = _chunk_window(chunk, log_span, lo, hi)
        part = slice((c_lo >> shift) - base, ((c_hi - 1) >> shift) + 1 - base)
        yield c_lo, c_hi, (seeds[:, part], ts[:, part])


def _window_blocks(depth: int, lo: int, hi: int) -> int:
    """PRF blocks of one key's windowed walk: two per expanded node.

    ``sum_l 2 * width(l)`` over the parent levels ``l < depth`` —
    ``2 * (2**depth - 1)`` for the whole power-of-two tree.
    """
    return 2 * sum(_window_widths(depth, 0, depth, lo, hi)[:-1])


def _bfs_peak_bytes(
    batch_size: int, depth: int, start: int, stop: int, lo: int, hi: int
) -> int:
    """Peak metered bytes of one :func:`_expand_window` call alone."""
    widths = _window_widths(depth, start, stop, lo, hi)
    if start == stop:
        return NODE_BYTES * batch_size * widths[0]
    # The widest parent frontier plus both children of each parent.
    return NODE_BYTES * batch_size * 3 * max(widths[:-1])


def _level_corrections(kb: KeyArena) -> tuple[np.ndarray, np.ndarray]:
    """Every level's corrections, in the shapes the level step reads.

    ``(B, n, 2)`` uint64 seed-correction words and ``(B, n, 1)`` uint16
    control-bit correction pairs, the left child's bit in the first
    byte and the right child's in the second; a level's are the
    ``[:, level]`` rows.
    """
    cw_ts = np.empty((kb.batch, kb.depth, 2), dtype=np.uint8)
    cw_ts[..., 0] = kb.cw_t_left
    cw_ts[..., 1] = kb.cw_t_right
    return np.ascontiguousarray(kb.cw_seeds).view(np.uint64), cw_ts.view(np.uint16)


def _expand_level(
    prf: Prf,
    flat: np.ndarray,  # (B * W, 16) contiguous parent seeds
    ts: np.ndarray,  # (B, W) parent control bits
    cw_words: np.ndarray,  # (B, 2) this level's seed correction
    cw_pairs: np.ndarray,  # (B, 1) uint16: this level's control-bit corrections
    scratch: np.ndarray,  # flat uint64, at least 2 * B * W words
    children: np.ndarray,  # flat uint8, 32 * B * W bytes: the next frontier's seeds
    child_ts: np.ndarray,  # (B, 2W) uint8: the next frontier's control bits
) -> None:
    """The batched :func:`repro.dpf.ggm.expand_level`, in one fused pass.

    One cipher call, then five ufunc calls that write the corrected
    children, interleaved (node ``j``'s children are nodes ``2j`` and
    ``2j + 1``), and their control bits straight into the next
    frontier.  Every operand is a plane over the ``B * W`` nodes — a
    word of one side of the children, a byte of the child-bit pairs —
    so each ufunc's innermost loop runs along the nodes, never along a
    two-element word or side axis.
    """
    b, w = ts.shape
    blocks = prf.expand_pair_stacked(flat)  # left blocks, then right blocks
    # The correction ``t * CW`` as (word, key, node) planes, then XORed
    # into both sides at once: (word, side, node) views of the cipher's
    # output and of the interleaved children.
    corr = scratch[: 2 * b * w]
    np.multiply(cw_words.T[:, :, np.newaxis], ts, corr.reshape(2, b, w))
    np.bitwise_xor(
        blocks.view(np.uint64).T.reshape(2, 2, b * w),
        corr.reshape(2, 1, b * w),
        children.view(np.uint64).reshape(b * w, 2, 2).T,
    )
    # A child's control bit is the low bit of its *uncorrected* block,
    # flipped where the parent's bit selects the level's correction:
    # the correction pair onto each (left, right) byte pair as one
    # uint16, the low bytes one side plane at a time, then the low bits.
    pairs = child_ts.view(np.uint16)
    np.multiply(ts, cw_pairs, pairs)
    sides = child_ts.reshape(b * w, 2).T
    np.bitwise_xor(sides, blocks[:, 0].reshape(2, b * w), sides)
    np.bitwise_and(pairs, 0x0101, pairs)


def _leaf_shares_batch(
    seeds: np.ndarray,  # (B, W, 16)
    ts: np.ndarray,  # (B, W)
    kb: KeyArena,
    out: np.ndarray,  # (B, W, 2) uint64
    scratch: np.ndarray,  # flat uint64, at least B * W words
) -> np.ndarray:
    """Batched :func:`repro.dpf.ggm.leaf_values` (bit-identical math).

    Computes the leaves' ``(B, W, 2)`` uint64 words in place in ``out``
    (any window of a share matrix) from a zero-copy view of the seeds,
    one ``(B, W)`` word plane at a time: ``t * CW_out`` into ``scratch``,
    plus the seed's word into ``out``; then the whole window times ``1``
    or ``-1`` (``2**64 - 1``) for the key's party.
    """
    b, w = ts.shape
    words = ggm.convert_to_u64(seeds)
    product = scratch[: b * w].reshape(b, w)
    for word in range(ggm.LEAF_WORDS):
        np.multiply(ts, kb.output_cws[:, word : word + 1], product)
        np.add(product, words[:, :, word], out[:, :, word])
    sign = np.negative(kb.negate, dtype=np.uint64)  # 0 or 2**64 - 1
    np.bitwise_or(sign, 1, sign)
    np.multiply(out, sign[:, np.newaxis, np.newaxis], out)
    return out


def _expand_window(
    kb: KeyArena,
    corrections: tuple[np.ndarray, np.ndarray],
    prf: Prf,
    meter: MemoryMeter,
    workspace: ExpansionWorkspace,
    source: tuple[np.ndarray, np.ndarray],
    start: int,
    stop: int,
    lo: int,
    hi: int,
    slot: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first from level ``start`` to ``stop`` inside a window.

    ``source`` holds the ``start``-level nodes whose subtrees meet
    leaves ``[lo, hi)`` (:func:`repro.dpf.ggm.level_window`); each level
    expands the whole frontier in one fused cipher pass and then keeps
    only the children inside the next level's window — at most one node
    falls off each end — so the result is exactly the ``stop``-level
    window, in natural order.  This is :func:`repro.dpf.dpf.eval_range`'s
    pruning done once for the whole ``(B, W, 16)`` frontier; for
    ``(lo, hi) = (0, 2**depth)`` the clip is a no-op and the walk is the
    textbook expansion.  ``corrections`` is :func:`_level_corrections`
    of ``kb``.  With ``start == stop`` there is nothing to expand and the
    result is the slot's copy of ``source``: whatever the depth, the
    caller owns the nodes it gets back, and the walk converts a tile's
    leaves in place (never into an arena's roots or another slot's
    nodes).

    The frontier ping-pongs between the two flat buffer pairs of the
    workspace's slot ``slot``, each sized for the widest level it
    takes: a level reads one and writes its children into the leading
    nodes of the other, an exact-shape contiguous view
    (:func:`_expand_level`).  An unclipped frontier is therefore the
    cipher's input as it stands; only a window that lost a node off an
    end, with ``batch > 1``, is strided, and that level stages one
    contiguous copy of it in the workspace's staging buffer.  The meter
    records the *live frontier* — the source, then parents plus all
    freshly written children at each level, the clipped children
    released right after — which is what :meth:`Strategy.cost` counts.
    """
    b = kb.batch
    depth = kb.depth
    shift = depth - start
    node_lo = lo >> shift
    width = ((hi - 1) >> shift) + 1 - node_lo
    meter.alloc(NODE_BYTES * b * width)
    cw_words, cw_pairs = corrections
    # Buffer 0 takes the source, then buffers alternate level by level;
    # children widen with depth, so each buffer's widest level is its last.
    if start == stop:
        sizes, last = (width, 0), 0
    else:
        last = 2 * _window_width(depth, stop - 1, lo, hi)
        other = 2 * _window_width(depth, stop - 2, lo, hi) if stop - start > 1 else width
        sizes = (last, other) if (stop - start) % 2 == 0 else (other, last)
    seeds_0, seeds_1, ts_0, ts_1 = workspace.frontier(slot, b * sizes[0], b * sizes[1])
    scratch = workspace.scratch(b * last)  # two words per widest-level parent
    back_seeds, back_ts = (seeds_0, seeds_1), (ts_0, ts_1)
    seeds = seeds_0[: 16 * b * width].reshape(b, width, 16)
    ts = ts_0[: b * width].reshape(b, width)
    seeds[...] = source[0]
    ts[...] = source[1]
    for level in range(start, stop):
        shift -= 1
        keep_lo = lo >> shift
        kept = ((hi - 1) >> shift) + 1 - keep_lo
        side = (level - start + 1) % 2
        if seeds.flags.c_contiguous:
            flat = seeds.reshape(b * width, 16)
        else:
            flat = workspace.stage(b * width)
            flat.reshape(b, width, 16)[...] = seeds
        children = back_seeds[side][: 32 * b * width]
        child_ts = back_ts[side][: 2 * b * width].reshape(b, 2 * width)
        _expand_level(
            prf,
            flat,
            ts,
            cw_words[:, level],
            cw_pairs[:, level],
            scratch,
            children,
            child_ts,
        )
        meter.alloc(NODE_BYTES * b * 2 * width)
        # The parents, and the children the clip drops.
        meter.free(NODE_BYTES * b * (3 * width - kept))
        # The children are nodes [2 * node_lo, 2 * node_lo + 2 * width).
        first = keep_lo - 2 * node_lo
        seeds = children.reshape(b, 2 * width, 16)[:, first : first + kept]
        ts = child_ts[:, first : first + kept]
        node_lo, width = keep_lo, kept
    return seeds, ts


@functools.lru_cache(maxsize=1024)
def _walk_cost(
    name: str,
    batch_size: int,
    domain_size: int,
    eval_range: tuple[int, int] | None,
    log_tile: int,
    group_depth: int,
) -> StrategyCost:
    """:meth:`Strategy.cost`, computed (its cache key is the arguments)."""
    if domain_size <= 0:
        raise ValueError(f"domain_size must be positive, got {domain_size}")
    n = ggm.tree_depth(domain_size)
    lo, hi = ggm.leaf_window(*resolve_range(domain_size, eval_range))
    t, a, g = _walk_shape(n, log_tile, group_depth)
    m = n - t
    node = NODE_BYTES * batch_size
    # A group holds its sub-roots while each of its tiles walks.
    group_peak = max(
        max(
            _bfs_peak_bytes(batch_size, n, m, m + a, group_lo, group_hi),
            node * _window_width(n, m + a, group_lo, group_hi)
            + max(
                _bfs_peak_bytes(batch_size, n, m + a, n, *tile)
                for tile in _edge_chunks(group_lo, group_hi, t)
            ),
        )
        for group_lo, group_hi in _edge_chunks(lo, hi, t + g)
    )
    tiles = _window_width(n, m, lo, hi)
    peak = max(_bfs_peak_bytes(batch_size, n, 0, m, lo, hi), node * tiles + group_peak)
    return StrategyCost(
        strategy=name,
        batch_size=batch_size,
        domain_size=domain_size,
        prf_blocks=batch_size * _window_blocks(n, lo, hi),
        peak_mem_bytes=peak,
        parallel_width=batch_size * tiles * 2**t,
    )


class Strategy(abc.ABC):
    """One of the paper's DPF full-domain-evaluation kernel designs.

    Subclasses model their design (:meth:`plan`).  Execution and its
    exact count are shared: every design runs the tiled walk of
    :meth:`eval_batch` and reports it through :meth:`cost`.
    """

    name: str = "abstract"
    fused: bool = True
    threads_per_block: int = 256
    shared_mem_per_block: int = 0

    def eval_batch(
        self,
        keys: KeySource,
        prf: Prf,
        meter: MemoryMeter | None = None,
        workspace: ExpansionWorkspace | None = None,
        eval_range: tuple[int, int] | None = None,
        reduce: Reducer | None = None,
    ) -> np.ndarray:
        """Expand a batch of same-domain keys; ``(B, hi - lo)`` uint64 shares.

        ``keys`` is anything :meth:`KeyArena.ingest` accepts — an
        already-built arena (the serving hot path, where stacking or the
        vectorized wire parse happened once upstream), a list of key
        objects, or concatenated wire bytes.  The walk runs in
        ``workspace``, by default the calling thread's
        (:func:`~repro.gpu.arena.thread_workspace`): one walk at a time
        per thread, a result never backed by it, and ``reduce`` must not
        start another walk on its thread (its ``shares`` are the
        workspace's).

        The walk is the same for every design, in three stages, each
        breadth-first in its own workspace slot.  The top of the tree
        is expanded (slot ``"frontier"``) down to the roots of tiles of
        ``T = 2**t`` leaves, ``t`` the smaller of :data:`_LOG_TILE` and
        the tree's depth.  Then groups of ``2**(t - 1 - a)`` consecutive
        tiles expand their first ``a`` levels together (slot
        ``"group"``, ``a`` = :data:`_GROUP_DEPTH` clamped to ``t - 1``),
        down to ``T / 2`` nodes a key.  Last, each tile of the group
        goes on alone from its ``2**a`` of those nodes (slot ``"tile"``);
        its leaves are converted into the tile's window of the share
        matrix or, with a reducer, in place in the tile slot's own seed
        words, and reduced before the next tile starts.  Grouping
        changes only how the cipher calls are cut, not the blocks: with
        the default constants no unclipped call below the tile roots
        carries fewer than ``2**a = 16`` nodes a key.

        ``eval_range=(lo, hi)`` returns the shares of table rows
        ``[lo, hi)`` only, bit-identical to columns ``lo:hi`` of the
        whole-domain matrix.  The rows live in the leaves
        :func:`repro.dpf.ggm.leaf_window` ``(lo, hi)``, two to a leaf;
        the walk keeps, at every level, only the node window whose
        subtrees meet those leaves (:func:`repro.dpf.ggm.level_window`),
        and at most one word is clipped off each end of the leaves'
        words afterwards, so a shard holding ``hi - lo`` rows pays
        ``O((hi - lo) / 2 + log L)`` PRF blocks per key, not ``O(L)``.
        ``None`` is the window ``(0, L)`` — the same traversal; on a
        non-power-of-two domain it already prunes the subtrees past
        ``L``.

        ``reduce``, when given, is handed every finished tile exactly
        once, as ``reduce(shares, a, z)`` with ``shares`` the
        ``(B, z - a)`` view of exactly rows ``[a, z)`` — the windows
        partition ``[lo, hi)`` — and the call returns the sum mod 2^64
        of what it gave back, ``(B,)`` or ``(B, W)``, instead of the
        matrix.  It is the same walk, cipher call for cipher call, but
        it never holds more than one tile of shares, and those are the
        tile's converted seeds, a view of the workspace's tile slot.

        All device-side expansion buffers are reported to ``meter``; the
        meter's ``current`` is back where it was before this method
        returns or raises (buffers are released once the answer shares
        leave the device), whether the PRF or the reducer raised.

        Raises:
            ValueError: On a PRF mismatch, or an ``eval_range`` that is
                empty or falls outside the keys' domain.
        """
        arena = KeyArena.ingest(keys, prf_name=prf.name)
        lo, hi = resolve_range(arena.domain_size, eval_range)
        leaf_lo, leaf_hi = ggm.leaf_window(lo, hi)
        meter = meter if meter is not None else MemoryMeter()
        workspace = workspace if workspace is not None else thread_workspace()
        if reduce is None:
            sink = _ShareMatrix(arena.batch, leaf_lo, leaf_hi)
        else:
            sink = _Reduction(reduce, arena.batch, lo, hi)
        # Levels 0..m are above the tiles; a group of 2**g tiles expands
        # levels m..m+a together, and each of its tiles the rest.
        n = arena.depth
        t, a, g = _walk_shape(n, _LOG_TILE, _GROUP_DEPTH)
        m = n - t
        live = meter.current
        corrections = _level_corrections(arena)
        expand = functools.partial(
            _expand_window, arena, corrections, prf, meter, workspace
        )
        try:
            roots = (arena.roots[:, np.newaxis, :], arena.root_ts[:, np.newaxis])
            tops = expand(roots, 0, m, leaf_lo, leaf_hi, "frontier")
            # Each stage has its own slot: its nodes stay live while the
            # next stage walks under them.
            groups = _split(tops, n, m, leaf_lo, leaf_hi, t + g)
            for group_lo, group_hi, group in groups:
                mids = expand(group, m, m + a, group_lo, group_hi, "group")
                tiles = _split(mids, n, m + a, group_lo, group_hi, t)
                for tile_lo, tile_hi, tile in tiles:
                    seeds, ts = expand(tile, m + a, n, tile_lo, tile_hi, "tile")
                    if reduce is None:
                        words = sink.window(tile_lo, tile_hi)
                    else:  # the tile slot's seeds are dead once converted
                        words = ggm.convert_to_u64(seeds)
                    scratch = workspace.scratch(ts.size)
                    _leaf_shares_batch(seeds, ts, arena, words, scratch)
                    sink.commit(words, tile_lo, tile_hi)
                    meter.free(NODE_BYTES * ts.size)
                meter.free(NODE_BYTES * mids[1].size)
            meter.free(NODE_BYTES * tops[1].size)
        except BaseException:
            # Whatever the walk still held when the PRF or the reducer
            # raised.  Not ``finally``: a walk that returns must have
            # released every byte itself, and the tests hold it to that.
            meter.free(meter.current - live)
            raise
        if reduce is not None:
            return sink.total
        # An odd ``lo`` or ``hi`` drops one column (and costs one copy).
        words = sink.words.reshape(arena.batch, -1)
        return np.ascontiguousarray(ggm.window_rows(words, lo, hi))

    def cost(
        self,
        batch_size: int,
        domain_size: int,
        eval_range: tuple[int, int] | None = None,
    ) -> StrategyCost:
        """The exact PRF work and metered peak of one :meth:`eval_batch`.

        Exact for any ``eval_range`` (the same window arithmetic the
        walk uses), so a restricted call reports its pruned count:
        ``domain_size`` and ``eval_range`` are table rows, the counts
        are those of the word-packed walk over their leaves
        (``2 * (2**(n-1) - 1)`` blocks per key on a ``2**n``-row table).
        The walk is the same for every design, so is the count; what a
        design would cost on a device is :meth:`plan`'s
        ``total_prf_blocks`` and ``peak_mem_bytes``.

        Memoised on its integer arguments (and the walk's tile and group
        depth): every dispatch prices its shape, and serving repeats a
        few shapes.
        """
        rows = None if eval_range is None else (int(eval_range[0]), int(eval_range[1]))
        return _walk_cost(
            self.name, int(batch_size), int(domain_size), rows, _LOG_TILE, _GROUP_DEPTH
        )

    @abc.abstractmethod
    def plan(
        self,
        batch_size: int,
        table_entries: int,
        entry_bytes: int = 8,
        prf_name: str = "aes128",
        resident_keys: bool = False,
    ) -> KernelPlan:
        """Device execution recipe for the simulator.

        The plan models this design on a real device, not the walk
        :meth:`eval_batch` runs: its ``peak_mem_bytes`` is the device
        footprint (branch-parallel path seeds live in registers and
        cooperative-groups tiles in shared memory, so neither occupies
        global memory), and its ``total_prf_blocks`` the design's work.

        With ``resident_keys=True`` the plan models serving from a
        :class:`KeyArena` already uploaded to the device: the per-batch
        key transfer (``host_bytes_in``) is amortized to zero and the
        arena instead occupies device memory for the plan's lifetime
        (``resident_bytes``), which the simulator's capacity check
        accounts for.

        The plan takes no ``eval_range`` and packs no leaves: the
        modeled device expands the paper's whole ``2**ceil(log2 L)``-leaf
        tree, one table row per leaf, so the simulated latency of a
        request stays the calibrated full-tree price even though the
        executed walk (and :meth:`cost`) is packed and pruned.
        """

    # -- shared pieces -------------------------------------------------

    @staticmethod
    def _depth(domain_size: int) -> int:
        """Depth of the modeled one-row-per-leaf tree (:meth:`plan` only)."""
        if domain_size <= 0:
            raise ValueError(f"domain_size must be positive, got {domain_size}")
        return ggm.log2_ceil(domain_size)

    def _plan_common(
        self,
        batch_size: int,
        table_entries: int,
        entry_bytes: int,
        prf_name: str,
        resident_keys: bool = False,
    ) -> dict:
        key_bytes = batch_size * key_size_bytes(table_entries, prf_name)
        return dict(
            strategy=self.name,
            batch_size=batch_size,
            table_entries=table_entries,
            entry_bytes=entry_bytes,
            fused=self.fused,
            host_bytes_in=0 if resident_keys else key_bytes,
            host_bytes_out=batch_size * entry_bytes,
            resident_bytes=key_bytes if resident_keys else 0,
            prf_name=prf_name,
            prf_cost=get_prf(prf_name).gpu_cost,
        )


_REGISTRY: dict[str, type[Strategy]] = {}


def register_strategy(cls: type[Strategy]) -> type[Strategy]:
    """Class decorator adding a strategy to the registry."""
    _REGISTRY[cls.name] = cls
    return cls


def available_strategies() -> list[str]:
    """Names of all registered parallelization strategies."""
    return sorted(_REGISTRY)


def get_strategy(name: str, **params) -> Strategy:
    """Instantiate a registered strategy by name.

    Args:
        name: Registry name, e.g. ``"memory_bounded"``.
        **params: Forwarded to the strategy constructor (e.g.
            ``log_subtrees`` for :class:`MemoryBoundedTree`).

    Raises:
        KeyError: If ``name`` is not registered.
    """
    if name not in _REGISTRY:
        raise KeyError(f"unknown strategy {name!r}; available: {available_strategies()}")
    return _REGISTRY[name](**params)


@register_strategy
class BranchParallel(Strategy):
    """One lane per leaf; every lane recomputes its root->leaf path.

    O(L log L) PRF blocks per query but no dependence between lanes:
    the whole batch is exposed as one work item per leaf from the
    first wave, and a real kernel keeps the path seed in a register.
    Wins on small tables where the per-level launch/sync overheads of
    the breadth-first strategies dominate.
    """

    name = "branch_parallel"
    fused = True

    def plan(
        self,
        batch_size: int,
        table_entries: int,
        entry_bytes: int = 8,
        prf_name: str = "aes128",
        resident_keys: bool = False,
    ) -> KernelPlan:
        n = self._depth(table_entries)
        width = batch_size * table_entries
        phase = KernelPhase(
            label="branch-walk+mac",
            prf_blocks=batch_size * table_entries * n,
            parallel_width=width,
            bytes_read=batch_size * n * NODE_BYTES
            + batch_size * table_entries * entry_bytes,
            bytes_written=batch_size * entry_bytes,
            mac_ops=batch_size * table_entries * max(1, entry_bytes // 8),
            launches=1,
            syncs=0,
            threads_per_block=self.threads_per_block,
            shared_mem_per_block=self.shared_mem_per_block,
        )
        # Path seeds live in registers; global memory holds only the
        # staged keys and the per-query accumulators.
        peak = batch_size * (key_size_bytes(table_entries, prf_name) + entry_bytes)
        return KernelPlan(
            phases=[phase],
            peak_mem_bytes=peak,
            **self._plan_common(
                batch_size, table_entries, entry_bytes, prf_name, resident_keys
            ),
        )


@register_strategy
class LevelByLevel(Strategy):
    """Breadth-first expansion with the frontier in global memory.

    O(L) PRF blocks but O(B L) live bytes, one kernel launch per level,
    and an unfused conversion + dot-product pass that re-reads the
    materialized shares from global memory.
    """

    name = "level_by_level"
    fused = False

    def plan(
        self,
        batch_size: int,
        table_entries: int,
        entry_bytes: int = 8,
        prf_name: str = "aes128",
        resident_keys: bool = False,
    ) -> KernelPlan:
        n = self._depth(table_entries)
        leaves = 2**n
        phases = [
            KernelPhase(
                label=f"level-{level}",
                prf_blocks=batch_size * 2**level,
                parallel_width=batch_size * 2**level,
                bytes_read=batch_size * 2 ** (level - 1) * NODE_BYTES + NODE_BYTES,
                bytes_written=batch_size * 2**level * NODE_BYTES,
                launches=1,
                syncs=1,
                threads_per_block=self.threads_per_block,
            )
            for level in range(1, n + 1)
        ]
        phases.append(
            KernelPhase(
                label="convert+mac",
                prf_blocks=0,
                parallel_width=batch_size * table_entries,
                bytes_read=batch_size * leaves * NODE_BYTES
                + batch_size * leaves * 8
                + table_entries * entry_bytes,
                bytes_written=batch_size * leaves * 8 + batch_size * entry_bytes,
                mac_ops=batch_size * table_entries * max(1, entry_bytes // 8),
                launches=2,
                syncs=1,
                threads_per_block=self.threads_per_block,
            )
        )
        return KernelPlan(
            phases=phases,
            # The modeled device materializes the whole 2**n-leaf tree:
            # the widest parents plus their children, or the leaves plus
            # one 8-byte share each.
            peak_mem_bytes=batch_size
            * max(3 * NODE_BYTES * leaves // 2, (NODE_BYTES + 8) * leaves),
            **self._plan_common(
                batch_size, table_entries, entry_bytes, prf_name, resident_keys
            ),
        )


@register_strategy
class MemoryBoundedTree(Strategy):
    """Top-of-tree breadth-first, then depth-first subtree lanes.

    The top ``k = log2(K)`` levels are expanded breadth-first to a
    frontier of K subtree roots per query; the K subtrees then run as
    parallel lanes, each walking its subtree depth-first with an
    explicit stack of at most ``d = n - k`` sibling nodes.  Live memory
    is O(B K log L) while PRF work stays at the optimal two blocks per
    inner node (``2(L - 1)`` per query in the modeled one-row-per-leaf
    kernel), and the leaf shares feed the table dot product in
    registers (fused — the paper's Table 4 kernel).

    Args:
        log_subtrees: log2 of the per-query subtree count K (clamped to
            the tree depth).  It shapes the plan only; execution is the
            shared tiled walk.
    """

    name = "memory_bounded"
    fused = True

    def __init__(self, log_subtrees: int = 9):
        if log_subtrees < 0:
            raise ValueError("log_subtrees must be non-negative")
        self.log_subtrees = log_subtrees

    def plan(
        self,
        batch_size: int,
        table_entries: int,
        entry_bytes: int = 8,
        prf_name: str = "aes128",
        resident_keys: bool = False,
    ) -> KernelPlan:
        n = self._depth(table_entries)
        k = min(self.log_subtrees, n)
        d = n - k
        lanes = batch_size * _ceil_div(table_entries, 2**d)
        phases = [
            KernelPhase(
                label=f"top-level-{level}",
                prf_blocks=batch_size * 2**level,
                parallel_width=batch_size * 2**level,
                bytes_read=batch_size * 2 ** (level - 1) * NODE_BYTES + NODE_BYTES,
                bytes_written=batch_size * 2**level * NODE_BYTES,
                launches=1,
                syncs=1,
                threads_per_block=self.threads_per_block,
            )
            for level in range(1, k + 1)
        ]
        phases.append(
            KernelPhase(
                label="subtree-dfs+mac",
                prf_blocks=2 * lanes * (2**d - 1),
                parallel_width=lanes,
                bytes_read=lanes * NODE_BYTES
                + batch_size * table_entries * entry_bytes,
                bytes_written=batch_size * entry_bytes,
                mac_ops=batch_size * table_entries * max(1, entry_bytes // 8),
                launches=1,
                syncs=0,
                threads_per_block=self.threads_per_block,
            )
        )
        # Device footprint: the breadth-first frontier plus each lane's
        # depth-first stack (spilled to local memory).
        peak = NODE_BYTES * batch_size * 2**k + NODE_BYTES * lanes * (1 + d)
        return KernelPlan(
            phases=phases,
            peak_mem_bytes=peak,
            **self._plan_common(
                batch_size, table_entries, entry_bytes, prf_name, resident_keys
            ),
        )


@register_strategy
class CooperativeGroups(Strategy):
    """Single cooperative launch with shared-memory subtree tiles.

    The top of the tree is expanded with grid-wide syncs instead of
    kernel relaunches; each bottom subtree of ``T`` leaves is then
    expanded entirely inside one block's shared-memory tile (double
    buffered), so intermediate levels never touch global memory.  The
    tile's shared-memory demand evicts resident blocks, which the
    simulator prices as reduced occupancy.

    Args:
        log_tile: log2 of the modeled tile's leaf count T (clamped to
            the tree depth).  It shapes the plan only; the executed
            walk's tile is :data:`_LOG_TILE`, the same default.
    """

    name = "cooperative_groups"
    fused = True

    def __init__(self, log_tile: int = 9):
        if log_tile < 0:
            raise ValueError("log_tile must be non-negative")
        self.log_tile = log_tile

    def plan(
        self,
        batch_size: int,
        table_entries: int,
        entry_bytes: int = 8,
        prf_name: str = "aes128",
        resident_keys: bool = False,
    ) -> KernelPlan:
        n = self._depth(table_entries)
        t = min(self.log_tile, n)
        m = n - t
        tile = 2**t
        active = _ceil_div(table_entries, tile)
        shared = 2 * tile * NODE_BYTES  # double-buffered tile
        phases = [
            KernelPhase(
                label=f"coop-level-{level}",
                prf_blocks=batch_size * 2**level,
                parallel_width=batch_size * 2**level,
                bytes_read=batch_size * 2 ** (level - 1) * NODE_BYTES + NODE_BYTES,
                bytes_written=batch_size * 2**level * NODE_BYTES,
                launches=1 if level == 1 else 0,
                syncs=1,  # grid-wide sync, not a relaunch
                threads_per_block=self.threads_per_block,
                shared_mem_per_block=shared,
            )
            for level in range(1, m + 1)
        ]
        phases.append(
            KernelPhase(
                label="tile-expand+mac",
                prf_blocks=active * batch_size * 2 * (tile - 1),
                parallel_width=batch_size * active * tile,
                bytes_read=batch_size * 2**m * NODE_BYTES
                + batch_size * table_entries * entry_bytes,
                bytes_written=batch_size * entry_bytes,
                mac_ops=batch_size * table_entries * max(1, entry_bytes // 8),
                launches=1 if m == 0 else 0,
                syncs=0,
                threads_per_block=self.threads_per_block,
                shared_mem_per_block=shared,
            )
        )
        # Tiles stay in shared memory; global memory holds the frontier.
        peak = NODE_BYTES * batch_size * 2**m + batch_size * entry_bytes
        return KernelPlan(
            phases=phases,
            peak_mem_bytes=peak,
            **self._plan_common(
                batch_size, table_entries, entry_bytes, prf_name, resident_keys
            ),
        )

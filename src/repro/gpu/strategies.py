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
tiles of ``T`` leaves, then each tile breadth-first in a reusable buffer
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
from typing import Callable

import numpy as np

from repro.crypto.prf import Prf, get_prf
from repro.dpf import ggm
from repro.dpf.keys import key_size_bytes
from repro.gpu.arena import ExpansionWorkspace, KeyArena, KeySource
from repro.gpu.kernel import KernelPhase, KernelPlan
from repro.gpu.memory import MemoryMeter

NODE_BYTES = 17
"""Metered bytes per live tree node: a 16-byte seed plus its control bit."""

_LOG_TILE = 9
"""log2 of the walk's tile leaf count, clamped to the tree: the whole
2^9-leaf tree of a 2^10-row table, 512-leaf tiles of a larger one."""


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


class _Reduction:
    """Where leaves go with a reducer: into its running sum mod 2^64.

    Windows are views of the workspace's one reusable buffer, so a walk
    that commits each window before asking for the next holds
    ``O(B * window)`` share bytes however large the table is.
    """

    def __init__(
        self,
        reduce: Reducer,
        batch: int,
        row_lo: int,
        row_hi: int,
        workspace: ExpansionWorkspace,
    ):
        self._reduce = reduce
        self._batch = batch
        self._rows = (row_lo, row_hi)
        self._workspace = workspace
        self.total: np.ndarray | None = None

    def window(self, lo: int, hi: int) -> np.ndarray:
        return self._workspace.window(self._batch, hi - lo)

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


def _tile_window(tile: int, t: int, lo: int, hi: int) -> tuple[int, int]:
    """The leaves of ``[lo, hi)`` inside tile ``tile`` of ``2**t`` leaves."""
    return max(lo, tile << t), min(hi, (tile + 1) << t)


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

    ``(B, n, 2)`` uint64 seed-correction words and ``(B, n, 2)`` uint8
    control-bit corrections, left child then right child.
    """
    cw_ts = np.empty((kb.batch, kb.depth, 2), dtype=np.uint8)
    cw_ts[..., 0] = kb.cw_t_left
    cw_ts[..., 1] = kb.cw_t_right
    return np.ascontiguousarray(kb.cw_seeds).view(np.uint64), cw_ts


def _expand_level(
    prf: Prf,
    flat: np.ndarray,  # (B * W, 16) contiguous parent seeds
    ts: np.ndarray,  # (B, W) parent control bits
    cw_words: np.ndarray,  # (B, 2) this level's seed correction
    cw_ts: np.ndarray,  # (B, 2) this level's control-bit corrections
    corr: np.ndarray,  # (B, W, 2) uint64 scratch
    children: np.ndarray,  # (B, W, 2, 2) uint64: the next frontier's seeds
    child_ts: np.ndarray,  # (B, W, 2) uint8: the next frontier's control bits
) -> None:
    """The batched :func:`repro.dpf.ggm.expand_level`, in one fused pass.

    One cipher call, then six ufunc calls that write the corrected,
    interleaved children straight into the next frontier (node ``j``'s
    children are nodes ``2j`` and ``2j + 1``): no temporary but the
    cipher's output, and nothing copied twice.
    """
    b, w = ts.shape
    blocks = prf.expand_pair_stacked(flat)  # left blocks, then right blocks
    kids = blocks.view(np.uint64).reshape(2, b, w, 2)
    np.multiply(cw_words[:, np.newaxis], ts[:, :, np.newaxis], corr)
    np.bitwise_xor(kids[0], corr, children[:, :, 0])
    np.bitwise_xor(kids[1], corr, children[:, :, 1])
    # A child's control bit is the low bit of its *uncorrected* block,
    # flipped where the parent's bit selects the level's correction.
    np.bitwise_and(ts[:, :, np.newaxis], cw_ts[:, np.newaxis], child_ts)
    np.bitwise_xor(child_ts, blocks[:, 0].reshape(2, b, w).transpose(1, 2, 0), child_ts)
    np.bitwise_and(child_ts, 1, child_ts)


def _leaf_shares_batch(
    seeds: np.ndarray,  # (B, W, 16)
    ts: np.ndarray,  # (B, W)
    kb: KeyArena,
    out: np.ndarray,  # (B, W, 2) uint64
) -> np.ndarray:
    """Batched :func:`repro.dpf.ggm.leaf_values` (bit-identical math).

    Computes the leaves' ``(B, W, 2)`` uint64 words in place in ``out``
    (any window of a share matrix) from a zero-copy view of the seeds.
    """
    values = np.multiply(
        ts[:, :, np.newaxis], kb.output_cws[:, np.newaxis, :], out=out
    )
    values += ggm.convert_to_u64(seeds)
    np.negative(values, out=values, where=kb.negate[:, np.newaxis, np.newaxis])
    return values


def _expand_window(
    kb: KeyArena,
    corrections: tuple[np.ndarray, np.ndarray],
    prf: Prf,
    meter: MemoryMeter,
    source: tuple[np.ndarray, np.ndarray],
    start: int,
    stop: int,
    lo: int,
    hi: int,
    workspace: ExpansionWorkspace,
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
    of ``kb``.

    The frontier ping-pongs between the workspace's two flat buffer
    pairs (slot ``slot``): a level reads one and writes its children
    into the leading nodes of the other, an exact-shape contiguous view
    (:func:`_expand_level`).  An unclipped frontier is therefore the
    cipher's input as it stands; only a window that lost a node off an
    end, with ``batch > 1``, is strided, and that level stages one
    contiguous copy of it in the workspace's staging buffer.  The meter
    records the *live frontier* — the copied-in source, then parents
    plus all freshly written children at each level, the clipped
    children released right after — which is what :meth:`Strategy.cost`
    counts.
    """
    b = kb.batch
    cw_words, cw_ts = corrections
    windows = _level_windows(kb.depth, start, stop, lo, hi)
    node_lo, node_hi = windows[0]
    width = node_hi - node_lo
    # Every level writes both children of each parent before the clip.
    cap = max([width] + [2 * (z - a) for a, z in windows[:-1]])
    seeds_0, seeds_1, ts_0, ts_1, corr = workspace.frontier(slot, b * cap)
    back_seeds, back_ts = (seeds_0, seeds_1), (ts_0, ts_1)
    seeds = seeds_0[: 16 * b * width].reshape(b, width, 16)
    ts = ts_0[: b * width].reshape(b, width)
    seeds[...] = source[0]
    ts[...] = source[1]
    meter.alloc(NODE_BYTES * b * width)
    for level, (keep_lo, keep_hi) in zip(range(start, stop), windows[1:]):
        side = (level - start + 1) % 2
        if seeds.flags.c_contiguous:
            flat = seeds.reshape(b * width, 16)
        else:
            flat = workspace.stage(slot, b * width)
            flat.reshape(b, width, 16)[...] = seeds
        children = back_seeds[side][: 32 * b * width]
        child_ts = back_ts[side][: 2 * b * width].reshape(b, width, 2)
        _expand_level(
            prf,
            flat,
            ts,
            cw_words[:, level],
            cw_ts[:, level],
            corr[: 2 * b * width].reshape(b, width, 2),
            children.view(np.uint64).reshape(b, width, 2, 2),
            child_ts,
        )
        kept = keep_hi - keep_lo
        meter.alloc(NODE_BYTES * b * 2 * width)
        # The parents, and the children the clip drops.
        meter.free(NODE_BYTES * b * (width + 2 * width - kept))
        # The children are nodes [2 * node_lo, 2 * node_lo + 2 * width).
        first = keep_lo - 2 * node_lo
        seeds = children.reshape(b, 2 * width, 16)[:, first : first + kept]
        ts = child_ts.reshape(b, 2 * width)[:, first : first + kept]
        node_lo, width = keep_lo, kept
    return seeds, ts


@functools.lru_cache(maxsize=1024)
def _walk_cost(
    name: str,
    batch_size: int,
    domain_size: int,
    eval_range: tuple[int, int] | None,
    log_tile: int,
) -> StrategyCost:
    """:meth:`Strategy.cost`, computed (its cache key is the arguments)."""
    if domain_size <= 0:
        raise ValueError(f"domain_size must be positive, got {domain_size}")
    n = ggm.tree_depth(domain_size)
    lo, hi = ggm.leaf_window(*resolve_range(domain_size, eval_range))
    t = min(log_tile, n)
    m = n - t
    first_tile, end_tile = ggm.level_window(n, m, lo, hi)
    tiles = end_tile - first_tile
    # Only the two edge tiles can be clipped; every tile between them is
    # whole, so three candidates bound the tile peak.
    tile_peak = max(
        _bfs_peak_bytes(batch_size, n, m, n, *_tile_window(tile, t, lo, hi))
        for tile in {first_tile, min(first_tile + 1, end_tile - 1), end_tile - 1}
    )
    peak = max(
        _bfs_peak_bytes(batch_size, n, 0, m, lo, hi),
        NODE_BYTES * batch_size * tiles + tile_peak,
    )
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
        objects, or concatenated wire bytes.  ``workspace``, when given,
        keeps the ping-pong frontier buffers alive across calls; the
        returned share matrix is never workspace-backed.

        The walk is the same for every design.  The top of the tree is
        expanded breadth-first (workspace slot ``"frontier"``) down to
        the roots of tiles of ``T = 2**t`` leaves, ``t`` the smaller of
        :data:`_LOG_TILE` and the tree's depth; then each tile is
        expanded breadth-first in slot ``"tile"``, its leaves converted
        in place into the tile's window and, with a reducer, reduced
        before the next tile starts.

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
        it never holds more than one tile of shares, out of one window
        buffer that every tile reuses.

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
        workspace = workspace if workspace is not None else ExpansionWorkspace()
        if reduce is None:
            sink = _ShareMatrix(arena.batch, leaf_lo, leaf_hi)
        else:
            sink = _Reduction(reduce, arena.batch, lo, hi, workspace)
        # Levels 0..m are above the tiles; a tile is t levels deep.
        n = arena.depth
        t = min(_LOG_TILE, n)
        m = n - t
        live = meter.current
        corrections = _level_corrections(arena)
        try:
            roots = (arena.roots[:, np.newaxis, :], arena.root_ts[:, np.newaxis])
            tops, top_ts = _expand_window(
                arena,
                corrections,
                prf,
                meter,
                roots,
                0,
                m,
                leaf_lo,
                leaf_hi,
                workspace,
                "frontier",
            )
            first_tile, end_tile = ggm.level_window(n, m, leaf_lo, leaf_hi)
            # The "tile" slot is reused for every tile and every level
            # within a tile; it is distinct from the "frontier" slot
            # because the tile roots stay live across the whole loop.
            for index, tile in enumerate(range(first_tile, end_tile)):
                tile_lo, tile_hi = _tile_window(tile, t, leaf_lo, leaf_hi)
                seeds, ts = _expand_window(
                    arena,
                    corrections,
                    prf,
                    meter,
                    (tops[:, index : index + 1], top_ts[:, index : index + 1]),
                    m,
                    n,
                    tile_lo,
                    tile_hi,
                    workspace,
                    "tile",
                )
                words = sink.window(tile_lo, tile_hi)
                _leaf_shares_batch(seeds, ts, arena, out=words)
                meter.free_arrays(seeds, ts)
                if reduce is not None:
                    sink.commit(words, tile_lo, tile_hi)
            meter.free_arrays(tops, top_ts)
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

        Memoised on its integer arguments (and the walk's tile): every
        dispatch prices its shape, and serving repeats a few shapes.
        """
        rows = None if eval_range is None else (int(eval_range[0]), int(eval_range[1]))
        return _walk_cost(self.name, int(batch_size), int(domain_size), rows, _LOG_TILE)

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

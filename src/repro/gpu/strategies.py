"""Functional GPU kernels: the paper's DPF parallelization strategies.

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

Leaves are word-packed (:mod:`repro.dpf.ggm`): a leaf seed's two 64-bit
words are the shares of two adjacent table rows, so the functional
walks below run over the ``ceil(L / 2)``-leaf tree — half the PRF
blocks of the paper's one-row-per-leaf kernels.  :meth:`Strategy.cost`
and the meter count that packed walk exactly; :meth:`Strategy.plan`
keeps pricing the paper's kernel, one row per leaf, because that is
what the device model was calibrated against (Table 4).

Every strategy is implemented as a *real* vectorized-numpy traversal
that is bit-identical to :func:`repro.dpf.dpf.eval_full`, meters its
buffers through :class:`~repro.gpu.memory.MemoryMeter`, and can emit a
:class:`~repro.gpu.kernel.KernelPlan` for the performance model in
:mod:`repro.gpu.sim`.  The meter tracks the *functional* working set;
for the fused strategies the converted output shares are accumulated
straight into the dot product on a real device and are therefore not
metered (the Figure 6 bounds concern the expansion working set).

That accumulation is functional, not only modeled: ``eval_batch(...,
reduce=r)`` hands every finished window of leaves to the reducer and
returns the sum of what it gave back, so the ``(B, L)`` share matrix
never exists.  :class:`CooperativeGroups` reduces tile by tile and
:class:`MemoryBoundedTree` by groups of whole subtrees, both out of one
reusable window buffer; :class:`LevelByLevel` and
:class:`BranchParallel` stay the unfused comparison — they materialise
their leaves and reduce once.

A registry mirrors :mod:`repro.crypto.prf`:
:func:`available_strategies` / :func:`get_strategy`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.crypto.prf import Prf, get_prf, seeds_to_u64
from repro.dpf import ggm
from repro.dpf.keys import DpfKey, key_size_bytes
from repro.gpu.arena import ExpansionWorkspace, KeyArena, KeySource
from repro.gpu.kernel import KernelPhase, KernelPlan
from repro.gpu.memory import MemoryMeter

NODE_BYTES = 17
"""Metered bytes per live tree node: a 16-byte seed plus its control bit."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class StrategyCost:
    """Analytic cost of one strategy invocation (Figure 6 quantities).

    ``prf_blocks`` is exact — tests assert it against a
    :class:`~repro.crypto.prf.CountingPrf`.  ``peak_mem_bytes`` is the
    analytic working-set peak the functional kernel's
    :class:`~repro.gpu.memory.MemoryMeter` must match exactly.

    Attributes:
        strategy: Registry name.
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

    streaming = False

    def __init__(self, batch: int, lo: int, hi: int):
        self._shape = (batch, hi - lo, ggm.LEAF_WORDS)
        self._lo = lo
        self.words: np.ndarray | None = None

    def window(self, lo: int, hi: int) -> np.ndarray:
        """The slot of leaves ``[lo, hi)``, to be filled in place."""
        if self.words is None:
            self.words = np.empty(self._shape, dtype=np.uint64)
        return self.words[:, lo - self._lo : hi - self._lo]

    def commit(self, words: np.ndarray, lo: int, hi: int) -> None:
        if self.words is None:
            # An unfused walk materialised all its leaves itself.
            self.words = words


class _Reduction:
    """Where leaves go with a reducer: into its running sum mod 2^64.

    Windows are views of the workspace's one reusable buffer, so a walk
    that commits each window before asking for the next holds
    ``O(B * window)`` share bytes however large the table is.
    """

    streaming = True

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


def _expand_children_batch(
    prf: Prf,
    seeds: np.ndarray,  # (B, W, 16)
    ts: np.ndarray,  # (B, W)
    cw_seed: np.ndarray,  # (B, 16)
    cw_t_left: np.ndarray,  # (B,)
    cw_t_right: np.ndarray,  # (B,)
    stage: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Corrected ``(left, t_left, right, t_right)`` children of a frontier.

    The batched :func:`repro.dpf.ggm.expand_level` without the
    interleave: one fused cipher pass per call; seed corrections are
    uint64-view XORs applied in place on the cipher output.  ``stage``,
    when given, is a reusable ``(b*w, 16)`` buffer for the contiguous
    cipher-input copy a non-contiguous frontier needs (from
    :class:`ExpansionWorkspace`).  Seeds come back ``(B, W, 16)``,
    control bits ``(B, W)``.
    """
    b, w, _ = seeds.shape
    if seeds.flags.c_contiguous:
        flat = seeds.reshape(b * w, 16)
    elif stage is not None:
        flat = stage
        flat.reshape(b, w, 16)[:] = seeds
    else:
        flat = np.ascontiguousarray(seeds).reshape(b * w, 16)
    left, right = prf.expand_pair(flat)
    # Control bits come from the *uncorrected* child blocks.
    t_left = (left[:, 0] & 1).reshape(b, w)
    t_right = (right[:, 0] & 1).reshape(b, w)
    corr = seeds_to_u64(cw_seed)[:, np.newaxis, :] * ts.astype(np.uint64)[:, :, np.newaxis]
    left = np.ascontiguousarray(left)
    right = np.ascontiguousarray(right)
    left.view(np.uint64).reshape(b, w, 2)[:] ^= corr
    right.view(np.uint64).reshape(b, w, 2)[:] ^= corr
    t_left = (t_left ^ (ts & cw_t_left[:, np.newaxis])).astype(np.uint8)
    t_right = (t_right ^ (ts & cw_t_right[:, np.newaxis])).astype(np.uint8)
    return left.reshape(b, w, 16), t_left, right.reshape(b, w, 16), t_right


def _leaf_shares_batch(
    seeds: np.ndarray,  # (B, W, 16)
    ts: np.ndarray,  # (B, W)
    kb: KeyArena,
    out: np.ndarray | None = None,  # (B, W, 2) uint64
) -> np.ndarray:
    """Batched :func:`repro.dpf.ggm.leaf_values` (bit-identical math).

    Returns the leaves' ``(B, W, 2)`` uint64 words, computed in place
    from a zero-copy view of the seeds: in ``out`` when given (any
    window of a share matrix), else in the one array this allocates.
    """
    values = np.multiply(
        ts[:, :, np.newaxis], kb.output_cws[:, np.newaxis, :], out=out
    )
    values += ggm.convert_to_u64(seeds)
    np.negative(values, out=values, where=kb.negate[:, np.newaxis, np.newaxis])
    return values


class Strategy(abc.ABC):
    """A DPF full-domain-evaluation parallelization strategy.

    Subclasses implement the functional traversal (:meth:`_eval`), the
    analytic cost model (:meth:`cost`), and the device execution recipe
    (:meth:`plan`).
    """

    name: str = "abstract"
    fused: bool = True
    threads_per_block: int = 256
    shared_mem_per_block: int = 0

    def eval_full(
        self, key: DpfKey, prf: Prf, meter: MemoryMeter | None = None
    ) -> np.ndarray:
        """Expand one key over the whole domain; ``(L,)`` uint64 shares."""
        return self.eval_batch([key], prf, meter)[0]

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

        ``reduce``, when given, is handed every finished window of
        leaves exactly once, as ``reduce(shares, a, z)`` with ``shares``
        the ``(B, z - a)`` view of exactly rows ``[a, z)`` — the windows
        partition ``[lo, hi)`` — and the call returns the sum mod 2^64
        of what it gave back, ``(B,)`` or ``(B, W)``, instead of the
        matrix.  It is the same walk, cipher call for cipher call except
        that :class:`MemoryBoundedTree` runs its lanes a group at a
        time; the fused strategies then never hold more than one window
        of shares (see the class docstrings for who reduces when).

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
        live = meter.current
        try:
            self._eval(arena, prf, meter, workspace, leaf_lo, leaf_hi, sink)
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

    @abc.abstractmethod
    def _eval(
        self,
        kb: KeyArena,
        prf: Prf,
        meter: MemoryMeter,
        workspace: ExpansionWorkspace,
        lo: int,
        hi: int,
        sink: _ShareMatrix | _Reduction,
    ) -> None:
        """Strategy-specific traversal of leaves ``[lo, hi)``.

        Every leaf goes to ``sink`` exactly once, as the ``(B, z - a, 2)``
        uint64 words of a window of leaves ``[a, z)`` (they flatten to
        the shares of table rows ``[2 * a, 2 * z)``): either computed in
        place in ``sink.window(a, z)`` and then committed, or — the
        unfused walks — committed as one array of all of them.
        """

    @abc.abstractmethod
    def cost(
        self,
        batch_size: int,
        domain_size: int,
        eval_range: tuple[int, int] | None = None,
    ) -> StrategyCost:
        """Analytic PRF-work and peak-memory model for one invocation.

        Exact for any ``eval_range`` (the same window arithmetic the
        traversal uses), so a restricted call reports its pruned count:
        ``domain_size`` and ``eval_range`` are table rows, the counts
        are those of the word-packed walk over their leaves
        (``2 * (2**(n-1) - 1)`` blocks per key on a ``2**n``-row table).
        """

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

        Unlike :meth:`cost` (which mirrors the functional kernel's
        metered buffers), the plan's ``peak_mem_bytes`` models the real
        device: branch-parallel path seeds live in registers and
        cooperative-groups tiles in shared memory, so neither occupies
        global memory.

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
        functional walk (and :meth:`cost`) is packed and pruned.
        """

    # -- shared pieces -------------------------------------------------

    @staticmethod
    def _depth(domain_size: int) -> int:
        """Depth of the modeled one-row-per-leaf tree (:meth:`plan` only)."""
        if domain_size <= 0:
            raise ValueError(f"domain_size must be positive, got {domain_size}")
        return ggm.log2_ceil(domain_size)

    @staticmethod
    def _walk(
        domain_size: int, eval_range: tuple[int, int] | None
    ) -> tuple[int, int, int]:
        """``(depth, leaf_lo, leaf_hi)`` of the functional packed walk."""
        if domain_size <= 0:
            raise ValueError(f"domain_size must be positive, got {domain_size}")
        lo, hi = resolve_range(domain_size, eval_range)
        return (ggm.tree_depth(domain_size), *ggm.leaf_window(lo, hi))

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

    def _expand_window(
        self,
        kb: KeyArena,
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

        The one traversal every strategy goes through.  ``source`` holds
        the ``start``-level nodes whose subtrees meet leaves ``[lo, hi)``
        (:func:`repro.dpf.ggm.level_window`); each level expands the
        whole frontier in one fused cipher pass and then keeps only the
        children inside the next level's window — at most one node falls
        off each end — so the result is exactly the ``stop``-level
        window, in natural order.  This is
        :func:`repro.dpf.dpf.eval_range`'s pruning done once for the
        whole ``(B, W, 16)`` frontier; for ``(lo, hi) = (0, 2**depth)``
        the clip is a no-op and the walk is the textbook expansion.

        The frontier ping-pongs between the workspace's two buffer pairs
        (slot ``slot``): a level reads views of one and writes prefix
        views of the other.  For ``batch > 1`` those views are
        non-contiguous, so the cipher stages one contiguous copy of the
        *parent* frontier per level in the workspace's staging buffer; a
        level-major frontier layout that removes it is future work.  The
        meter records the *live frontier* — the copied-in source, then
        parents plus all freshly written children at each level, the
        clipped children released right after — which is what the
        Figure 6 analytic model describes.
        """
        b = kb.batch
        windows = _level_windows(kb.depth, start, stop, lo, hi)
        node_lo, node_hi = windows[0]
        # Every level writes both children of each parent before the clip.
        cap = max([node_hi - node_lo] + [2 * (z - a) for a, z in windows[:-1]])
        back_seeds, back_ts = workspace.frontier_pair(slot, b, cap)
        seeds = back_seeds[0][:, : node_hi - node_lo]
        ts = back_ts[0][:, : node_hi - node_lo]
        seeds[:] = source[0]
        ts[:] = source[1]
        meter.alloc(seeds.nbytes + ts.nbytes)
        for level, (keep_lo, keep_hi) in zip(range(start, stop), windows[1:]):
            side = (level - start + 1) % 2
            width = seeds.shape[1]
            new_seeds = back_seeds[side][:, : 2 * width]
            new_ts = back_ts[side][:, : 2 * width]
            left, t_left, right, t_right = _expand_children_batch(
                prf,
                seeds,
                ts,
                kb.cw_seeds[:, level],
                kb.cw_t_left[:, level],
                kb.cw_t_right[:, level],
                stage=workspace.stage(slot, b * width),
            )
            # Interleave: node j's children are nodes 2j and 2j + 1.
            new_seeds[:, 0::2] = left
            new_seeds[:, 1::2] = right
            new_ts[:, 0::2] = t_left
            new_ts[:, 1::2] = t_right
            meter.alloc_arrays(new_seeds, new_ts)
            meter.free_arrays(seeds, ts)
            # The children are nodes [2 * node_lo, 2 * node_lo + 2 * width).
            seeds = new_seeds[:, keep_lo - 2 * node_lo : keep_hi - 2 * node_lo]
            ts = new_ts[:, keep_lo - 2 * node_lo : keep_hi - 2 * node_lo]
            meter.free(NODE_BYTES * b * (2 * width - (keep_hi - keep_lo)))
            node_lo = keep_lo
        return seeds, ts

    def _expand_to_level(
        self,
        kb: KeyArena,
        prf: Prf,
        meter: MemoryMeter,
        stop: int,
        lo: int,
        hi: int,
        workspace: ExpansionWorkspace,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_expand_window` from the batch's roots down to ``stop``."""
        roots = (kb.roots[:, np.newaxis, :], kb.root_ts[:, np.newaxis])
        return self._expand_window(
            kb, prf, meter, roots, 0, stop, lo, hi, workspace, "frontier"
        )

    @staticmethod
    def _window_blocks(depth: int, lo: int, hi: int) -> int:
        """PRF blocks of one key's windowed walk: two per expanded node.

        ``sum_l 2 * width(l)`` over the parent levels ``l < depth`` —
        ``2 * (2**depth - 1)`` for the whole power-of-two tree.
        """
        return 2 * sum(_window_widths(depth, 0, depth, lo, hi)[:-1])

    @staticmethod
    def _bfs_peak_bytes(
        batch_size: int, depth: int, start: int, stop: int, lo: int, hi: int
    ) -> int:
        """Peak metered bytes of one :meth:`_expand_window` call alone."""
        widths = _window_widths(depth, start, stop, lo, hi)
        if start == stop:
            return NODE_BYTES * batch_size * widths[0]
        # The widest parent frontier plus both children of each parent.
        return NODE_BYTES * batch_size * 3 * max(widths[:-1])


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

    def _eval(
        self,
        kb: KeyArena,
        prf: Prf,
        meter: MemoryMeter,
        workspace: ExpansionWorkspace,
        lo: int,
        hi: int,
        sink: _ShareMatrix | _Reduction,
    ) -> None:
        # No ping-pong frontier to reuse: every level's children come
        # straight out of the cipher, so the workspace is unused here.
        b, n = kb.batch, kb.depth
        # One lane per leaf of the window; pruning is just fewer lanes.
        leaf_idx = np.arange(*ggm.level_window(n, n, lo, hi), dtype=np.int64)
        width = leaf_idx.shape[0]
        seeds = meter.alloc_array(
            np.broadcast_to(kb.roots[:, np.newaxis, :], (b, width, 16)).copy()
        )
        ts = meter.alloc_array(np.broadcast_to(kb.root_ts[:, np.newaxis], (b, width)).copy())
        for level in range(n):
            bits = ((leaf_idx >> (n - 1 - level)) & 1).astype(np.uint8)
            flat = seeds.reshape(b * width, 16)
            children = np.empty_like(flat)
            go_left = np.tile(bits == 0, b)
            if go_left.any():
                children[go_left] = prf.expand(flat[go_left], 0)
            go_right = ~go_left
            if go_right.any():
                children[go_right] = prf.expand(flat[go_right], 1)
            meter.alloc(children.nbytes + b * width)
            child_ts = (children[:, 0] & 1).reshape(b, width)
            children = children.reshape(b, width, 16)
            corr = (
                seeds_to_u64(kb.cw_seeds[:, level])[:, np.newaxis, :]
                * ts.astype(np.uint64)[:, :, np.newaxis]
            )
            children.view(np.uint64).reshape(b, width, 2)[:] ^= corr
            cw_t = np.where(
                bits[np.newaxis, :] == 0,
                kb.cw_t_left[:, level][:, np.newaxis],
                kb.cw_t_right[:, level][:, np.newaxis],
            ).astype(np.uint8)
            child_ts = (child_ts ^ (ts & cw_t)).astype(np.uint8)
            meter.free_arrays(seeds, ts)
            seeds, ts = children, child_ts
        values = _leaf_shares_batch(seeds, ts, kb)
        meter.free_arrays(seeds, ts)
        sink.commit(values, lo, hi)

    def cost(
        self,
        batch_size: int,
        domain_size: int,
        eval_range: tuple[int, int] | None = None,
    ) -> StrategyCost:
        n, lo, hi = self._walk(domain_size, eval_range)
        lanes = batch_size * (hi - lo)
        return StrategyCost(
            strategy=self.name,
            batch_size=batch_size,
            domain_size=domain_size,
            prf_blocks=lanes * n,
            peak_mem_bytes=NODE_BYTES * lanes * (2 if n >= 1 else 1),
            parallel_width=lanes,
        )

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

    def _eval(
        self,
        kb: KeyArena,
        prf: Prf,
        meter: MemoryMeter,
        workspace: ExpansionWorkspace,
        lo: int,
        hi: int,
        sink: _ShareMatrix | _Reduction,
    ) -> None:
        seeds, ts = self._expand_to_level(kb, prf, meter, kb.depth, lo, hi, workspace)
        values = _leaf_shares_batch(seeds, ts, kb)
        meter.alloc_array(values)  # unfused: shares are materialized
        meter.free_arrays(seeds, ts)
        sink.commit(values, lo, hi)
        meter.free_array(values)

    def cost(
        self,
        batch_size: int,
        domain_size: int,
        eval_range: tuple[int, int] | None = None,
    ) -> StrategyCost:
        n, lo, hi = self._walk(domain_size, eval_range)
        leaves = hi - lo
        peak = max(
            self._bfs_peak_bytes(batch_size, n, 0, n, lo, hi),
            (NODE_BYTES + 8 * ggm.LEAF_WORDS) * batch_size * leaves,
        )
        return StrategyCost(
            strategy=self.name,
            batch_size=batch_size,
            domain_size=domain_size,
            prf_blocks=batch_size * self._window_blocks(n, lo, hi),
            peak_mem_bytes=peak,
            parallel_width=batch_size * leaves,
        )

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
    inner node (``L - 2`` per query over word-packed leaves; the
    modeled one-row-per-leaf kernel of :meth:`plan` pays ``2(L - 1)``),
    and the leaf shares feed the table dot product in registers (fused —
    the paper's Table 4 kernel).

    Only the lanes whose subtrees meet the evaluated rows are started
    (none past the end of a non-power-of-two domain), and inside the
    lockstep walk the first and the last lane sit out the nodes that
    fall outside the window, so the work is the windowed walk's exactly.
    The meter charges each started lane its whole ``d``-deep stack of
    sibling pairs for the length of the walk, as a device kernel
    reserving per-lane local memory would.

    With a reducer the lanes run a group at a time (:meth:`_group_lanes`)
    and each group's leaves — whole subtrees, so contiguous rows — are
    reduced as soon as the group finishes.

    Args:
        log_subtrees: log2 of the per-query subtree count K (clamped to
            the tree depth).
    """

    name = "memory_bounded"
    fused = True

    def __init__(self, log_subtrees: int = 9):
        if log_subtrees < 0:
            raise ValueError("log_subtrees must be non-negative")
        self.log_subtrees = log_subtrees

    def _split(self, depth: int) -> tuple[int, int]:
        """``(k, d)``: top levels and subtree depth of a ``depth``-level tree."""
        k = min(self.log_subtrees, depth)
        return k, depth - k

    @staticmethod
    def _group_lanes(k: int, d: int) -> int:
        """Lanes walked in lockstep between two hand-overs to a reducer.

        Whole subtrees filling a window of ``8 K`` leaves (64 KB of
        shares per key at the default K): the same order as the
        sibling stacks the lanes hold anyway, and fixed as the table
        grows.  The price is call size — a group's cipher calls carry
        ``B * lanes`` seeds, and ``lanes`` halves each time the table
        doubles — which is why the window is not smaller: at ``8 K`` a
        batch of 16 loses nothing up to 2^16 rows (1.5x at 2^18), and
        at the batches of hundreds the scheduler gives this strategy
        the grouped walk is the faster one (``docs/performance.md``).
        """
        return max(1, (8 << k) >> d)

    def _eval(
        self,
        kb: KeyArena,
        prf: Prf,
        meter: MemoryMeter,
        workspace: ExpansionWorkspace,
        lo: int,
        hi: int,
        sink: _ShareMatrix | _Reduction,
    ) -> None:
        n = kb.depth
        k, d = self._split(n)
        lane_seeds, lane_ts = self._expand_to_level(kb, prf, meter, k, lo, hi, workspace)
        first_lane, end_lane = ggm.level_window(n, k, lo, hi)
        # Each lane owns a d-deep stack of sibling pairs for the whole
        # walk, whether or not the window keeps it busy at every node.
        stack_bytes = 2 * d * (lane_seeds.nbytes + lane_ts.nbytes)
        meter.alloc(stack_bytes)

        def descend(
            seeds: np.ndarray, ts: np.ndarray, j: int, first: int, path: int
        ) -> None:
            """Lanes ``first..`` in lockstep at subtree node ``path`` of level ``j``.

            Leaves land in ``words``, the window of leaves from
            ``group_lo`` on that the loop below holds at the time.
            """
            if j == d:
                # Lane i's leaf is leaf (i << d) + path.
                _leaf_shares_batch(
                    seeds, ts, kb, out=words[:, (first << d) + path - group_lo :: 1 << d]
                )
                return
            level = k + j
            left, t_left, right, t_right = _expand_children_batch(
                prf,
                seeds,
                ts,
                kb.cw_seeds[:, level],
                kb.cw_t_left[:, level],
                kb.cw_t_right[:, level],
            )
            keep_lo, keep_hi = ggm.level_window(n, level + 1, lo, hi)
            lanes = seeds.shape[1]
            for child_path, child, child_ts in (
                (2 * path, left, t_left),
                (2 * path + 1, right, t_right),
            ):
                # Lane i's child is node (i << (j + 1)) + child_path, so
                # only the first and the last lane can leave the window.
                first_node = (first << (j + 1)) + child_path
                last_node = ((first + lanes - 1) << (j + 1)) + child_path
                skip = int(first_node < keep_lo)
                stop = lanes - int(last_node >= keep_hi)
                if skip < stop:
                    descend(
                        child[:, skip:stop],
                        child_ts[:, skip:stop],
                        j + 1,
                        first + skip,
                        child_path,
                    )

        # A reducer takes the leaves a group of whole subtrees at a
        # time; a share matrix is one window, so every lane runs in
        # lockstep.
        group = self._group_lanes(k, d) if sink.streaming else end_lane - first_lane
        for start in range(first_lane, end_lane, group):
            stop = min(start + group, end_lane)
            group_lo, group_hi = max(lo, start << d), min(hi, stop << d)
            words = sink.window(group_lo, group_hi)
            index = slice(start - first_lane, stop - first_lane)
            descend(lane_seeds[:, index], lane_ts[:, index], 0, start, 0)
            sink.commit(words, group_lo, group_hi)
        meter.free(stack_bytes)
        meter.free_arrays(lane_seeds, lane_ts)

    def cost(
        self,
        batch_size: int,
        domain_size: int,
        eval_range: tuple[int, int] | None = None,
    ) -> StrategyCost:
        n, lo, hi = self._walk(domain_size, eval_range)
        k, d = self._split(n)
        lanes = batch_size * _window_widths(n, k, k, lo, hi)[0]
        peak = max(
            self._bfs_peak_bytes(batch_size, n, 0, k, lo, hi),
            NODE_BYTES * lanes * (1 + 2 * d),
        )
        return StrategyCost(
            strategy=self.name,
            batch_size=batch_size,
            domain_size=domain_size,
            prf_blocks=batch_size * self._window_blocks(n, lo, hi),
            peak_mem_bytes=peak,
            parallel_width=lanes,
        )

    def plan(
        self,
        batch_size: int,
        table_entries: int,
        entry_bytes: int = 8,
        prf_name: str = "aes128",
        resident_keys: bool = False,
    ) -> KernelPlan:
        k, d = self._split(self._depth(table_entries))
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

    With a reducer each tile's leaves are reduced as the tile finishes,
    out of one ``(B, T, 2)`` window that every tile reuses.

    Args:
        log_tile: log2 of the tile's leaf count T (clamped to the tree
            depth).
    """

    name = "cooperative_groups"
    fused = True

    def __init__(self, log_tile: int = 9):
        if log_tile < 0:
            raise ValueError("log_tile must be non-negative")
        self.log_tile = log_tile

    @property
    def tile_leaves(self) -> int:
        return 2**self.log_tile

    def _split(self, depth: int) -> tuple[int, int]:
        """``(m, t)``: top levels and tile depth of a ``depth``-level tree."""
        t = min(self.log_tile, depth)
        return depth - t, t

    def _eval(
        self,
        kb: KeyArena,
        prf: Prf,
        meter: MemoryMeter,
        workspace: ExpansionWorkspace,
        lo: int,
        hi: int,
        sink: _ShareMatrix | _Reduction,
    ) -> None:
        n = kb.depth
        m, t = self._split(n)
        frontier_seeds, frontier_ts = self._expand_to_level(
            kb, prf, meter, m, lo, hi, workspace
        )
        first_tile, end_tile = ggm.level_window(n, m, lo, hi)
        # Double-buffered tile expansion: the "tile" workspace slot is
        # reused for every tile and every level within a tile, and is
        # distinct from the "frontier" slot because the frontier views
        # stay live across the whole tile loop.
        for tile in range(first_tile, end_tile):
            tile_lo, tile_hi = self._tile_window(tile, t, lo, hi)
            index = tile - first_tile
            seeds, ts = self._expand_window(
                kb,
                prf,
                meter,
                (frontier_seeds[:, index : index + 1], frontier_ts[:, index : index + 1]),
                m,
                n,
                tile_lo,
                tile_hi,
                workspace,
                "tile",
            )
            words = sink.window(tile_lo, tile_hi)
            _leaf_shares_batch(seeds, ts, kb, out=words)
            meter.free_arrays(seeds, ts)
            sink.commit(words, tile_lo, tile_hi)
        meter.free_arrays(frontier_seeds, frontier_ts)

    @staticmethod
    def _tile_window(tile: int, t: int, lo: int, hi: int) -> tuple[int, int]:
        """The leaves of ``[lo, hi)`` inside tile ``tile`` of ``2**t`` leaves."""
        return max(lo, tile << t), min(hi, (tile + 1) << t)

    def cost(
        self,
        batch_size: int,
        domain_size: int,
        eval_range: tuple[int, int] | None = None,
    ) -> StrategyCost:
        n, lo, hi = self._walk(domain_size, eval_range)
        m, t = self._split(n)
        first_tile, end_tile = ggm.level_window(n, m, lo, hi)
        tiles = end_tile - first_tile
        # Only the two edge tiles can be clipped; every tile between
        # them is whole, so three candidates bound the tile peak.
        tile_peak = max(
            self._bfs_peak_bytes(batch_size, n, m, n, *self._tile_window(tile, t, lo, hi))
            for tile in {first_tile, min(first_tile + 1, end_tile - 1), end_tile - 1}
        )
        peak = max(
            self._bfs_peak_bytes(batch_size, n, 0, m, lo, hi),
            NODE_BYTES * batch_size * tiles + tile_peak,
        )
        return StrategyCost(
            strategy=self.name,
            batch_size=batch_size,
            domain_size=domain_size,
            prf_blocks=batch_size * self._window_blocks(n, lo, hi),
            peak_mem_bytes=peak,
            parallel_width=batch_size * tiles * 2**t,
        )

    def plan(
        self,
        batch_size: int,
        table_entries: int,
        entry_bytes: int = 8,
        prf_name: str = "aes128",
        resident_keys: bool = False,
    ) -> KernelPlan:
        m, t = self._split(self._depth(table_entries))
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

"""The walk's planar level step and leaf conversion against the references.

:func:`repro.gpu.strategies._expand_level` expands a whole ``(B, W)``
frontier in one cipher pass and writes the corrected children, already
interleaved, straight into the next frontier's buffers, computing on
``(..., B * W)`` planes; :func:`repro.dpf.ggm.expand_level` is the
one-key oracle it must equal, seeds and control bits, in natural order.
:func:`repro.gpu.strategies._leaf_shares_batch` converts a leaf
frontier one word plane at a time; :func:`repro.dpf.ggm.leaf_values` is
its one-key oracle.  Four claims, for every registered PRF:

* one step equals ``expand_level`` key by key, with the correction rows
  exactly as :func:`_level_corrections` yields them (``[:, level]``
  slices of ``(B, n, ...)`` arrays) and a contiguous or a strided
  (range-clipped) parent frontier, at ``B`` in {1, 3, 64} and ``W`` up
  to 256;
* the leaf conversion equals ``leaf_values`` key by key with both
  parties' keys in one arena, into a strided window of a share matrix
  (leaving the rest of the matrix alone) and into the reducer's
  workspace window;
* every level of a windowed walk (:func:`_expand_window`) equals the
  per-key reference walk clipped to the same node windows — unclipped,
  and clipped to windows with odd ends, where a parent frontier is
  strided and is staged — through a fresh and through a reused
  workspace;
* two threads with a workspace each (``AsyncPirServer(overlap=True)``
  runs each party's dispatch on its own thread) stay bit-exact.
"""

import sys
import threading

import numpy as np
import pytest

from repro.crypto import available_prfs, get_prf
from repro.dpf import ggm
from repro.gpu import ExpansionWorkspace, KeyArena, MemoryMeter, get_strategy
from repro.gpu.strategies import (
    NODE_BYTES,
    _expand_level,
    _expand_window,
    _leaf_shares_batch,
    _level_corrections,
    _ShareMatrix,
)

BATCHES = [1, 3, 64]
WIDTHS = [1, 7, 256]
ROWS = 64  # a depth-5 tree of 32 leaves
DEPTH = ggm.tree_depth(ROWS)
WINDOWS = [(0, 1 << DEPTH), (3, 29), (1, (1 << DEPTH) - 1), (5, 6)]
"""Leaf windows: the whole tree, then clips with odd ends."""


def _reference_step(prf, seeds, ts, cw_seed, cw_t):
    """``ggm.expand_level`` key by key: ``(B, 2W, 16)`` and ``(B, 2W)``."""
    steps = [
        ggm.expand_level(prf, seeds[i], ts[i], cw_seed[i], int(cw_t[i, 0]), int(cw_t[i, 1]))
        for i in range(len(seeds))
    ]
    return np.stack([s for s, _ in steps]), np.stack([t for _, t in steps])


def _arena(prf, batch, seed):
    """``batch`` keys of both parties: root bits and signs take both values."""
    rng = np.random.default_rng(seed)
    alphas = rng.integers(0, ROWS, size=batch)
    arenas = KeyArena.generate(alphas, ROWS, prf, rng)
    return KeyArena.concat(arenas)[batch // 2 : batch // 2 + batch]


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("prf_name", available_prfs())
def test_one_step_equals_expand_level(prf_name, batch, width, strided):
    prf = get_prf(prf_name)
    rng = np.random.default_rng([batch, width, int(strided)])
    arena = _arena(prf, batch, seed=width)
    level = 2  # an inner row: a strided slice of every correction array
    cw_words, cw_pairs = _level_corrections(arena)
    seeds = rng.integers(0, 256, size=(batch, width, 16), dtype=np.uint8)
    # A strided frontier: the middle of a wider one, as a clip leaves it.
    wide_ts = rng.integers(0, 2, size=(batch, width + 2), dtype=np.uint8)
    ts = wide_ts[:, 1:-1] if strided else np.ascontiguousarray(wide_ts[:, 1:-1])
    children = np.empty(32 * batch * width, dtype=np.uint8)
    child_ts = np.empty((batch, 2 * width), dtype=np.uint8)

    _expand_level(
        prf,
        seeds.reshape(-1, 16),
        ts,
        cw_words[:, level],
        cw_pairs[:, level],
        np.empty(2 * batch * width, dtype=np.uint64),
        children,
        child_ts,
    )
    cw_t = np.stack([arena.cw_t_left[:, level], arena.cw_t_right[:, level]], axis=1)
    want_seeds, want_ts = _reference_step(prf, seeds, ts, arena.cw_seeds[:, level], cw_t)
    assert np.array_equal(children.reshape(batch, 2 * width, 16), want_seeds)
    assert np.array_equal(child_ts, want_ts)


def _reference_leaves(arena, seeds, ts):
    """``ggm.leaf_values`` key by key: ``(B, W, 2)``."""
    return np.stack(
        [
            ggm.leaf_values(
                seeds[i], ts[i], tuple(arena.output_cws[i].tolist()), int(arena.negate[i])
            )
            for i in range(arena.batch)
        ]
    )


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("batch", BATCHES)
def test_leaf_conversion_equals_leaf_values(batch, width):
    arena = _arena(get_prf("siphash"), batch, seed=batch)
    if batch > 1:
        assert arena.negate.any() and not arena.negate.all()
    rng = np.random.default_rng([batch, width])
    # A clipped leaf window: a strided slice of a wider frontier.
    seeds = rng.integers(0, 256, size=(batch, width + 3, 16), dtype=np.uint8)[:, 1:-2]
    ts = rng.integers(0, 2, size=(batch, width + 3), dtype=np.uint8)[:, 1:-2]
    want = _reference_leaves(arena, seeds, ts)
    workspace = ExpansionWorkspace()

    # Into a strided window of a share matrix: the rest stays untouched.
    matrix = _ShareMatrix(batch, 10, 10 + 2 * width + 5)
    matrix.words[...] = 7
    window = matrix.window(13, 13 + width)
    _leaf_shares_batch(seeds, ts, arena, window, workspace.scratch(ts.size))
    assert np.array_equal(window, want)
    assert (matrix.words[:, :3] == 7).all() and (matrix.words[:, 3 + width :] == 7).all()

    # Into the reducer's window, through a scratch another step dirtied.
    workspace.scratch(ts.size)[:] = 0xDEADBEEF
    reduced = workspace.window(batch, width)
    _leaf_shares_batch(seeds, ts, arena, reduced, workspace.scratch(ts.size))
    assert np.array_equal(reduced, want)


def _reference_levels(prf, arena, lo, hi):
    """Every level's ``(seeds, ts)`` node window, key by key."""
    seeds = arena.roots[:, np.newaxis]
    ts = arena.root_ts[:, np.newaxis]
    levels = [(seeds, ts)]
    for level in range(DEPTH):
        cw_t = np.stack([arena.cw_t_left[:, level], arena.cw_t_right[:, level]], axis=1)
        seeds, ts = _reference_step(prf, seeds, ts, arena.cw_seeds[:, level], cw_t)
        node_lo, _ = ggm.level_window(DEPTH, level, lo, hi)
        keep_lo, keep_hi = ggm.level_window(DEPTH, level + 1, lo, hi)
        keep = slice(keep_lo - 2 * node_lo, keep_hi - 2 * node_lo)
        seeds, ts = seeds[:, keep], ts[:, keep]
        levels.append((seeds, ts))
    return levels


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("prf_name", available_prfs())
def test_every_level_of_a_window_equals_the_reference(prf_name, batch, window):
    prf = get_prf(prf_name)
    arena = _arena(prf, batch, seed=batch)
    corrections = _level_corrections(arena)
    levels = _reference_levels(prf, arena, *window)
    roots = (arena.roots[:, np.newaxis], arena.root_ts[:, np.newaxis])
    reused = ExpansionWorkspace()
    # Deepest first, so the reused workspace holds stale wider levels.
    for stop in range(DEPTH, 0, -1):
        want_seeds, want_ts = levels[stop]
        for workspace in (ExpansionWorkspace(), reused):
            meter = MemoryMeter()
            seeds, ts = _expand_window(
                arena, corrections, prf, meter, workspace, roots, 0, stop, *window, "frontier"
            )
            assert np.array_equal(seeds, want_seeds), stop
            assert np.array_equal(ts, want_ts), stop
            assert meter.current == NODE_BYTES * batch * want_ts.shape[1]


def test_threads_with_a_workspace_each_stay_bit_exact():
    prf = get_prf("aes128")  # the one shared instance, as served
    walk = get_strategy("cooperative_groups")
    jobs = [(_arena(prf, 3, seed=1), (7, 61)), (_arena(prf, 64, seed=2), None)]
    expected = [walk.eval_batch(arena, prf, eval_range=rows) for arena, rows in jobs]
    failures = []
    barrier = threading.Barrier(len(jobs))

    def worker(index):
        arena, rows = jobs[index]
        workspace = ExpansionWorkspace()
        barrier.wait()  # maximize real overlap between threads
        for _ in range(30):
            got = walk.eval_batch(arena, prf, None, workspace, rows)
            if not np.array_equal(got, expected[index]):
                failures.append(index)
                return

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, f"threads {failures} saw corrupted shares"

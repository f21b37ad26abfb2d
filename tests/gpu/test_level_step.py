"""The walk's fused level step against the reference ``ggm.expand_level``.

:func:`repro.gpu.strategies._expand_level` expands a whole ``(B, W)``
frontier in one cipher pass and writes the corrected children, already
interleaved, straight into the next frontier's buffers;
:func:`repro.dpf.ggm.expand_level` is the one-key oracle it must equal,
seeds and control bits, in natural order.  Three claims, for every
registered PRF:

* one step equals ``expand_level`` key by key, with a contiguous or a
  strided (range-clipped) parent frontier;
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
    _level_corrections,
)

BATCHES = [1, 3, 64]
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


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("prf_name", available_prfs())
def test_one_step_equals_expand_level(prf_name, batch, strided):
    prf = get_prf(prf_name)
    rng = np.random.default_rng([batch, int(strided)])
    width = 5
    seeds = rng.integers(0, 256, size=(batch, width, 16), dtype=np.uint8)
    # A strided frontier: the middle of a wider one, as a clip leaves it.
    wide_ts = rng.integers(0, 2, size=(batch, width + 2), dtype=np.uint8)
    ts = wide_ts[:, 1:-1] if strided else np.ascontiguousarray(wide_ts[:, 1:-1])
    cw_seed = rng.integers(0, 256, size=(batch, 16), dtype=np.uint8)
    cw_t = rng.integers(0, 2, size=(batch, 2), dtype=np.uint8)
    children = np.empty((batch, width, 2, 2), dtype=np.uint64)
    child_ts = np.empty((batch, width, 2), dtype=np.uint8)

    _expand_level(
        prf,
        seeds.reshape(-1, 16),
        ts,
        cw_seed.view(np.uint64),
        cw_t,
        np.empty((batch, width, 2), dtype=np.uint64),
        children,
        child_ts,
    )
    want_seeds, want_ts = _reference_step(prf, seeds, ts, cw_seed, cw_t)
    assert np.array_equal(children.view(np.uint8).reshape(batch, 2 * width, 16), want_seeds)
    assert np.array_equal(child_ts.reshape(batch, 2 * width), want_ts)


def _arena(prf, batch, seed):
    rng = np.random.default_rng(seed)
    alphas = rng.integers(0, ROWS, size=batch)
    arenas = KeyArena.generate(alphas, ROWS, prf, rng)
    # Both parties' keys: root control bits 0 and 1 take both branches.
    return KeyArena.concat(arenas)[batch // 2 : batch // 2 + batch]


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
                arena, corrections, prf, meter, roots, 0, stop, *window, workspace, "frontier"
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

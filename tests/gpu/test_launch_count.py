"""Launch counts: the Python-visible calls one served query costs.

A lone query's dispatch is bound by per-call overhead, not by work: at
``serve_paced``'s batches of one or two keys every tree level is a
handful of tiny numpy calls.  Their wall-clock swings by tens of
percent on a shared host, but their *number* does not.
``sys.setprofile`` sees every Python-level call and every call of a C
function or method (``call`` and ``c_call`` events; a ufunc invocation
is neither, so the count is of the glue around the kernels).  Counted
with the same seed, a request's count is the same on every run, on any
host.

Counted on CPython 3.11 with numpy 2.4 at three points: before the
launch-lean level step; after it (method-form ``take`` and positional
``out`` in the ciphers; one fused pass per tree level, writing corrected
children straight into an exact-shape frontier; a memoised
``Strategy.cost``); and after the planar level step with grouped tiles
(every level ufunc runs along the node axis; below the tile roots,
groups of tiles share their first levels, so the large-table walk makes
fewer, fuller cipher calls):

==============================================  ======  =======  =======
call                                            before  launch-  grouped
                                                        lean     tiles
==============================================  ======  =======  =======
one warmed B=1 ``PirServer.handle``, 2^10       1,722   676      679
``Aes128.expand_pair_stacked``, 32 seeds        130     40       40
``SipHashPrf.expand_pair_stacked``, 32 seeds    84      36       36
cipher calls of a B=32, 2^16-row SipHash walk   582     582      342
==============================================  ======  =======  =======

Each profile budget is half the "before" count: at least 25 % under it,
with room for the few calls another interpreter or numpy release may
add.  The cipher-call count of the large-table walk is pinned exactly:
it depends only on the walk's tile and group constants, not on the
host.
"""

import sys

import numpy as np
import pytest

from repro.crypto import get_prf
from repro.crypto.prf import CountingPrf
from repro.gpu import KeyArena, get_strategy
from repro.gpu import strategies as walk
from repro.pir import PirClient, PirServer

ROWS = 1 << 10
HANDLE_BUDGET = 1722 // 2  # 644 exactly; 652 while each dispatch still planned
PAIR_BUDGETS = {"aes128": 130 // 2, "siphash": 84 // 2}


def _count_calls(call) -> int:
    """``call`` and ``c_call`` profile events while ``call()`` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


def _served_query(seed: int) -> tuple[PirServer, bytes]:
    """A warmed aes128 server and one single-key query frame."""
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 1 << 64, size=ROWS, dtype=np.uint64)
    client = PirClient(ROWS, "aes128", rng=np.random.default_rng(seed + 1))
    frame = client.query_many([int(rng.integers(ROWS))])[0].requests[0]
    server = PirServer(table, prf_name="aes128")
    for _ in range(3):  # scheduler memo, workspace and cipher scratch
        server.handle(frame)
    return server, frame


def test_lone_query_dispatch_count_is_exact_and_lean():
    counts, replies = [], []
    for _ in range(3):
        server, frame = _served_query(seed=29)
        counts.append(_count_calls(lambda: replies.append(server.handle(frame))))
    assert len(set(counts)) == 1, counts
    assert len(set(replies)) == 1
    assert counts[0] <= HANDLE_BUDGET, (
        f"one B=1 handle makes {counts[0]} calls, over the budget of "
        f"{HANDLE_BUDGET} (1,722 before the launch-lean level step)"
    )


@pytest.mark.parametrize("prf_name", sorted(PAIR_BUDGETS))
def test_cipher_call_count_is_exact_and_lean(prf_name):
    prf = get_prf(prf_name)
    counts = []
    for _ in range(3):
        seeds = np.random.default_rng(32).integers(0, 256, size=(32, 16), dtype=np.uint8)
        prf.expand_pair_stacked(seeds)  # the thread's chunk scratch
        counts.append(_count_calls(lambda: prf.expand_pair_stacked(seeds)))
    assert len(set(counts)) == 1, counts
    assert counts[0] <= PAIR_BUDGETS[prf_name], counts[0]


class _SizedPrf(CountingPrf):
    """A :class:`CountingPrf` that also records each call's seed count."""

    def __init__(self, inner):
        super().__init__(inner)
        self.sizes = []

    def expand_pair_stacked(self, seeds):
        self.sizes.append(int(seeds.shape[0]))
        return super().expand_pair_stacked(seeds)


def test_large_table_walk_makes_few_full_cipher_calls():
    """``offline_batch``'s shape: 32 SipHash keys over 2^16 rows, a
    depth-15 tree of 512-leaf tiles.  The frontier takes one call per
    level down to the 64 tile roots; each group of 16 tiles one per
    group level; each tile one per remaining level.  Every call below
    the frontier carries at least ``2**a`` nodes a key (512 seeds), and
    the blocks are those of the whole tree, grouped or not."""
    batch, rows = 32, 1 << 16
    prf = get_prf("siphash")
    rng = np.random.default_rng(30)
    alphas = rng.integers(0, rows, size=batch // 2)
    arena = KeyArena.concat(KeyArena.generate(alphas, rows, prf, rng))
    sized = _SizedPrf(prf)
    get_strategy("memory_bounded").eval_batch(
        arena, sized, reduce=lambda shares, lo, hi: shares.sum(axis=1)
    )
    n = arena.depth
    t = min(walk._LOG_TILE, n)
    a = min(walk._GROUP_DEPTH, t - 1)
    frontier, tiles = n - t, 1 << (n - t)
    groups = tiles >> (t - 1 - a)
    assert (n, t, a) == (15, 9, 4)
    assert sized.calls == frontier + groups * a + tiles * (t - a) == 342  # 582 ungrouped
    assert sized.blocks == batch * 2 * (2**n - 1)
    assert min(sized.sizes[frontier:]) == (1 << a) * batch

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

Counted on CPython 3.11 with numpy 2.4, before and after the
launch-lean level step (method-form ``take`` and positional ``out`` in
the ciphers; one fused pass per tree level, writing corrected children
straight into an exact-shape frontier; a memoised ``Strategy.cost``):

===========================================  ======  =====
call                                         before  after
===========================================  ======  =====
one warmed B=1 ``PirServer.handle``, 2^10    1,722   676
``Aes128.expand_pair_stacked``, 32 seeds     130     40
``SipHashPrf.expand_pair_stacked``, 32 seeds 84      36
===========================================  ======  =====

Each budget is half the "before" count: at least 25 % under it, with
room for the few calls another interpreter or numpy release may add.
"""

import sys

import numpy as np
import pytest

from repro.crypto import get_prf
from repro.pir import PirClient, PirServer

ROWS = 1 << 10
HANDLE_BUDGET = 1722 // 2
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

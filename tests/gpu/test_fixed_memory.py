"""Fixed memory, asserted: a reducing walk never holds the share matrix.

``tracemalloc`` sees every numpy allocation, so the peak of one
``eval_batch(..., reduce=r)`` on a fresh workspace is the walk's whole
footprint: the group's and the tile's ping-pong frontiers, staging,
cipher output.  A tile's leaves are converted in place, in its own seed
words, so there is no separate leaf window.  The tile is 512 leaves
whatever the table, so the footprint must not grow with the table.
"""

import tracemalloc

import numpy as np

from repro.crypto import get_prf
from repro.dpf import gen, pack_keys
from repro.gpu import ExpansionWorkspace, KeyArena, get_strategy
from repro.pir import PirClient, PirQuery, PirServer

PRF = get_prf("siphash")
BATCH = 32  # the offline_batch workload's shape
MB = 1 << 20


def _inputs(log_domain, batch=BATCH):
    domain = 1 << log_domain
    rng = np.random.default_rng(log_domain)
    keys = [gen(int(rng.integers(domain)), domain, PRF, rng)[i % 2] for i in range(batch)]
    return keys, rng.integers(0, 1 << 64, size=domain, dtype=np.uint64)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reducing_walk_peak_is_fixed_whatever_the_table():
    strategy = get_strategy("cooperative_groups")  # any design: one walk
    # The cipher's chunk scratch is per thread, not per call.
    PRF.expand_pair_stacked(np.zeros((1, 16), dtype=np.uint8))
    peaks = {}
    for log_domain in (12, 16):
        keys, table = _inputs(log_domain)
        arena = KeyArena.from_keys(keys)
        expected = strategy.eval_batch(arena, PRF) @ table
        got = []
        peaks[log_domain] = _traced_peak(
            lambda: got.append(
                strategy.eval_batch(
                    arena,
                    PRF,
                    workspace=ExpansionWorkspace(),
                    reduce=lambda shares, lo, hi: shares @ table[lo:hi],
                )
            )
        )
        assert np.array_equal(got[0], expected)
    # 1.157 MiB at L = 2^16 and 0.963 MiB at 2^12; 1.407 and 1.213 with
    # the separate 256 KiB leaf window the walk used to fill.
    assert peaks[16] < 1.25 * MB, peaks
    assert peaks[16] <= 1.25 * peaks[12], peaks


def test_serving_twice_allocates_no_second_window():
    keys, table = _inputs(14, batch=16)
    frame = PirQuery(request_id=1, count=16, key_bytes=pack_keys(keys)).to_bytes()
    server = PirServer(table, prf_name="siphash")
    first = server.handle(frame)  # sizes the workspace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert server.handle(frame) == first
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Nothing is kept (the reply is a few hundred bytes), and the
    # transient peak is cipher output, never the 2 MB share matrix.
    assert held - before < 16 << 10
    assert peak - before < 16 * (1 << 14) * 8 // 2


def test_a_served_batch_keeps_no_leaf_window():
    """What one B=64, L=2^10 aes128 dispatch leaves in its workspace.

    1,124,928 B: the group and tile frontiers (26,112 + 835,584), the
    shared correction scratch (262,144) and the 1,088-byte copy of the
    roots.  It read 1,648,128 B while the walk filled a separate
    ``(B, T, 2)`` leaf window (524,288 B).
    """
    rows, batch = 1 << 10, 64
    rng = np.random.default_rng(40)
    table = rng.integers(0, 1 << 64, size=rows, dtype=np.uint64)
    client = PirClient(rows, "aes128", rng=np.random.default_rng(41))
    indices = [int(i) for i in rng.integers(rows, size=batch)]
    (queries,) = client.query_many(indices, batch)
    servers = [PirServer(table, prf_name="aes128") for _ in range(2)]
    replies = [server.handle(queries.requests[p]) for p, server in enumerate(servers)]
    assert np.array_equal(client.reconstruct(queries, *replies), table[indices])
    for server in servers:
        assert server.backend._workspace.nbytes <= 1100 << 10

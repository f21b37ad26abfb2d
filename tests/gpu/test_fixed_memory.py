"""Fixed memory, asserted: a reducing walk never holds the share matrix.

``tracemalloc`` sees every numpy allocation, so the peak of one
``eval_batch(..., reduce=r)`` on a fresh workspace is the walk's whole
footprint: the group's and the tile's ping-pong frontiers, staging,
cipher output.  A tile's leaves are converted in place, in its own seed
words, so there is no separate leaf window.  The tile is 512 leaves
whatever the table, so the footprint must not grow with the table.
What a walk leaves behind is its thread's one workspace, however many
servers, shards and replicas the thread served.
"""

import threading
import tracemalloc

import numpy as np

from repro.crypto import get_prf
from repro.dpf import gen, pack_keys
from repro.gpu import ExpansionWorkspace, KeyArena, get_strategy, thread_workspace
from repro.pir import PirClient, PirQuery, PirServer
from repro.serve import ShardedPirServer

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


def _served_batch(seed=40):
    """One B=64, L=2^10 aes128 query batch, its table and its client."""
    rows, batch = 1 << 10, 64
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 1 << 64, size=rows, dtype=np.uint64)
    client = PirClient(rows, "aes128", rng=np.random.default_rng(seed + 1))
    indices = [int(i) for i in rng.integers(rows, size=batch)]
    (queries,) = client.query_many(indices, batch)
    return table, client, queries, indices


def _walks_on_a_new_thread(monkeypatch, serve):
    """Run ``serve()`` on a new thread, whose workspace starts empty.

    Returns what it returned, the thread's workspace and every
    workspace a walk expanded in meanwhile.
    """
    walked = []
    frontier = ExpansionWorkspace.frontier

    def recorded(self, *args):
        walked.append(self)
        return frontier(self, *args)

    monkeypatch.setattr(ExpansionWorkspace, "frontier", recorded)
    out = {}

    def run():
        try:
            out["served"] = serve()
        finally:
            out["workspace"] = thread_workspace()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert "served" in out, "serve() raised on its thread"
    return out["served"], out["workspace"], {id(w): w for w in walked}


def test_a_served_batch_keeps_no_leaf_window(monkeypatch):
    """What one B=64, L=2^10 aes128 dispatch leaves in its workspace.

    1,124,928 B: the group and tile frontiers (26,112 + 835,584), the
    shared correction scratch (262,144) and the 1,088-byte copy of the
    roots.  It read 1,648,128 B while the walk filled a separate
    ``(B, T, 2)`` leaf window (524,288 B).  Both parties walk in the
    thread's one workspace.
    """
    table, client, queries, indices = _served_batch()
    servers = [PirServer(table, prf_name="aes128") for _ in range(2)]
    replies, workspace, walked = _walks_on_a_new_thread(
        monkeypatch,
        lambda: [server.handle(queries.requests[p]) for p, server in enumerate(servers)],
    )
    assert np.array_equal(client.reconstruct(queries, *replies), table[indices])
    assert list(walked.values()) == [workspace]
    assert workspace.nbytes <= 1100 << 10


def test_a_thread_serving_many_servers_holds_one_workspace(monkeypatch):
    """Two parties, then two parties on 4 shards x 2 replicas, on one
    thread: one workspace of at most 1,100 KiB.  With a workspace per
    backend they held 2 x 1,124,928 B, plus 4,529,152 B for the shards."""
    table, client, queries, indices = _served_batch(seed=42)
    plain = [PirServer(table, prf_name="aes128") for _ in range(2)]
    sharded = [ShardedPirServer(table, shards=4, replicas=2) for _ in range(2)]

    def serve():
        # Two rounds, so that both replicas of every shard answer.
        return [
            [server.handle(queries.requests[p]) for p, server in enumerate(servers)]
            for servers in (plain, sharded, sharded)
        ]

    rounds, workspace, walked = _walks_on_a_new_thread(monkeypatch, serve)
    for replies in rounds:
        assert np.array_equal(client.reconstruct(queries, *replies), table[indices])
    assert list(walked.values()) == [workspace]
    assert workspace.nbytes <= 1100 << 10

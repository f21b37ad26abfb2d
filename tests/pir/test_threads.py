"""The two parties may answer on several threads of one process.

The cipher scratch (``crypto/aes.py``, ``crypto/siphash.py``) and the
walk workspace (:func:`repro.gpu.thread_workspace`) are thread-local
because any caller may expand on two threads at once.  Four threads —
two per party, more than a small host has cores — answer every query,
all released together, and every reply must equal the sequential one
(which reconstructs to the table rows): first with a
:class:`~repro.pir.PirServer` of its own on each thread, then with one
server, plain or sharded, that all four share.
"""

import sys
import threading

import numpy as np
import pytest

from repro.crypto import available_prfs
from repro.pir import PirClient, PirServer
from repro.serve import ShardedPirServer

DOMAIN = 1024
ROUNDS = 4


@pytest.mark.parametrize("prf_name", sorted(available_prfs()))
def test_parties_on_four_threads_answer_bit_exact(prf_name):
    rng = np.random.default_rng(21)
    table = rng.integers(0, 1 << 64, size=DOMAIN, dtype=np.uint64)
    client = PirClient(DOMAIN, prf_name, rng=np.random.default_rng(22))
    # 1-key and 16-key requests: small and batched cipher calls.
    batches = [client.query(rng.integers(0, DOMAIN, size=n)) for n in (1, 16)]
    # The sequential answers, then the table rows they reconstruct to.
    expected = [
        [PirServer(table, prf_name=prf_name).handle(b.requests[p]) for b in batches]
        for p in (0, 1)
    ]
    for i, batch in enumerate(batches):
        got = client.reconstruct(batch, expected[0][i], expected[1][i])
        assert np.array_equal(got, table[list(batch.indices)])

    failures = []
    parties = (0, 1, 0, 1)
    barrier = threading.Barrier(len(parties))

    def party(p):
        server = PirServer(table, prf_name=prf_name)
        barrier.wait()  # every thread expands at the same time
        for _ in range(ROUNDS):
            for i, batch in enumerate(batches):
                if server.handle(batch.requests[p]) != expected[p][i]:
                    failures.append((p, i))

    threads = [threading.Thread(target=party, args=(p,)) for p in parties]
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
    assert not failures, f"(party, batch) {failures} answered differently"


SHARED = {
    "plain": lambda table, prf_name: PirServer(table, prf_name=prf_name),
    "two_shards": lambda table, prf_name: ShardedPirServer(
        table, shards=2, prf_name=prf_name
    ),
}


@pytest.mark.parametrize("kind", sorted(SHARED))
@pytest.mark.parametrize("prf_name", ["aes128", "siphash"])
def test_one_server_shared_by_four_threads_answers_bit_exact(prf_name, kind):
    rng = np.random.default_rng(23)
    table = rng.integers(0, 1 << 64, size=DOMAIN, dtype=np.uint64)
    client = PirClient(DOMAIN, prf_name, rng=np.random.default_rng(24))
    batches = [client.query(rng.integers(0, DOMAIN, size=n)) for n in (1, 16)]
    server = SHARED[kind](table, prf_name)
    expected = [[server.handle(b.requests[p]) for b in batches] for p in (0, 1)]
    for i, batch in enumerate(batches):
        got = client.reconstruct(batch, expected[0][i], expected[1][i])
        assert np.array_equal(got, table[list(batch.indices)])

    failures = []
    parties = (0, 1, 0, 1)
    barrier = threading.Barrier(len(parties))

    def party(p):
        barrier.wait()  # every thread walks at the same time
        for _ in range(ROUNDS):
            for i, batch in enumerate(batches):
                if server.handle(batch.requests[p]) != expected[p][i]:
                    failures.append((p, i))

    threads = [threading.Thread(target=party, args=(p,)) for p in parties]
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
    replies = len(parties) * ROUNDS * len(batches)
    assert not failures, f"{len(failures)} of {replies} replies wrong: {failures}"

"""Nothing that runs asks the model.

Claims: with the V100 scheduler made to raise, every served path still
answers, bit-exact against the reference ``eval_full`` dotted with the
table: a framed ``PirServer.handle``, one ``AsyncPirServer`` flush, and
a two-shard ``ShardedPirServer`` round.  Choosing a design is the
modeled device's business; the walk that answers is the same for every
design, so no dispatch asks for one.
"""

import asyncio

import numpy as np
import pytest

from repro.crypto import get_prf
from repro.dpf import eval_full
from repro.gpu import KeyArena, Scheduler
from repro.pir import PirClient, PirQuery, PirReply, PirServer
from repro.serve import AsyncPirServer, ShardedPirServer

PRF = "siphash"
ROWS = 61
INDICES = [0, 17, 42, ROWS - 1]


@pytest.fixture(autouse=True)
def no_planning(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the executed path asked the V100 model for a plan")

    monkeypatch.setattr(Scheduler, "select", refuse)


def _setup(seed=3):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 1 << 64, size=ROWS, dtype=np.uint64)
    client = PirClient(ROWS, PRF, rng=np.random.default_rng(seed + 1))
    return table, client, client.query_many(INDICES)


def _reference(table, frame):
    """The reference walk's answer shares for one query frame."""
    keys = KeyArena.from_wire(PirQuery.from_bytes(frame).key_bytes).to_keys()
    return np.stack([eval_full(key, get_prf(PRF)) for key in keys]) @ table


def _check(table, client, batches, replies):
    for batch, pair in zip(batches, replies):
        for frame, reply in zip(batch.requests, pair):
            np.testing.assert_array_equal(
                PirReply.from_bytes(reply).answers, _reference(table, frame)
            )
        values = client.reconstruct(batch, *pair)
        assert values.tolist() == [table[i] for i in batch.indices]


def test_handle_never_plans():
    table, client, batches = _setup()
    servers = [PirServer(table, prf_name=PRF) for _ in range(2)]
    replies = [
        [server.handle(frame) for server, frame in zip(servers, batch.requests)]
        for batch in batches
    ]
    _check(table, client, batches, replies)


def test_an_async_flush_never_plans():
    table, client, batches = _setup()

    async def serve(party):
        loop = AsyncPirServer(PirServer(table, prf_name=PRF), max_batch=len(INDICES))
        async with loop:
            replies = await asyncio.gather(
                *[loop.submit(batch.requests[party]) for batch in batches]
            )
        assert (loop.stats.batches, loop.stats.largest_batch) == (1, len(INDICES))
        return replies

    parties = [asyncio.run(serve(party)) for party in range(2)]
    _check(table, client, batches, list(zip(*parties)))


def test_a_two_shard_round_never_plans():
    table, client, batches = _setup()
    servers = [ShardedPirServer(table, shards=2, prf_name=PRF) for _ in range(2)]
    replies = [
        [server.handle(frame) for server, frame in zip(servers, batch.requests)]
        for batch in batches
    ]
    _check(table, client, batches, replies)

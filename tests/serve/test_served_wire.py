"""What a served query costs on the wire, and which bytes are refused.

``wire_bytes_per_query`` — the paper's Table-4 "Bytes" — is both
request frames plus both reply frames of one query.  It is exact: a
``DPF3`` key record over 2^10 rows is 189 bytes and a v3 frame header
26, so one aes128 query served through two :class:`AsyncPirServer`
loops moves 2 * (26 + 189) + 2 * (26 + 8) = 498 bytes.

The second half is a regression: the bytes the ``DPF2`` / v2 parsers
answered with a wrong share (a root control bit of 7) are refused at
ingest now, by :meth:`PirServer.handle` and :meth:`AsyncPirServer.submit`
alike, and a loop that refused them still serves the next query.
"""

import asyncio
import struct

import numpy as np
import pytest

from repro.pir import FRAME_HEADER_BYTES, PirClient, PirQuery, PirReply, PirServer
from repro.serve import AsyncPirServer, SloConfig

from tests.dpf.test_keys_wire import _dpf2_record

DOMAIN = 1 << 10


def _stack(seed=3):
    table = np.random.default_rng(seed).integers(0, 1 << 64, size=DOMAIN, dtype=np.uint64)
    client = PirClient(DOMAIN, "aes128", rng=np.random.default_rng(seed + 1))
    servers = [PirServer(table, prf_name="aes128") for _ in range(2)]
    return table, client, servers


def _serve(servers, frames_per_party):
    """Submit each party's frames through its own loop; replies by party."""

    async def run():
        loops = [
            AsyncPirServer(server, slo=SloConfig(max_batch=8, max_wait_s=1e-3))
            for server in servers
        ]
        async with loops[0], loops[1]:
            return [
                await asyncio.gather(*[loop.submit(f) for f in frames])
                for loop, frames in zip(loops, frames_per_party)
            ]

    return asyncio.run(run())


class TestExactServedBytes:
    @pytest.mark.parametrize("keys, expected", [(1, 498), (4, 1680)])
    def test_served_query_moves_exact_bytes(self, keys, expected):
        """Request frames plus reply frames of both parties, counted."""
        table, client, servers = _stack()
        indices = list(range(5, 5 + 301 * keys, 301))
        batch = client.query(indices)
        (reply_0,), (reply_1,) = _serve(servers, [[batch.requests[0]], [batch.requests[1]]])
        assert np.array_equal(client.reconstruct(batch, reply_0, reply_1), table[indices])
        moved = sum(map(len, batch.requests)) + len(reply_0) + len(reply_1)
        assert moved == expected == 2 * (26 + 189 * keys) + 2 * (26 + 8 * keys)
        assert FRAME_HEADER_BYTES == 26


def _v2_frame(record):
    """A one-key query in the v2 frame: a 30-byte header, u64 length."""
    return struct.pack("<4sBBQIIQ", b"PIR1", 2, 0, 0, 0, 1, len(record)) + record


def _root_t_seven(key):
    """``key``'s record bytes with the root control bit set to 7."""
    record = bytearray(_dpf2_record(key))
    root_t_at = 27 + len(key.prf_name)  # header, then the PRF name
    assert record[root_t_at] == key.root_t
    record[root_t_at] = 7
    return bytes(record)


class TestRootTSevenIsRefused:
    """The parent parsers took the root control bit from the record and
    never checked it against the party: a record with ``root_t = 7``
    was evaluated and answered with a wrong share."""

    @staticmethod
    def _hostile_frames(client):
        (key_0,), _ = client.generate_keys([17])
        record = _root_t_seven(key_0)
        dpf3 = bytearray(client.query([17]).requests[0])
        dpf3[FRAME_HEADER_BYTES + 4] = 7  # party byte: the root control bit now
        return [
            # The frame the parent parsers answered wrongly.
            (_v2_frame(record), "wire version 2"),
            # Its record in a current frame: refused at ingest.
            (PirQuery(request_id=0, count=1, key_bytes=record).to_bytes(), "version DPF2"),
            # The same attack on a current record.
            (bytes(dpf3), "party must be 0 or 1, got 7"),
        ]

    def test_handle_refuses_at_ingest(self):
        _, client, servers = _stack()
        for frame, match in self._hostile_frames(client):
            with pytest.raises(ValueError, match=match):
                servers[0].handle(frame)

    def test_submit_refuses_and_the_loop_serves_on(self):
        table, client, servers = _stack()
        hostile = self._hostile_frames(client)
        good = client.query([99])

        async def run():
            loop = AsyncPirServer(servers[0], slo=SloConfig(max_batch=4, max_wait_s=1e-3))
            async with loop:
                for frame, match in hostile:
                    with pytest.raises(ValueError, match=match):
                        await loop.submit(frame)
                reply = await loop.submit(good.requests[0])
            return loop, reply

        loop, reply_0 = asyncio.run(run())
        assert loop.stats.answered == 1
        reply_1 = servers[1].handle(good.requests[1])
        assert client.reconstruct(good, reply_0, reply_1)[0] == table[99]
        assert PirReply.from_bytes(reply_0).request_id == good.request_id

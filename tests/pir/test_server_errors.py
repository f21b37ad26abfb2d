"""`PirServer.handle` error paths, each pinned to its raised type.

The serving loop admits queries through exactly this validation, so
every rejection class — malformed frame version, oversized batch,
empty batches in either direction — must fail loudly with `ValueError`
before any O(B*L) evaluation starts.
"""

import numpy as np
import pytest

from repro.pir import PirClient, PirQuery, PirReply, PirServer, WIRE_VERSION


def _fixture(domain=16, prf="siphash", max_batch=None):
    table = np.arange(domain, dtype=np.uint64)
    server = PirServer(table, prf_name=prf, max_batch=max_batch)
    client = PirClient(domain, prf, rng=np.random.default_rng(1))
    return server, client


class TestMalformedFrameVersion:
    def test_future_version_rejected_with_value_error(self):
        server, client = _fixture()
        frame = bytearray(client.query([3]).requests[0])
        frame[4] = WIRE_VERSION + 1  # version byte follows the magic
        with pytest.raises(ValueError, match="unsupported PIR wire version"):
            server.handle(bytes(frame))

    def test_zero_version_rejected_with_value_error(self):
        server, client = _fixture()
        frame = bytearray(client.query([3]).requests[0])
        frame[4] = 0
        with pytest.raises(ValueError, match="unsupported PIR wire version"):
            server.handle(bytes(frame))


class TestOversizedBatch:
    def test_batch_over_max_batch_rejected_with_value_error(self):
        server, client = _fixture(max_batch=2)
        oversized = client.query([1, 2, 3]).requests[0]
        with pytest.raises(ValueError, match="exceeds this server's max_batch"):
            server.handle(oversized)

    def test_batch_at_max_batch_served(self):
        server, client = _fixture(max_batch=2)
        batch = client.query([1, 2])
        reply = PirReply.from_bytes(server.handle(batch.requests[0]))
        assert reply.answers.shape == (2,)

    def test_oversized_batch_rejected_before_evaluation(self):
        from repro.exec import ExecutionBackend

        class MustNotRun(ExecutionBackend):
            name = "must_not_run"

            def plan(self, request):  # pragma: no cover - never reached
                raise AssertionError("planned an oversized batch")

            def run(self, request):
                raise AssertionError("evaluated an oversized batch")

        table = np.zeros(16, dtype=np.uint64)
        server = PirServer(table, backend=MustNotRun(), prf_name="siphash", max_batch=1)
        client = PirClient(16, "siphash", rng=np.random.default_rng(2))
        with pytest.raises(ValueError, match="max_batch"):
            server.handle(client.query([1, 2]).requests[0])

    def test_nonsense_max_batch_rejected_at_construction(self):
        with pytest.raises(ValueError, match="max_batch"):
            PirServer(np.zeros(4, dtype=np.uint64), max_batch=0)


class TestEmptyBatches:
    def test_empty_reply_rejected_on_encode_with_value_error(self):
        reply = PirReply(request_id=1, answers=np.zeros(0, dtype=np.uint64))
        with pytest.raises(ValueError, match="non-empty"):
            reply.to_bytes()

    def test_zero_count_reply_frame_rejected_with_value_error(self):
        data = bytearray(
            PirReply(request_id=1, answers=np.ones(1, dtype=np.uint64)).to_bytes()
        )
        data[18:22] = (0).to_bytes(4, "little")  # count field
        with pytest.raises(ValueError, match="at least one record"):
            PirReply.from_bytes(bytes(data))

    def test_zero_count_query_frame_rejected_by_handle(self):
        server, client = _fixture()
        data = bytearray(client.query([3]).requests[0])
        data[18:22] = (0).to_bytes(4, "little")
        with pytest.raises(ValueError, match="at least one record"):
            server.handle(bytes(data))

    def test_empty_key_payload_rejected_by_handle(self):
        server, _ = _fixture()
        frame = PirQuery(request_id=1, count=1, key_bytes=b"x").to_bytes()
        stripped = bytearray(frame[:-1])
        stripped[22:26] = (0).to_bytes(4, "little")  # declared payload length
        with pytest.raises(ValueError, match="no key bytes"):
            server.handle(bytes(stripped))

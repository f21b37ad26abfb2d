"""PIR frame format: round trips and malformed-frame rejection.

Every malformed frame — wrong magic, unknown version, wrong kind,
truncation, declared-length mismatch, trailing garbage, short payload —
must fail with a ``ValueError`` at the frame boundary, mirroring the
strictness of the DPF key wire layer underneath.
"""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pir import (
    FRAME_HEADER_BYTES,
    KIND_QUERY,
    KIND_REPLY,
    PirQuery,
    PirReply,
    WIRE_VERSION,
)

from tests.strategies import STANDARD_SETTINGS


def _query(request_id=7, count=3, payload=b"\x01\x02\x03\x04"):
    return PirQuery(request_id=request_id, count=count, key_bytes=payload)


def _reply(request_id=7, answers=(1, 2, (1 << 64) - 1)):
    return PirReply(request_id=request_id, answers=np.array(answers, dtype=np.uint64))


class TestRoundTrip:
    def test_query_round_trips(self):
        query = _query()
        parsed = PirQuery.from_bytes(query.to_bytes())
        assert parsed == query

    def test_reply_round_trips(self):
        reply = _reply()
        parsed = PirReply.from_bytes(reply.to_bytes())
        assert parsed.request_id == reply.request_id
        assert np.array_equal(parsed.answers, reply.answers)
        assert parsed.answers.dtype == np.uint64

    @given(
        request_id=st.integers(0, (1 << 64) - 1),
        payload=st.binary(min_size=1, max_size=200),
        count=st.integers(1, (1 << 32) - 1),
        epoch=st.integers(0, (1 << 32) - 1),
    )
    @STANDARD_SETTINGS
    def test_fuzz_query_round_trips(self, request_id, payload, count, epoch):
        query = PirQuery(
            request_id=request_id, count=count, key_bytes=payload, epoch=epoch
        )
        assert PirQuery.from_bytes(query.to_bytes()) == query

    @given(
        request_id=st.integers(0, (1 << 64) - 1),
        answers=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=20),
        epoch=st.integers(0, (1 << 32) - 1),
    )
    @STANDARD_SETTINGS
    def test_fuzz_reply_round_trips(self, request_id, answers, epoch):
        reply = PirReply(
            request_id=request_id,
            answers=np.array(answers, dtype=np.uint64),
            epoch=epoch,
        )
        parsed = PirReply.from_bytes(reply.to_bytes())
        assert parsed.request_id == request_id
        assert parsed.epoch == epoch
        assert np.array_equal(parsed.answers, np.array(answers, dtype=np.uint64))

    def test_epoch_round_trips_and_defaults_to_zero(self):
        assert PirQuery.from_bytes(_query().to_bytes()).epoch == 0
        query = PirQuery(request_id=1, count=1, key_bytes=b"x", epoch=41)
        assert PirQuery.from_bytes(query.to_bytes()).epoch == 41
        reply = PirReply(
            request_id=1, answers=np.array([9], dtype=np.uint64), epoch=41
        )
        assert PirReply.from_bytes(reply.to_bytes()).epoch == 41

    def test_epoch_out_of_u32_range_rejected_on_encode(self):
        for epoch in (-1, 1 << 32):
            with pytest.raises(ValueError, match="epoch"):
                PirQuery(
                    request_id=1, count=1, key_bytes=b"x", epoch=epoch
                ).to_bytes()


class TestMalformedFrames:
    def test_every_truncation_raises_value_error(self):
        data = _query().to_bytes()
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                PirQuery.from_bytes(data[:cut])

    def test_trailing_garbage_rejected(self):
        for frame, parser in (
            (_query().to_bytes(), PirQuery.from_bytes),
            (_reply().to_bytes(), PirReply.from_bytes),
        ):
            with pytest.raises(ValueError, match="length mismatch"):
                parser(frame + b"\x00")

    @given(garbage=st.binary(min_size=1, max_size=64))
    @STANDARD_SETTINGS
    def test_fuzz_trailing_garbage_rejected(self, garbage):
        with pytest.raises(ValueError):
            PirQuery.from_bytes(_query().to_bytes() + garbage)

    def test_bad_magic_rejected(self):
        data = bytearray(_query().to_bytes())
        data[:4] = b"NOPE"
        with pytest.raises(ValueError, match="magic"):
            PirQuery.from_bytes(bytes(data))

    def test_unknown_version_rejected(self):
        data = bytearray(_query().to_bytes())
        data[4] = WIRE_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            PirQuery.from_bytes(bytes(data))

    def test_kind_confusion_rejected_both_ways(self):
        with pytest.raises(ValueError, match="expected a PIR reply"):
            PirReply.from_bytes(_query().to_bytes())
        with pytest.raises(ValueError, match="expected a PIR query"):
            PirQuery.from_bytes(_reply().to_bytes())
        assert KIND_QUERY != KIND_REPLY

    def test_reply_payload_must_match_count(self):
        data = bytearray(_reply(answers=(1, 2)).to_bytes())
        # Bump the declared count without growing the payload.
        data[18:22] = (3).to_bytes(4, "little")
        with pytest.raises(ValueError, match="declares 3 answers"):
            PirReply.from_bytes(bytes(data))

    def test_empty_query_payload_rejected(self):
        frame = PirQuery(request_id=1, count=1, key_bytes=b"x").to_bytes()
        # Strip the single payload byte and fix the declared length.
        header = bytearray(frame[:-1])
        header[22:26] = (0).to_bytes(4, "little")
        with pytest.raises(ValueError, match="no key bytes"):
            PirQuery.from_bytes(bytes(header))

    def test_zero_count_rejected_on_encode_and_decode(self):
        with pytest.raises(ValueError, match="count"):
            _query(count=0).to_bytes()
        data = bytearray(_query(count=1).to_bytes())
        data[18:22] = (0).to_bytes(4, "little")
        with pytest.raises(ValueError, match="at least one"):
            PirQuery.from_bytes(bytes(data))

    def test_header_size_is_stable(self):
        """The wire constant other layers size buffers with."""
        assert FRAME_HEADER_BYTES == 26
        assert len(_query(payload=b"z").to_bytes()) == FRAME_HEADER_BYTES + 1

    def test_payload_of_4_gib_refused_on_encode(self):
        class Huge(bytes):
            def __len__(self):
                return 1 << 32

        with pytest.raises(ValueError, match="u32 length"):
            _query(payload=Huge(b"x")).to_bytes()

    @pytest.mark.parametrize(
        "frame, parse",
        [
            (lambda: _query().to_bytes(), PirQuery.from_bytes),
            (lambda: _reply().to_bytes(), PirReply.from_bytes),
        ],
    )
    def test_v2_frames_refused_by_version(self, frame, parse):
        """A version-2 frame (u64 length, a 30-byte header) is refused by
        its version number, in both directions, not mis-sized."""
        v3 = frame()
        request_id, epoch, count = struct.unpack_from("<QII", v3, 6)
        payload = v3[FRAME_HEADER_BYTES:]
        v2 = struct.pack(
            "<4sBBQIIQ", b"PIR1", 2, v3[5], request_id, epoch, count, len(payload)
        ) + payload
        with pytest.raises(ValueError, match="wire version 2 .*speaks 3"):
            parse(v2)

    def test_v1_frames_rejected(self):
        """An epoch-less v1 frame is ambiguous once table versions
        coexist; the v2 parser must refuse it rather than guess."""
        data = bytearray(_query().to_bytes())
        data[4] = 1
        with pytest.raises(ValueError, match="version"):
            PirQuery.from_bytes(bytes(data))

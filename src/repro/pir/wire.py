"""Versioned request/response framing for the two-server PIR protocol.

One frame format carries both directions (paper Figure 2):

* A **query** frame carries a batch of DPF keys for one server —
  :func:`repro.dpf.keys.pack_keys` output embedded verbatim, so the
  server can hand the payload straight to
  :meth:`repro.gpu.arena.KeyArena.from_wire` without re-framing.
* A **reply** frame carries the server's answer shares, one uint64 per
  query, little-endian.

Layout of a version-3 frame (little-endian)::

    magic    4s   b"PIR1"
    version  u8   WIRE_VERSION (3)
    kind     u8   0 = query, 1 = reply
    req_id   u64  client-chosen correlation id, echoed in the reply
    epoch    u32  table epoch the query targets, echoed in the reply
    count    u32  key records (query) / answer shares (reply)
    length   u32  payload bytes
    payload  ...  pack_keys output / packed uint64 shares

The ``epoch`` field (since version 2) pins a query to the one published
table version it was generated against, so a server mid-update keeps
answering old-epoch queries from the retained epoch instead of silently
mixing tables.  Version 3 shrank ``length`` from u64 to u32, whose top
half was always zero: a frame is one request's keys or answers, and the
encoder refuses a payload of 4 GiB or more.  Frames of older versions
are refused by name (a version-1 frame has no epoch, a version-2 frame
a longer header); there is no second reader.

A frame must be *exactly* header + ``length`` bytes — trailing garbage
is rejected at the frame boundary, mirroring the strictness of
:func:`repro.dpf.keys.split_wire` one layer down.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"PIR1"
WIRE_VERSION = 3
_RETIRED_VERSIONS = {1: "no epoch field", 2: "u64 payload length"}

KIND_QUERY = 0
KIND_REPLY = 1

_FRAME_FMT = "<4sBBQIII"
FRAME_HEADER_BYTES = struct.calcsize(_FRAME_FMT)

_U32_MAX = (1 << 32) - 1
_U64_MAX = (1 << 64) - 1


def _pack_header(
    kind: int, request_id: int, epoch: int, count: int, payload_len: int
) -> bytes:
    if not 0 <= request_id <= _U64_MAX:
        raise ValueError(f"request_id must fit in a u64, got {request_id}")
    if not 0 <= epoch <= _U32_MAX:
        raise ValueError(f"epoch must fit in a u32, got {epoch}")
    if not 0 < count <= _U32_MAX:
        raise ValueError(f"count must be a positive u32, got {count}")
    if payload_len > _U32_MAX:
        raise ValueError(f"payload of {payload_len} bytes does not fit a u32 length")
    return struct.pack(
        _FRAME_FMT, MAGIC, WIRE_VERSION, kind, request_id, epoch, count, payload_len
    )


def _unpack_header(data: bytes, expect_kind: int) -> tuple[int, int, int, bytes]:
    """Validate a frame end to end; return (request_id, epoch, count, payload)."""
    if len(data) < FRAME_HEADER_BYTES:
        raise ValueError(
            f"PIR frame truncated: need at least {FRAME_HEADER_BYTES} header "
            f"bytes, got {len(data)}"
        )
    magic, version, kind, request_id, epoch, count, length = struct.unpack_from(
        _FRAME_FMT, data
    )
    if magic != MAGIC:
        raise ValueError(f"bad PIR frame magic {magic!r}")
    if version != WIRE_VERSION:
        retired = _RETIRED_VERSIONS.get(version)
        detail = f" ({retired})" if retired else ""
        raise ValueError(
            f"unsupported PIR wire version {version}{detail}: this build "
            f"speaks {WIRE_VERSION}"
        )
    if kind != expect_kind:
        want = "query" if expect_kind == KIND_QUERY else "reply"
        raise ValueError(f"expected a PIR {want} frame, got kind {kind}")
    if count <= 0:
        raise ValueError("PIR frame must carry at least one record")
    if len(data) != FRAME_HEADER_BYTES + length:
        raise ValueError(
            f"PIR frame length mismatch: header declares {length} payload "
            f"bytes, frame carries {len(data) - FRAME_HEADER_BYTES}"
        )
    return request_id, epoch, count, data[FRAME_HEADER_BYTES:]


@dataclass(frozen=True)
class PirQuery:
    """A client->server key batch for one request.

    Attributes:
        request_id: Correlation id the server echoes in its reply.
        count: Number of key records the payload claims to carry; the
            server cross-checks it against the ingested arena's batch.
        key_bytes: :func:`repro.dpf.keys.pack_keys` output, handed
            straight to :meth:`KeyArena.from_wire` on the server.
        epoch: Table epoch the query was generated against; the server
            answers from exactly that epoch's table (a retired epoch is
            a typed, client-retryable error) and echoes it in the
            reply.  0 is the initial table.
    """

    request_id: int
    count: int
    key_bytes: bytes
    epoch: int = 0

    def to_bytes(self) -> bytes:
        return _pack_header(
            KIND_QUERY, self.request_id, self.epoch, self.count, len(self.key_bytes)
        ) + self.key_bytes

    @classmethod
    def from_bytes(cls, data: bytes) -> "PirQuery":
        """Parse and validate one query frame.

        Raises:
            ValueError: On bad magic/version/kind, a length mismatch
                (including trailing garbage), or an empty batch.
        """
        request_id, epoch, count, payload = _unpack_header(data, KIND_QUERY)
        if not payload:
            raise ValueError("PIR query carries no key bytes")
        return cls(request_id=request_id, count=count, key_bytes=payload, epoch=epoch)


@dataclass(frozen=True)
class PirReply:
    """A server->client batch of answer shares.

    Attributes:
        request_id: Echo of the query's correlation id.
        answers: ``(B,)`` uint64 answer shares, one per query key, in
            key order.
        epoch: Echo of the query's table epoch — the table version the
            shares were computed against.
    """

    request_id: int
    answers: np.ndarray
    epoch: int = 0

    def to_bytes(self) -> bytes:
        answers = np.ascontiguousarray(self.answers, dtype="<u8")
        if answers.ndim != 1 or answers.size == 0:
            raise ValueError("reply answers must be a non-empty 1-D array")
        payload = answers.tobytes()
        return _pack_header(
            KIND_REPLY, self.request_id, self.epoch, answers.size, len(payload)
        ) + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "PirReply":
        """Parse and validate one reply frame.

        Raises:
            ValueError: On bad magic/version/kind, a length mismatch
                (including trailing garbage), or a payload that is not
                exactly ``count`` uint64 shares.
        """
        request_id, epoch, count, payload = _unpack_header(data, KIND_REPLY)
        if len(payload) != 8 * count:
            raise ValueError(
                f"PIR reply declares {count} answers but carries "
                f"{len(payload)} payload bytes (expected {8 * count})"
            )
        answers = np.frombuffer(payload, dtype="<u8").astype(np.uint64, copy=False)
        return cls(request_id=request_id, answers=answers, epoch=epoch)

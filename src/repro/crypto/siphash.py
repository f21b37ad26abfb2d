"""SipHash-2-4 (Aumasson--Bernstein), vectorized over batches of keys.

SipHash is the fastest PRF in the paper's Table 5 (7,447 QPS vs AES's
965) but, as Section 3.2.6 cautions, it targets 64-bit MAC security
rather than full 128-bit PRF security — the metadata marks it
non-standardized for this use so callers can make the trade-off
explicitly.

The DPF uses the seed as the SipHash key and the tweak as an 8-byte
message; two invocations with domain-separated messages produce the
128-bit output block.

The PRG path (:class:`SipHashPrf`) runs its eight rounds **in place**
over **fixed chunks** of :data:`_CHUNK` seeds: the four state words and
one rotate temporary of every lane live in a thread-local
:class:`_Scratch`, every numpy call writes through ``out=``, and the
last XOR lands straight in the freshly allocated result.  A call
therefore allocates its result and nothing else, and ns/block is flat
from a few thousand seeds to millions — the DPF expansion calls the PRG
once per tree level with geometrically growing batches, so both ends of
that range are on the serving path (as for :mod:`repro.crypto.aes`,
whose ``_Scratch`` this mirrors, thread-local for the same reason:
any caller may expand on two threads at once).
The allocating, functional :func:`_sipround` is kept for the scalar
:func:`siphash24`, which the tests hold the in-place path against.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.crypto import prf as prf_mod

_V0 = np.uint64(0x736F6D6570736575)
_V1 = np.uint64(0x646F72616E646F6D)
_V2 = np.uint64(0x6C7967656E657261)
_V3 = np.uint64(0x7465646279746573)


def _rotl64(x: np.ndarray, n: int) -> np.ndarray:
    return (x << np.uint64(n)) | (x >> np.uint64(64 - n))


def _sipround(v0: np.ndarray, v1: np.ndarray, v2: np.ndarray, v3: np.ndarray):
    v0 = v0 + v1
    v1 = _rotl64(v1, 13)
    v1 ^= v0
    v0 = _rotl64(v0, 32)
    v2 = v2 + v3
    v3 = _rotl64(v3, 16)
    v3 ^= v2
    v0 = v0 + v3
    v3 = _rotl64(v3, 21)
    v3 ^= v0
    v2 = v2 + v1
    v1 = _rotl64(v1, 17)
    v1 ^= v2
    v2 = _rotl64(v2, 32)
    return v0, v1, v2, v3


def siphash24(key: bytes, message: bytes) -> int:
    """Scalar SipHash-2-4 for arbitrary-length messages (test vectors)."""
    if len(key) != 16:
        raise ValueError("SipHash key must be 16 bytes")
    k0 = np.frombuffer(key[:8], dtype="<u8")[0]
    k1 = np.frombuffer(key[8:], dtype="<u8")[0]
    v0 = k0 ^ _V0
    v1 = k1 ^ _V1
    v2 = k0 ^ _V2
    v3 = k1 ^ _V3
    v = [np.array([x]) for x in (v0, v1, v2, v3)]

    length = len(message)
    padded = bytearray(message)
    while len(padded) % 8 != 7:
        padded.append(0)
    padded.append(length & 0xFF)
    words = np.frombuffer(bytes(padded), dtype="<u8")
    for m in words:
        v[3] = v[3] ^ m
        for _ in range(2):
            v = list(_sipround(*v))
        v[0] = v[0] ^ m
    v[2] = v[2] ^ np.uint64(0xFF)
    for _ in range(4):
        v = list(_sipround(*v))
    return int(v[0][0] ^ v[1][0] ^ v[2][0] ^ v[3][0])


_FINAL_BLOCK = np.uint64(8 << 56)
"""The padded last block of an 8-byte message: its length in the top byte."""

_FF = np.uint64(0xFF)

_L13, _R13 = np.uint64(13), np.uint64(64 - 13)
_L16, _R16 = np.uint64(16), np.uint64(64 - 16)
_L17, _R17 = np.uint64(17), np.uint64(64 - 17)
_L21, _R21 = np.uint64(21), np.uint64(64 - 21)
_L32 = _R32 = np.uint64(32)
"""Shift pairs of the round's five rotations: ``rotl(x, n)`` is
``x << Ln | x >> Rn``."""

_PAIR_MESSAGES = np.arange(4, dtype=np.uint64).reshape(4, 1)
"""Message words of the fused PRG's lanes: ``2 * tweak + word``."""

_CHUNK = 4096
"""Seeds hashed per pass over the eight rounds.  Large enough that the
224 numpy calls of a pass (26 a round) are amortised, small enough
that the five scratch rows of a four-lane chunk (640 KB) stay
cache-resident however many seeds one call brings."""


class _Scratch(threading.local):
    """One chunk's state words and rotate temporary, one set per thread.

    Flat and fixed-size: a chunk of ``c`` seeds in ``m`` lanes reshapes
    the leading ``m * c`` elements, which keeps every buffer contiguous.
    Allocated on a thread's first hash, so a thread (or a process) that
    never runs SipHash pays nothing.
    """

    buffers: tuple[np.ndarray, ...] | None = None

    def get(self) -> tuple[np.ndarray, ...]:
        if self.buffers is None:
            self.buffers = tuple(
                np.empty(len(_PAIR_MESSAGES) * _CHUNK, dtype=np.uint64) for _ in range(5)
            )
        return self.buffers


_SCRATCH = _Scratch()


def _sipround_inplace(v0, v1, v2, v3, tmp) -> None:
    """:func:`_sipround` with no temporaries beyond ``tmp``.

    Each rotation is spelled out as its three ufunc calls, ``out``
    passed positionally: at small chunks the Python around a call costs
    more than the call.
    """
    add, xor, or_ = np.add, np.bitwise_xor, np.bitwise_or
    shl, shr = np.left_shift, np.right_shift
    add(v0, v1, v0)
    shr(v1, _R13, tmp)  # v1 = rotl(v1, 13)
    shl(v1, _L13, v1)
    or_(v1, tmp, v1)
    xor(v1, v0, v1)
    shr(v0, _R32, tmp)  # v0 = rotl(v0, 32)
    shl(v0, _L32, v0)
    or_(v0, tmp, v0)
    add(v2, v3, v2)
    shr(v3, _R16, tmp)  # v3 = rotl(v3, 16)
    shl(v3, _L16, v3)
    or_(v3, tmp, v3)
    xor(v3, v2, v3)
    add(v0, v3, v0)
    shr(v3, _R21, tmp)  # v3 = rotl(v3, 21)
    shl(v3, _L21, v3)
    or_(v3, tmp, v3)
    xor(v3, v0, v3)
    add(v2, v1, v2)
    shr(v1, _R17, tmp)  # v1 = rotl(v1, 17)
    shl(v1, _L17, v1)
    or_(v1, tmp, v1)
    xor(v1, v2, v1)
    shr(v2, _R32, tmp)  # v2 = rotl(v2, 32)
    shl(v2, _L32, v2)
    or_(v2, tmp, v2)


def _as_words(seeds: np.ndarray) -> np.ndarray:
    """Check ``(N, 16)`` and view it as ``(N, 2)`` LE uint64 key words."""
    if seeds.ndim != 2 or seeds.shape[1] != 16:
        raise ValueError(f"seeds must be (N, 16) uint8, got {seeds.shape}")
    return prf_mod.seeds_to_u64(seeds)


def _mac_lanes(words: np.ndarray, messages: np.ndarray, out: np.ndarray) -> None:
    """SipHash-2-4 of one 8-byte message word per lane under every key.

    Args:
        words: ``(N, 2)`` uint64 key words (not mutated).
        messages: ``(M, 1)`` uint64 message words, ``M <= 4``.
        out: Any-strided uint64 view whose element count is ``M * N``
            and whose last axis is the key axis: viewed as ``(M, N)``,
            row ``m`` receives the MACs of ``messages[m]``.
    """
    lanes, n = messages.shape[0], words.shape[0]
    buffers = _SCRATCH.get()
    xor = np.bitwise_xor
    for start in range(0, n, _CHUNK):
        c = min(_CHUNK, n - start)
        v0, v1, v2, v3, tmp = (b[: lanes * c].reshape(lanes, c) for b in buffers)
        k0, k1 = words[start : start + c, 0], words[start : start + c, 1]
        for v, key, constant in ((v0, k0, _V0), (v1, k1, _V1), (v2, k0, _V2), (v3, k1, _V3)):
            xor(key, constant, v[0])
            v[1:] = v[0]
        # Compression of the single message word.
        xor(v3, messages, v3)
        for _ in range(2):
            _sipround_inplace(v0, v1, v2, v3, tmp)
        xor(v0, messages, v0)
        # Finalization: the length block, then four more rounds.
        xor(v3, _FINAL_BLOCK, v3)
        for _ in range(2):
            _sipround_inplace(v0, v1, v2, v3, tmp)
        xor(v0, _FINAL_BLOCK, v0)
        xor(v2, _FF, v2)
        for _ in range(4):
            _sipround_inplace(v0, v1, v2, v3, tmp)
        xor(v0, v1, v0)
        xor(v2, v3, v2)
        chunk_out = out[..., start : start + c]
        xor(v0.reshape(chunk_out.shape), v2.reshape(chunk_out.shape), chunk_out)


@prf_mod.register_prf
class SipHashPrf(prf_mod.Prf):
    """SipHash-2-4 as a 128-bit-output PRF (two domain-separated calls)."""

    name = "siphash"
    wire_id = 4
    gpu_cost = 965.0 / 7447.0  # Table 5: 7,447 QPS vs AES's 965.
    cpu_cost = 0.8
    security_bits = 64
    standardized = False

    def expand(self, seeds: np.ndarray, tweak: int) -> np.ndarray:
        words = _as_words(seeds)
        out = np.empty((words.shape[0], 2), dtype=np.uint64)
        messages = np.array([[2 * tweak], [2 * tweak + 1]], dtype=np.uint64)
        _mac_lanes(words, messages, out.T)
        return out.view(np.uint8)

    def expand_pair_stacked(self, seeds: np.ndarray) -> np.ndarray:
        """Fused PRG: all four MAC lanes (both tweaks) in one pass."""
        words = _as_words(seeds)
        n = words.shape[0]
        out = np.empty((2 * n, 2), dtype=np.uint64)
        # Lane ``2 * tweak + word`` of seed ``i`` is ``out[tweak * n + i, word]``.
        _mac_lanes(words, _PAIR_MESSAGES, out.reshape(2, n, 2).transpose(0, 2, 1))
        return out.view(np.uint8)

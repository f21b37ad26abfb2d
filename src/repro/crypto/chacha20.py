"""ChaCha20 stream cipher (RFC 8439), vectorized over batches of states.

ChaCha20 is the paper's recommended standardized alternative to AES on
GPUs (Section 3.2.6, Table 5): it is pure 32-bit add/xor/rotate — no
table lookups — so it maps well onto GPU ALUs and onto numpy here.  The
implementation is validated against the RFC 8439 quarter-round and
block-function test vectors.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import prf as prf_mod

_CONSTANTS = np.array([0x61707865, 0x3320646E, 0x79622D32, 0x6B206574], dtype=np.uint32)

_COLUMN_ROUNDS = ((0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15))
_DIAGONAL_ROUNDS = ((0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14))


def _rotl32(x: np.ndarray, n: int) -> np.ndarray:
    return (x << np.uint32(n)) | (x >> np.uint32(32 - n))


def quarter_round(state: np.ndarray, a: int, b: int, c: int, d: int) -> None:
    """Apply the ChaCha quarter round in place to columns of ``state``.

    ``state`` is ``(N, 16)`` uint32; indices pick the four lanes.
    """
    state[:, a] += state[:, b]
    state[:, d] = _rotl32(state[:, d] ^ state[:, a], 16)
    state[:, c] += state[:, d]
    state[:, b] = _rotl32(state[:, b] ^ state[:, c], 12)
    state[:, a] += state[:, b]
    state[:, d] = _rotl32(state[:, d] ^ state[:, a], 8)
    state[:, c] += state[:, d]
    state[:, b] = _rotl32(state[:, b] ^ state[:, c], 7)


def _chacha20_core(state: np.ndarray) -> np.ndarray:
    """Run the 20 ChaCha rounds plus feed-forward on assembled states.

    Args:
        state: ``(N, 16)`` uint32 initial states (not mutated).

    Returns:
        ``(N, 16)`` uint32 keystream words.
    """
    working = state.copy()
    for _ in range(10):
        for idx in _COLUMN_ROUNDS:
            quarter_round(working, *idx)
        for idx in _DIAGONAL_ROUNDS:
            quarter_round(working, *idx)
    working += state
    return working


def chacha20_block(key: np.ndarray, counter: np.ndarray, nonce: np.ndarray) -> np.ndarray:
    """The ChaCha20 block function, vectorized.

    Args:
        key: ``(N, 8)`` uint32 key words (256-bit keys, little-endian).
        counter: ``(N,)`` uint32 block counters.
        nonce: ``(N, 3)`` uint32 nonce words.

    Returns:
        ``(N, 16)`` uint32 keystream words.
    """
    n = key.shape[0]
    state = np.empty((n, 16), dtype=np.uint32)
    state[:, 0:4] = _CONSTANTS
    state[:, 4:12] = key
    state[:, 12] = counter
    state[:, 13:16] = nonce
    return _chacha20_core(state)


def chacha20_keystream(key: bytes, counter: int, nonce: bytes, length: int) -> bytes:
    """Scalar convenience keystream generator (used by the test vectors)."""
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    key_words = np.frombuffer(key, dtype="<u4").astype(np.uint32).reshape(1, 8)
    nonce_words = np.frombuffer(nonce, dtype="<u4").astype(np.uint32).reshape(1, 3)
    out = bytearray()
    block_index = 0
    while len(out) < length:
        ctr = np.array([counter + block_index], dtype=np.uint32)
        block = chacha20_block(key_words, ctr, nonce_words)
        out += block.astype("<u4").tobytes()
        block_index += 1
    return bytes(out[:length])


@prf_mod.register_prf
class ChaCha20Prf(prf_mod.Prf):
    """ChaCha20 block function as a PRF over 16-byte seeds.

    The seed supplies the low 128 bits of the key (the high bits are a
    fixed public constant); the tweak becomes the nonce.  One block
    invocation yields 64 bytes, of which the first 16 are returned.
    """

    name = "chacha20"
    wire_id = 3
    gpu_cost = 965.0 / 3640.0  # Table 5: 3,640 QPS vs AES's 965.
    cpu_cost = 4.0  # No hardware assist on the CPU baseline.
    security_bits = 128
    standardized = True

    _KEY_SUFFIX = np.frombuffer(b"repro-gpu-dpf-k!", dtype="<u4").astype(np.uint32)

    # One broadcastable row holding every seed-independent state word
    # (constants, key suffix, zero counter/nonce), so state assembly is
    # a single vectorized fill instead of per-call re-broadcasts.
    _TEMPLATE = np.zeros(16, dtype=np.uint32)
    _TEMPLATE[0:4] = _CONSTANTS
    _TEMPLATE[8:12] = _KEY_SUFFIX

    @classmethod
    def _fill_states(cls, state: np.ndarray, seeds: np.ndarray, tweak: int) -> None:
        """Assemble initial states in place for one tweak."""
        state[:] = cls._TEMPLATE
        state[:, 4:8] = np.ascontiguousarray(seeds).view("<u4")
        state[:, 13] = np.uint32(tweak)

    @staticmethod
    def _truncate(block: np.ndarray) -> np.ndarray:
        """First 16 keystream bytes of each ``(N, 16)`` uint32 block."""
        n = block.shape[0]
        words = np.ascontiguousarray(block[:, 0:4])
        return words.astype("<u4", copy=False).view(np.uint8).reshape(n, 16)

    def expand(self, seeds: np.ndarray, tweak: int) -> np.ndarray:
        if seeds.ndim != 2 or seeds.shape[1] != 16:
            raise ValueError(f"seeds must be (N, 16) uint8, got {seeds.shape}")
        n = seeds.shape[0]
        state = np.empty((n, 16), dtype=np.uint32)
        self._fill_states(state, seeds, tweak)
        return self._truncate(_chacha20_core(state))

    def expand_pair_stacked(self, seeds: np.ndarray) -> np.ndarray:
        """Fused PRG: both tweaks stacked through one block-function pass."""
        if seeds.ndim != 2 or seeds.shape[1] != 16:
            raise ValueError(f"seeds must be (N, 16) uint8, got {seeds.shape}")
        n = seeds.shape[0]
        state = np.empty((2 * n, 16), dtype=np.uint32)
        self._fill_states(state[:n], seeds, 0)
        self._fill_states(state[n:], seeds, 1)
        return self._truncate(_chacha20_core(state))

"""SHA-256 (FIPS-180-4), with a vectorized single-block compression path.

The round constants and initial hash values are *derived* (fractional
parts of cube/square roots of the first primes, computed with exact
integer arithmetic) rather than transcribed, and the implementation is
validated against the standard ``"abc"`` test vector.

Two interfaces are provided:

* :func:`sha256` — a general-purpose scalar digest used by tests.
* :class:`Sha256Prf` — the vectorized PRF used in the DPF: each 16-byte
  seed plus a tweak fits a single padded block, so one compression per
  call suffices.  The paper benchmarks this configuration as
  "SHA-256 Hash (HMAC)" in Table 5; HMAC's extra compressions are
  accounted for in the cost metadata.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import prf as prf_mod


def _integer_nth_root(x: int, n: int) -> int:
    """Floor of the n-th root of a (possibly huge) non-negative integer."""
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0:
        return 0
    guess = 1 << (-(-x.bit_length() // n))  # >= true root
    while True:
        nxt = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if nxt >= guess:
            return guess
        guess = nxt


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _derive_constants() -> tuple[np.ndarray, np.ndarray]:
    primes = _first_primes(64)
    # H0: first 32 bits of the fractional part of sqrt(prime).
    h0 = np.array(
        [_integer_nth_root(p << 64, 2) & 0xFFFFFFFF for p in primes[:8]],
        dtype=np.uint32,
    )
    # K: first 32 bits of the fractional part of cbrt(prime).
    k = np.array(
        [_integer_nth_root(p << 96, 3) & 0xFFFFFFFF for p in primes],
        dtype=np.uint32,
    )
    return h0, k


_H0, _K = _derive_constants()


def _rotr(x: np.ndarray, n: int) -> np.ndarray:
    return (x >> np.uint32(n)) | (x << np.uint32(32 - n))


def _compress_blocks(state: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """One SHA-256 compression, vectorized over N independent messages.

    Args:
        state: ``(N, 8)`` uint32 chaining values.
        blocks: ``(N, 16)`` uint32 big-endian message words.

    Returns:
        ``(N, 8)`` uint32 updated chaining values.
    """
    w = np.empty(blocks.shape[:1] + (64,), dtype=np.uint32)
    w[:, :16] = blocks
    for t in range(16, 64):
        s0 = _rotr(w[:, t - 15], 7) ^ _rotr(w[:, t - 15], 18) ^ (w[:, t - 15] >> np.uint32(3))
        s1 = _rotr(w[:, t - 2], 17) ^ _rotr(w[:, t - 2], 19) ^ (w[:, t - 2] >> np.uint32(10))
        w[:, t] = w[:, t - 16] + s0 + w[:, t - 7] + s1

    a, b, c, d, e, f, g, h = (state[:, i].copy() for i in range(8))
    for t in range(64):
        big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        t1 = h + big_s1 + ch + _K[t] + w[:, t]
        big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        t2 = big_s0 + maj
        h, g, f, e, d, c, b, a = g, f, e, d + t1, c, b, a, t1 + t2
    out = np.stack((a, b, c, d, e, f, g, h), axis=1)
    return out + state


def sha256(message: bytes) -> bytes:
    """Digest of an arbitrary byte string (scalar convenience path)."""
    length_bits = len(message) * 8
    padded = bytearray(message)
    padded.append(0x80)
    while len(padded) % 64 != 56:
        padded.append(0)
    padded += length_bits.to_bytes(8, "big")
    data = np.frombuffer(bytes(padded), dtype=">u4").astype(np.uint32).reshape(-1, 16)
    state = np.broadcast_to(_H0, (1, 8)).copy()
    for i in range(data.shape[0]):
        state = _compress_blocks(state, data[i : i + 1])
    return state.astype(">u4").tobytes()


@prf_mod.register_prf
class Sha256Prf(prf_mod.Prf):
    """SHA-256 as a PRF over 16-byte seeds (single-compression path)."""

    name = "sha256"
    wire_id = 2
    gpu_cost = 965.0 / 921.0  # Table 5: 921 QPS vs AES's 965.
    cpu_cost = 2.5  # SHA extensions are rarer than AES-NI on server Xeons.
    security_bits = 128
    standardized = True

    @staticmethod
    def _fill_blocks(blocks: np.ndarray, seeds: np.ndarray, tweak: int) -> None:
        """Assemble padded one-block messages in place for one tweak.

        Message layout (big-endian words): seed (4 words) | tweak |
        0x80 padding word | zeros | bit length (20 bytes = 160 bits).
        """
        blocks[:] = 0
        # A big-endian uint32 view *is* the s0<<24|s1<<16|s2<<8|s3 packing.
        blocks[:, 0:4] = np.ascontiguousarray(seeds).view(">u4").astype(np.uint32)
        blocks[:, 4] = np.uint32(tweak)
        blocks[:, 5] = np.uint32(0x80000000)
        blocks[:, 15] = np.uint32(160)

    @staticmethod
    def _truncate(state: np.ndarray) -> np.ndarray:
        """First 128 bits of each digest, in big-endian byte order."""
        n = state.shape[0]
        return np.ascontiguousarray(state[:, 0:4]).astype(">u4").view(np.uint8).reshape(n, 16)

    def expand(self, seeds: np.ndarray, tweak: int) -> np.ndarray:
        if seeds.ndim != 2 or seeds.shape[1] != 16:
            raise ValueError(f"seeds must be (N, 16) uint8, got {seeds.shape}")
        n = seeds.shape[0]
        blocks = np.empty((n, 16), dtype=np.uint32)
        self._fill_blocks(blocks, seeds, tweak)
        state = np.broadcast_to(_H0, (n, 8)).copy()
        return self._truncate(_compress_blocks(state, blocks))

    def expand_pair_stacked(self, seeds: np.ndarray) -> np.ndarray:
        """Fused PRG: both tweaks stacked through one compression pass."""
        if seeds.ndim != 2 or seeds.shape[1] != 16:
            raise ValueError(f"seeds must be (N, 16) uint8, got {seeds.shape}")
        n = seeds.shape[0]
        blocks = np.empty((2 * n, 16), dtype=np.uint32)
        self._fill_blocks(blocks[:n], seeds, 0)
        self._fill_blocks(blocks[n:], seeds, 1)
        state = np.broadcast_to(_H0, (2 * n, 8)).copy()
        return self._truncate(_compress_blocks(state, blocks))

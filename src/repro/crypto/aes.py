"""AES-128 block cipher (FIPS-197), vectorized over batches of blocks.

All tables (S-box, GF(2^8) doubling, the round T-tables) are derived
programmatically from the field definition rather than transcribed, and
the implementation is validated against the FIPS-197 Appendix B/C
known-answer vectors in the test suite.

The production path is the classic *T-table* software AES: with the
state viewed as four little-endian uint32 columns (byte ``j`` of column
word ``c`` is state row ``j``), SubBytes + ShiftRows + MixColumns
collapse into table lookups.  Writing ``S`` for the S-box and ``2S``,
``3S`` for its GF(2^8) multiples, ``T0[x] = 2S | S<<8 | S<<16 | 3S<<24``
and ``Tk = rotl32(T0, 8k)``; round output column ``c`` is::

    T0[b0(s[c])] ^ T1[b1(s[c+1])] ^ T2[b2(s[c+2])] ^ T3[b3(s[c+3])] ^ rk[c]

(column indices mod 4: ShiftRows is the ``+j`` in row ``j``).  Adjacent
byte pairs index two fused 65536-entry tables
``T01[b0|b1<<8] = T0[b0]^T1[b1]`` and ``T23`` likewise, halving the
gather count per round.

The state is held **column-planar**: ``k`` blocks are four contiguous
``(k,)`` uint32 rows of one ``(5, k)`` buffer whose row 4 repeats row
0, so "column ``c+1``" is the contiguous row slice ``s[1:5]`` and
ShiftRows costs no data movement at all.  One masked merge,
``w[c] = s[c] & 0x00FF00FF | s[c+1] & 0xFF00FF00``, carries both pair
indices: its low half is the ``T01`` index of output column ``c`` and
its high half ``b2(s[c]) | b3(s[c+1])<<8`` is the ``T23`` index of
output column ``c-2``, so the second gather's rows are combined two
columns over.  The last round (no MixColumns) is the same loop body
over one table of paired S-box bytes, its high gather shifted into the
upper half-word.

All ten rounds run over **fixed chunks** of :data:`_CHUNK` blocks.  A
chunk's scratch (~400 KB, :class:`_Scratch`) plus the two 256 KB pair
tables stay resident in a per-core L2 at any call size, which is what
keeps ns/block flat from a few thousand blocks to millions; the DPF
expansion calls the cipher once per tree level with geometrically
growing batches, so both ends of that range are on the serving path.
The scratch is thread-*local* because any caller may expand on two
threads at once, and two concurrent expansions must not share round
state.  Both are built on first use: the scratch on a thread's first
encryption, the round tables (:func:`_round_tables`, 768 KiB) on the
process's first, so a process that only ever runs another PRF holds
neither.  The first AddRoundKey is a parameter (*whitening*): the MMO
tweak of :class:`Aes128` is folded into it, so the fused PRG encrypts
both tweaked copies of its seeds without ever materialising them.

The pre-T-table byte pipeline (SubBytes/ShiftRows/MixColumns as
separate numpy passes) is retained as
:func:`aes128_encrypt_blocks_reference` so equality tests pin the
optimization to the seed semantics.

Only encryption is implemented; the DPF PRG is built from the forward
permutation in Matyas--Meyer--Oseas mode and never needs to decrypt.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from repro.crypto import prf as prf_mod


def _build_gf_tables() -> tuple[np.ndarray, np.ndarray]:
    """Exp/log tables for GF(2^8) with generator 3 (x+1)."""
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        xt = ((x << 1) ^ 0x1B) & 0xFF if x & 0x80 else (x << 1)
        x ^= xt  # multiply by 3 = x * (2 + 1)
    exp[255:510] = exp[0:255]
    return exp, log


_GF_EXP, _GF_LOG = _build_gf_tables()


def _rotl8(x: int, n: int) -> int:
    return ((x << n) | (x >> (8 - n))) & 0xFF


def _build_sbox() -> np.ndarray:
    """Derive the AES S-box: GF(2^8) inverse followed by the affine map."""
    sbox = np.zeros(256, dtype=np.uint8)
    for b in range(256):
        inv = int(_GF_EXP[255 - _GF_LOG[b]]) if b else 0
        sbox[b] = inv ^ _rotl8(inv, 1) ^ _rotl8(inv, 2) ^ _rotl8(inv, 3) ^ _rotl8(inv, 4) ^ 0x63
    return sbox


SBOX = _build_sbox()

# xtime (multiplication by 2 in GF(2^8)) as a lookup table.
_XT2 = np.array(
    [((b << 1) ^ 0x1B) & 0xFF if b & 0x80 else (b << 1) for b in range(256)],
    dtype=np.uint8,
)

# ShiftRows as a flat permutation of the 16 state bytes: the AES state is
# column-major (byte i lives at row i % 4, column i // 4), and row r
# rotates left by r, so out[r + 4c] = in[r + 4*((c + r) % 4)].
SHIFT_ROWS_PERM = np.array(
    [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11], dtype=np.intp
)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _rotl32(x: np.ndarray, n: int) -> np.ndarray:
    return (x << np.uint32(n)) | (x >> np.uint32(32 - n))


def _build_t_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derive the four round T-tables from the S-box and xtime tables."""
    s = SBOX.astype(np.uint32)
    s2 = _XT2[SBOX].astype(np.uint32)  # 2 * S[x] in GF(2^8)
    s3 = s2 ^ s  # 3 * S[x]
    t0 = s2 | (s << np.uint32(8)) | (s << np.uint32(16)) | (s3 << np.uint32(24))
    return t0, _rotl32(t0, 8), _rotl32(t0, 16), _rotl32(t0, 24)


@functools.cache
def _round_tables() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (low-pair, high-pair) gather tables of each of the ten rounds.

    Rounds 1-9 fuse the T-tables pairwise over 16-bit byte-pair indices.
    The final round has no MixColumns: both its gathers read one table
    of paired S-box bytes.  Built on the first T-table encryption, so a
    process that never runs AES never holds the 768 KiB.

    Entry ``p = lo | hi << 8`` of a table is ``T0[lo] ^ T1[hi]`` (and
    ``T2[lo] ^ T3[hi]``, ``S[lo] | S[hi] << 8``): row ``hi``, column
    ``lo`` of an outer product, so no index array is built.
    """
    t0, t1, t2, t3 = _build_t_tables()
    s = SBOX.astype(np.uint32)
    fs = np.bitwise_or.outer(s << np.uint32(8), s).ravel()
    mix = (np.bitwise_xor.outer(t1, t0).ravel(), np.bitwise_xor.outer(t3, t2).ravel())
    return (mix,) * 9 + ((fs, fs),)

_EVEN_BYTES = np.uint32(0x00FF00FF)
_ODD_BYTES = np.uint32(0xFF00FF00)
_M16 = np.uint32(0xFFFF)
_SH16 = np.uint32(16)

_CHUNK = 4096
"""Blocks encrypted per pass over the ten rounds.  Large enough that
the ~112 numpy calls of a pass (eleven a round, one more in the last,
one or two for the load) are amortised, small enough that the scratch
and the pair tables stay L2-resident however many blocks one call
brings."""


class _Scratch(threading.local):
    """One chunk's round buffers, one set per thread.

    Flat and fixed-size: a chunk of ``k`` blocks reshapes the leading
    ``rows * k`` elements, which keeps every buffer contiguous (a
    ``[:, :k]`` slice of a 2-D buffer is not, and ``ndarray.take``
    copies through a temporary for a non-contiguous ``out``).
    Allocated on a thread's first encryption, so a thread (or a
    process) that never runs AES pays nothing, for the scratch or, in a
    process, for the round tables.
    """

    buffers: tuple[np.ndarray, ...] | None = None

    def get(self) -> tuple[np.ndarray, ...]:
        if self.buffers is None:
            self.buffers = (
                np.empty(5 * _CHUNK, dtype=np.uint32),  # state: columns 0-3, then 0 again
                np.empty(4 * _CHUNK, dtype=np.uint32),  # both 16-bit pair indices per word
                np.empty(4 * _CHUNK, dtype=np.intp),  # pre-cast: take skips its own copy
                np.empty(4 * _CHUNK, dtype=np.uint32),  # low-pair gather
                np.empty(4 * _CHUNK, dtype=np.uint32),  # high-pair gather
            )
        return self.buffers


_SCRATCH = _Scratch()


def expand_key(key: bytes | np.ndarray) -> np.ndarray:
    """AES-128 key schedule.

    Args:
        key: 16-byte cipher key.

    Returns:
        ``(11, 16)`` uint8 array of round keys.
    """
    key = np.asarray(bytearray(key) if isinstance(key, bytes) else key, dtype=np.uint8)
    if key.shape != (16,):
        raise ValueError(f"AES-128 key must be 16 bytes, got shape {key.shape}")
    words = [key[4 * i : 4 * i + 4].copy() for i in range(4)]
    for i in range(4, 44):
        temp = words[i - 1].copy()
        if i % 4 == 0:
            temp = np.roll(temp, -1)  # RotWord
            temp = SBOX[temp]  # SubWord
            temp[0] ^= _RCON[i // 4 - 1]
        words.append(words[i - 4] ^ temp)
    return np.concatenate(words).reshape(11, 16)


def _round_keys_to_cols(round_keys: np.ndarray) -> np.ndarray:
    """``(11, 16)`` uint8 round keys as ``(11, 4, 1)`` uint32 columns.

    The trailing axis broadcasts a key column against a planar
    ``(4, k)`` state.
    """
    cols = np.ascontiguousarray(round_keys).view("<u4").astype(np.uint32, copy=False)
    return cols.reshape(11, 4, 1)


def _mix_columns(state: np.ndarray) -> np.ndarray:
    """Vectorized MixColumns over ``(N, 16)`` states (reference path)."""
    a = state.reshape(-1, 4, 4)  # (N, column, row)
    t2 = _XT2[a]
    t3 = t2 ^ a
    b0 = t2[:, :, 0] ^ t3[:, :, 1] ^ a[:, :, 2] ^ a[:, :, 3]
    b1 = a[:, :, 0] ^ t2[:, :, 1] ^ t3[:, :, 2] ^ a[:, :, 3]
    b2 = a[:, :, 0] ^ a[:, :, 1] ^ t2[:, :, 2] ^ t3[:, :, 3]
    b3 = t3[:, :, 0] ^ a[:, :, 1] ^ a[:, :, 2] ^ t2[:, :, 3]
    return np.stack((b0, b1, b2, b3), axis=-1).reshape(-1, 16)


def aes128_encrypt_blocks_reference(round_keys: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The per-transform byte pipeline (pre-T-table reference).

    Kept as the semantic anchor: tests assert the T-table fast path is
    bit-identical to this on random batches in addition to the FIPS-197
    known answers.
    """
    state = blocks ^ round_keys[0]
    for rnd in range(1, 10):
        state = SBOX[state]
        state = state[:, SHIFT_ROWS_PERM]
        state = _mix_columns(state)
        state ^= round_keys[rnd]
    state = SBOX[state]
    state = state[:, SHIFT_ROWS_PERM]
    state ^= round_keys[10]
    return state


def _as_columns(blocks: np.ndarray, what: str) -> np.ndarray:
    """Check ``(N, 16)`` uint8 and view it as ``(N, 4)`` LE uint32 columns."""
    if blocks.ndim != 2 or blocks.shape[1] != 16 or blocks.dtype != np.uint8:
        raise ValueError(
            f"{what} must be (N, 16) uint8, got shape {blocks.shape} dtype {blocks.dtype}"
        )
    return np.ascontiguousarray(blocks).view("<u4")


def _encrypt_columns(rk: np.ndarray, cols: np.ndarray, whitening: np.ndarray) -> np.ndarray:
    """The column-planar round loop shared by the cipher and the PRG.

    Args:
        rk: ``(11, 4, 1)`` uint32 round-key columns; ``rk[0]`` is unused
            here, the caller folds it into ``whitening``.
        cols: ``(N, 4)`` LE uint32 input columns (not mutated).
        whitening: ``(M, 4, 1)`` uint32 first-round keys.

    Returns:
        ``(M * N, 4)`` LE uint32 columns, freshly allocated: row
        ``m * N + i`` is the encryption of ``cols[i]`` with
        ``whitening[m]`` as its first AddRoundKey.
    """
    n = cols.shape[0]
    total = whitening.shape[0] * n
    out = np.empty((total, 4), dtype="<u4")
    state, pairs, index, low, high = _SCRATCH.get()
    tables = _round_tables()
    # Every numpy call below is a ufunc or an ndarray method with ``out``
    # passed positionally: the ``np.take`` / ``np.copyto`` wrappers and
    # keyword parsing cost more than the work at small chunks.
    and_, xor, shift = np.bitwise_and, np.bitwise_xor, np.right_shift
    for start in range(0, total, _CHUNK):
        k = min(_CHUNK, total - start)
        s = state[: 5 * k].reshape(5, k)
        w = pairs[: 4 * k].reshape(4, k)
        idx = index[: 4 * k].reshape(4, k)
        lo = low[: 4 * k].reshape(4, k)
        hi = high[: 4 * k].reshape(4, k)
        s03, s14, s01, s23, s0, s4 = s[0:4], s[1:5], s[0:2], s[2:4], s[0], s[4]
        lo01, lo23, hi01, hi23 = lo[0:2], lo[2:4], hi[0:2], hi[2:4]
        out_t = out[start : start + k].T
        # Load: transpose to planar under the first AddRoundKey.  A chunk
        # may straddle the boundary between two whitened copies.
        pos = 0
        while pos < k:
            part, row = divmod(start + pos, n)
            m = min(n - row, k - pos)
            xor(cols[row : row + m].T, whitening[part], s03[:, pos : pos + m])
            pos += m
        for rnd, (low_table, high_table) in enumerate(tables, 1):
            s4[...] = s0
            and_(s03, _EVEN_BYTES, w)
            and_(s14, _ODD_BYTES, lo)
            w |= lo
            # Indices are 16 bits by construction: "wrap" never wraps, it
            # only spares take the bounds check and the buffered out=.
            and_(w, _M16, idx)
            low_table.take(idx, None, lo, "wrap")
            shift(w, _SH16, idx)
            high_table.take(idx, None, hi, "wrap")
            if rnd == 10:
                hi <<= _SH16  # paired S-box bytes 2-3 of the output word
            # hi[c] belongs to output column c - 2: combine crosswise.
            xor(lo01, hi23, s01)
            xor(lo23, hi01, s23)
            xor(s03, rk[rnd], s03 if rnd < 10 else out_t)
    return out


def aes128_encrypt_blocks(round_keys: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Encrypt a batch of 16-byte blocks (column-planar T-table fast path).

    Args:
        round_keys: ``(11, 16)`` output of :func:`expand_key`.
        blocks: ``(N, 16)`` uint8 plaintext blocks (not mutated; any
            strides, may be read-only).

    Returns:
        ``(N, 16)`` uint8 ciphertext blocks (freshly allocated).

    Raises:
        ValueError: If ``blocks`` is not ``(N, 16)`` uint8.
    """
    cols = _as_columns(blocks, "blocks")
    rk = _round_keys_to_cols(round_keys)
    return _encrypt_columns(rk, cols, rk[:1]).view(np.uint8)


# Fixed MMO keys; arbitrary distinct public constants (digits of pi-ish
# values are traditional, but any fixed value works: security rests on
# the cipher, not on key secrecy, in the MMO PRG construction).
_FIXED_KEY = bytes(range(16))
_TWEAK_CONSTANTS = (0x00, 0x80)


def _tweak_row(tweak: int) -> np.ndarray:
    """The 16-byte XOR mask a tweak applies to a seed block."""
    row = np.zeros(16, dtype=np.uint8)
    row[0] = _TWEAK_CONSTANTS[tweak % 2]
    row[1] = (tweak >> 1) & 0xFF
    return row


@prf_mod.register_prf
class Aes128(prf_mod.Prf):
    """AES-128 in fixed-key Matyas--Meyer--Oseas mode.

    The paper's CPU baseline (Google's DPF library) uses AES-128 with
    AES-NI; on GPUs AES has no hardware assist and is the *slowest* PRF
    in Table 5 — the cost metadata reflects both facts.
    """

    name = "aes128"
    wire_id = 1
    gpu_cost = 1.0  # Table 5 reference point: 965 QPS.
    cpu_cost = 1.0  # AES-NI accelerated.
    security_bits = 128
    standardized = True

    def __init__(self, key: bytes = _FIXED_KEY):
        self._rk = _round_keys_to_cols(expand_key(key))
        self._whitening: dict[int, np.ndarray] = {}
        self._pair_whitening = np.concatenate([self._tweak_whitening(0), self._tweak_whitening(1)])

    def _tweak_whitening(self, tweak: int) -> np.ndarray:
        """``(1, 4, 1)`` first-round key with the tweak's XOR mask folded in."""
        key = self._whitening.get(tweak)
        if key is None:
            mask = _tweak_row(tweak).view("<u4").reshape(1, 4, 1)
            key = self._whitening.setdefault(tweak, self._rk[:1] ^ mask)
        return key

    def expand(self, seeds: np.ndarray, tweak: int) -> np.ndarray:
        cols = _as_columns(seeds, "seeds")
        out = _encrypt_columns(self._rk, cols, self._tweak_whitening(tweak))
        out ^= cols
        return out.view(np.uint8)

    def expand_pair_stacked(self, seeds: np.ndarray) -> np.ndarray:
        """Fused PRG: both children from one cipher pass over 2N blocks."""
        cols = _as_columns(seeds, "seeds")
        n = cols.shape[0]
        out = _encrypt_columns(self._rk, cols, self._pair_whitening)
        out[:n] ^= cols
        out[n:] ^= cols
        return out.view(np.uint8)

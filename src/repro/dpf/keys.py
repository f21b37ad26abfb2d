"""DPF key material and wire-format serialization.

The client sends one key per server (paper Figure 2); the key size is
the client->server communication the paper reports in Table 4's "Bytes"
column.  The BGI construction used here carries one 128-bit seed plus
two control-bit corrections per tree level, a root seed, and a 128-bit
output correction (one 64-bit word per row of the word-packed leaf, see
:mod:`repro.dpf.ggm`), giving ``O(lambda log L)`` communication.

One ``DPF3`` record over ``L`` rows, ``n = tree_depth(L)`` levels
(little-endian)::

    magic      4s    b"DPF3"
    party      u8    0 or 1; also the root control bit
    prf        u8    the PRF's registered wire id (repro.crypto.prf)
    domain     u32   L
    output_cw  2 u64 one correction word per row of the leaf
    root       16 B  root seed
    cw_seeds   16 B  per level
    cw_bits    ceil(n / 4) B: bit 2i is t_left of level i, bit 2i + 1
               its t_right, LSB first; the padding bits are zero

so a record is ``42 + 16 n + ceil(n / 4)`` bytes.  Every byte is key
material or a field a parser checks, which gives each key exactly one
encoding: the parsers refuse a party outside {0, 1}, an unknown PRF id,
non-zero padding bits, a length that does not follow from ``domain`` and
a batch whose records differ in domain or PRF, and refuse the retired
``DPF1`` and ``DPF2`` layouts by name.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.crypto.prf import SEED_BYTES, prf_name_for_wire_id, prf_wire_id
from repro.dpf.ggm import LEAF_WORDS, log2_ceil, tree_depth

_MAGIC = b"DPF3"
_RETIRED_MAGICS = {
    b"DPF1": "one table row per leaf",
    b"DPF2": "PRF named by string, a byte per level",
}
"""Layouts this one replaced, recognised only to be refused by name."""
_U64_MASK = (1 << 64) - 1

_HEADER_FMT = "<4sBBIQQ"
HEADER_BYTES = struct.calcsize(_HEADER_FMT)
"""Fixed-size record header: magic, party, PRF wire id, domain, the two
output-correction words.  The root seed follows it."""


def _bit_bytes(depth: int) -> int:
    """Bytes of packed control-bit corrections: two bits per level."""
    return -(-depth // 4)


def _record_size(depth: int) -> int:
    """Wire bytes of one key record over a ``depth``-level tree.

    The single source of the record arithmetic: ``from_bytes``,
    ``split_wire`` and :meth:`repro.gpu.arena.KeyArena.from_wire` all
    frame records through it.
    """
    return HEADER_BYTES + SEED_BYTES * (1 + depth) + _bit_bytes(depth)


def _read_header(
    data: bytes, offset: int = 0, where: str = ""
) -> tuple[int, str, int, tuple[int, int], int]:
    """Check the record header at ``offset`` before its length is trusted.

    The one header check ``from_bytes``, ``split_wire`` and
    :meth:`repro.gpu.arena.KeyArena.from_wire` share.  The caller has
    checked that ``HEADER_BYTES`` are there.

    Returns:
        ``(party, prf_name, domain_size, output_cw, record_bytes)``.

    Raises:
        ValueError: Naming the bad field: magic (a retired layout by its
            version), party, PRF id or an empty domain.
    """
    magic, party, wire_id, domain_size, cw_even, cw_odd = struct.unpack_from(
        _HEADER_FMT, data, offset
    )
    if magic != _MAGIC:
        retired = _RETIRED_MAGICS.get(magic)
        if retired is not None:
            raise ValueError(
                f"bad DPF key magic {magic!r}{where}: wire version "
                f"{magic.decode()} ({retired}) is not supported; this build "
                f"reads {_MAGIC.decode()}"
            )
        raise ValueError(f"bad DPF key magic {magic!r}{where}")
    if party > 1:
        raise ValueError(f"party must be 0 or 1, got {party}{where}")
    prf_name = prf_name_for_wire_id(wire_id)
    if prf_name is None:
        raise ValueError(f"unknown PRF id {wire_id}{where}")
    if domain_size == 0:
        raise ValueError(f"domain_size must be positive, got 0{where}")
    record = _record_size(tree_depth(domain_size))
    return party, prf_name, domain_size, (cw_even, cw_odd), record


def _control_bits(data: bytes, end: int, depth: int, where: str = "") -> int:
    """The packed control-bit corrections of the record ending at ``end``.

    Raises:
        ValueError: If a padding bit above bit ``2 * depth`` is set.
    """
    bits = int.from_bytes(data[end - _bit_bytes(depth) : end], "little")
    if bits >> (2 * depth):
        raise ValueError(f"non-zero padding bits in the control-bit corrections{where}")
    return bits


def _check_domain(log_domain: int, domain_size: int) -> None:
    """Reject a ``log_domain`` that does not follow from ``domain_size``."""
    if domain_size <= 0 or log2_ceil(domain_size) != log_domain:
        raise ValueError(
            f"domain_size {domain_size} is inconsistent with log_domain {log_domain}"
        )


def wire_size(log_domain: int, prf_name: str = "aes128") -> int:
    """Serialized size of a key over ``2**log_domain`` table rows.

    ``42 + 16 n + ceil(n / 4)`` bytes for ``n = tree_depth(2**log_domain)``.
    Every PRF costs the same one id byte, so ``prf_name`` is only
    checked; every key of one table size serializes to the same number
    of bytes, which is what makes batched wire parsing
    (:meth:`repro.gpu.arena.KeyArena.from_wire`) a fixed-stride reshape.

    Raises:
        ValueError: On a negative ``log_domain`` or an unregistered PRF.
    """
    if log_domain < 0:
        raise ValueError(f"log_domain must be non-negative, got {log_domain}")
    prf_wire_id(prf_name)
    return _record_size(tree_depth(1 << log_domain))


@dataclass(frozen=True)
class CorrectionWord:
    """Per-level correction: a seed word plus the two control-bit fixes."""

    seed: np.ndarray  # (16,) uint8
    t_left: int
    t_right: int

    def __post_init__(self):
        if self.seed.shape != (16,):
            raise ValueError(f"correction seed must be (16,), got {self.seed.shape}")
        if self.t_left not in (0, 1) or self.t_right not in (0, 1):
            raise ValueError(
                f"control-bit corrections must be 0 or 1, got "
                f"({self.t_left}, {self.t_right})"
            )


@dataclass(frozen=True)
class DpfKey:
    """One party's share of a distributed point function.

    Attributes:
        party: 0 or 1 (which non-colluding server this key is for).
        domain_size: Number of addressable table rows L (may be below
            ``2 ** log_domain`` for non-power-of-two tables).
        log_domain: ``ceil(log2(L))``; not on the wire, which carries L.
        root_seed: ``(16,)`` uint8 root seed.
        root_t: Root control bit; always equal to ``party``, so the wire
            carries it once.
        correction_words: One :class:`CorrectionWord` per tree level —
            ``tree_depth(L)`` of them, one fewer than ``log_domain``
            from ``L = 2`` up.
        output_cw: The leaf's two output correction words in Z_{2^64}:
            word ``w`` corrects row ``2 * leaf + w``.
        prf_name: Registry name of the PRF both parties must use.
    """

    party: int
    domain_size: int
    log_domain: int
    root_seed: np.ndarray
    root_t: int
    correction_words: list[CorrectionWord] = field(default_factory=list)
    output_cw: tuple[int, int] = (0, 0)
    prf_name: str = "aes128"

    def __post_init__(self):
        if self.party not in (0, 1):
            raise ValueError(f"party must be 0 or 1, got {self.party}")
        if self.root_t != self.party:
            raise ValueError(
                f"root_t must equal party {self.party}, got {self.root_t}"
            )
        # The wire parsers refuse such a shape; an object-built key must
        # not get further either, or it mis-indexes inside evaluation.
        _check_domain(self.log_domain, self.domain_size)
        if len(self.correction_words) != self.depth:
            raise ValueError(
                f"a key over {self.domain_size} rows has {self.depth} "
                f"correction words, got {len(self.correction_words)}"
            )
        if len(self.output_cw) != LEAF_WORDS:
            raise ValueError(
                f"output_cw must hold {LEAF_WORDS} words, got {len(self.output_cw)}"
            )

    @property
    def depth(self) -> int:
        """Levels of the word-packed GGM tree over ``domain_size`` rows."""
        return tree_depth(self.domain_size)

    @property
    def size_bytes(self) -> int:
        """Serialized size — the per-query upload cost.

        Computed from the wire-format arithmetic rather than by
        serializing; ``test_size_bytes_matches_serialization`` pins the
        two against each other for every PRF and a range of depths.
        """
        return wire_size(self.log_domain, self.prf_name)

    def to_bytes(self) -> bytes:
        """Serialize to one ``DPF3`` record."""
        header = struct.pack(
            _HEADER_FMT,
            _MAGIC,
            self.party,
            prf_wire_id(self.prf_name),
            self.domain_size,
            *(word & _U64_MASK for word in self.output_cw),
        )
        bits = 0
        for level, cw in enumerate(self.correction_words):
            bits |= (cw.t_left | cw.t_right << 1) << (2 * level)
        return b"".join(
            [
                header,
                self.root_seed.tobytes(),
                *(cw.seed.tobytes() for cw in self.correction_words),
                bits.to_bytes(_bit_bytes(self.depth), "little"),
            ]
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "DpfKey":
        """Parse a key produced by :meth:`to_bytes`.

        Raises:
            ValueError: On a malformed, truncated or non-canonical
                buffer, naming what is wrong.
        """
        if len(data) < HEADER_BYTES:
            raise ValueError("truncated DPF key")
        # Validate the header and the total length up front: a corrupted
        # domain or a buffer truncated mid-seed must fail here with a
        # clear message, not deep inside np.frombuffer or — worse — only
        # once evaluation walks off the correction-word array.
        party, prf_name, domain_size, output_cw, expected = _read_header(data)
        if len(data) != expected:
            raise ValueError(
                f"DPF key over {domain_size} rows must be exactly {expected} "
                f"bytes, got {len(data)}"
            )
        depth = tree_depth(domain_size)
        bits = _control_bits(data, expected, depth)
        seeds = (
            np.frombuffer(
                data, dtype=np.uint8, count=SEED_BYTES * (1 + depth), offset=HEADER_BYTES
            )
            .reshape(1 + depth, SEED_BYTES)
            .copy()
        )
        cws = [
            CorrectionWord(
                seed=seeds[1 + level],
                t_left=(bits >> (2 * level)) & 1,
                t_right=(bits >> (2 * level + 1)) & 1,
            )
            for level in range(depth)
        ]
        return cls(
            party=party,
            domain_size=domain_size,
            log_domain=log2_ceil(domain_size),
            root_seed=seeds[0],
            root_t=party,
            correction_words=cws,
            output_cw=output_cw,
            prf_name=prf_name,
        )


@dataclass(frozen=True, eq=False)
class KeyBatch:
    """Both parties' keys for ``K`` points, as stacked arrays.

    What :func:`repro.dpf.dpf.gen_batch` returns.  The two parties of
    one point differ only in their root seed and root control bit
    (party ``p`` starts at ``t = p``); everything else is shared, so it
    is stored once.

    Attributes:
        domain_size: Addressable table rows L (shared by every key).
        prf_name: Registry name of the PRF both parties must use.
        roots: ``(K, 2, 16)`` uint8 — ``roots[i, p]`` is party ``p``'s
            root seed for point ``i``.
        cw_seeds: ``(K, n, 16)`` uint8 correction seeds,
            ``n = tree_depth(L)``.
        cw_t_left: ``(K, n)`` uint8 left control-bit corrections.
        cw_t_right: ``(K, n)`` uint8 right control-bit corrections.
        output_cws: ``(K, 2)`` uint64 output correction words, one per
            row of a leaf.
    """

    domain_size: int
    prf_name: str
    roots: np.ndarray
    cw_seeds: np.ndarray
    cw_t_left: np.ndarray
    cw_t_right: np.ndarray
    output_cws: np.ndarray

    def __len__(self) -> int:
        return self.roots.shape[0]

    def pair(self, i: int) -> tuple[DpfKey, DpfKey]:
        """Point ``i``'s ``(key_0, key_1)`` as key objects."""
        correction_words = [
            CorrectionWord(seed=seed, t_left=int(t_left), t_right=int(t_right))
            for seed, t_left, t_right in zip(
                self.cw_seeds[i], self.cw_t_left[i], self.cw_t_right[i]
            )
        ]
        return tuple(
            DpfKey(
                party=party,
                domain_size=self.domain_size,
                log_domain=log2_ceil(self.domain_size),
                root_seed=self.roots[i, party],
                root_t=party,
                correction_words=correction_words,
                output_cw=tuple(self.output_cws[i].tolist()),
                prf_name=self.prf_name,
            )
            for party in (0, 1)
        )


def key_size_bytes(domain_size: int, prf_name: str = "aes128") -> int:
    """Size of a serialized key for a given table size, without generating one.

    Used by the communication accounting and the batch-PIR planner.
    """
    return wire_size(log2_ceil(max(domain_size, 1)), prf_name)


def pack_keys(keys: Sequence[DpfKey]) -> bytes:
    """Concatenate a batch of keys into one wire buffer.

    This is the client->server upload format for a multi-query batch:
    back-to-back :meth:`DpfKey.to_bytes` records with no extra framing.
    All keys must share one domain and PRF, which fixes the record size
    (:func:`wire_size`) and lets the server ingest the whole buffer with
    one vectorized parse (:meth:`repro.gpu.arena.KeyArena.from_wire`)
    instead of per-key Python object construction.

    Raises:
        ValueError: On an empty batch or mixed domains/PRFs.
    """
    if not keys:
        raise ValueError("need at least one key")
    first = keys[0]
    for key in keys:
        if (key.domain_size, key.prf_name) != (first.domain_size, first.prf_name):
            raise ValueError("all keys in a batch must share the same domain and PRF")
    return b"".join(key.to_bytes() for key in keys)


def split_wire(data: bytes) -> list[bytes]:
    """Split a concatenated wire buffer into per-key records.

    The buffer is one batch, :func:`pack_keys` output: each record's
    size is read from its own header, and every record must share the
    first one's domain and PRF.  Every header is validated (magic and
    version, party, PRF id, domain) *before* its record length is
    trusted, so trailing garbage after the last well-formed record
    cannot frame as an extra record — it fails here rather than
    surviving until (or past) the per-key parse.  Each record's padding
    bits are checked too, so what this accepts, :meth:`DpfKey.from_bytes`
    parses.

    Raises:
        ValueError: Naming the offset and what is wrong there: bad or
            retired magic, an invalid header, a record whose domain or
            PRF differs from the first, non-zero padding bits, or a
            buffer that ends mid-record.
    """
    records = []
    offset = 0
    first_prf = first_domain = None
    view = memoryview(data)
    while offset < len(data):
        if len(data) - offset < HEADER_BYTES:
            raise ValueError(
                f"wire buffer ends mid-header: {len(data) - offset} "
                f"trailing bytes at offset {offset}"
            )
        where = f" at offset {offset}"
        _, prf_name, domain_size, _, record = _read_header(data, offset, where)
        if first_domain is None:
            first_prf, first_domain = prf_name, domain_size
        elif domain_size != first_domain:
            raise ValueError(
                f"all keys in a batch must share the same domain: the record"
                f"{where} is over {domain_size} rows, the first over {first_domain}"
            )
        elif prf_name != first_prf:
            raise ValueError(
                f"all keys in a batch must share the same PRF: the record"
                f"{where} uses {prf_name!r}, the first {first_prf!r}"
            )
        if offset + record > len(data):
            raise ValueError(
                f"wire buffer ends mid-record: need {record} bytes at "
                f"offset {offset}, have {len(data) - offset}"
            )
        _control_bits(data, offset + record, tree_depth(domain_size), where)
        records.append(bytes(view[offset : offset + record]))
        offset += record
    return records


def unpack_keys(data: bytes) -> list[DpfKey]:
    """Parse a concatenated wire buffer into key objects.

    This is the reference (per-key, Python-object) ingestion path; the
    serving hot path uses :meth:`repro.gpu.arena.KeyArena.from_wire`,
    which parses the same buffer without constructing any per-key
    objects.
    """
    return [DpfKey.from_bytes(record) for record in split_wire(data)]

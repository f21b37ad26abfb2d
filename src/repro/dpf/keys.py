"""DPF key material and wire-format serialization.

The client sends one key per server (paper Figure 2); the key size is
the client->server communication the paper reports in Table 4's "Bytes"
column.  The BGI construction used here carries one 128-bit seed plus
two control-bit corrections per tree level, a root seed, and a 128-bit
output correction (one 64-bit word per row of the word-packed leaf, see
:mod:`repro.dpf.ggm`), giving ``O(lambda log L)`` communication.  The
tree over ``L`` rows has :func:`repro.dpf.ggm.tree_depth` levels — one
fewer than ``log2_ceil(L)`` — so against the one-row-per-leaf ``DPF1``
format a record loses one 17-byte level and gains 8 bytes of output
correction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.dpf.ggm import LEAF_WORDS, log2_ceil, tree_depth

_MAGIC = b"DPF2"
_UNPACKED_MAGIC = b"DPF1"
"""The one-row-per-leaf format this one replaced: one more level, one
output word.  Recognised only to be refused by name."""
_U64_MASK = (1 << 64) - 1

_HEADER_FMT = "<4sBBIQQB"
HEADER_BYTES = struct.calcsize(_HEADER_FMT)
"""Fixed-size wire header: magic, party, log_domain, domain, the two
output-correction words, prf_len.  ``log_domain`` is ``log2_ceil`` of
the table rows, not the (one shorter) tree depth."""

CW_BYTES = 17
"""Per-level wire bytes: a 16-byte correction seed plus one packed bit byte."""


def _check_domain(log_domain: int, domain_size: int, where: str = "") -> None:
    """Reject a ``log_domain`` that does not follow from ``domain_size``."""
    if domain_size <= 0 or log2_ceil(domain_size) != log_domain:
        raise ValueError(
            f"domain_size {domain_size} is inconsistent with "
            f"log_domain {log_domain}{where}"
        )


def _check_header(magic: bytes, log_domain: int, domain_size: int, where: str = "") -> None:
    """Reject a record header no key of this format can carry.

    The one semantic check ``from_bytes``, ``split_wire`` and
    :meth:`repro.gpu.arena.KeyArena.from_wire` all apply before they
    trust a record length.
    """
    if magic == _UNPACKED_MAGIC:
        raise ValueError(
            f"bad DPF key magic {magic!r}{where}: wire version "
            f"{magic.decode()} (one table row per leaf) is not supported; "
            f"this build reads {_MAGIC.decode()} (word-packed leaves)"
        )
    if magic != _MAGIC:
        raise ValueError(f"bad DPF key magic {magic!r}{where}")
    _check_domain(log_domain, domain_size, where)


def _record_size(log_domain: int, prf_len: int) -> int:
    """Wire bytes of one key record: header, PRF name, root, levels.

    The single source of the record arithmetic — ``from_bytes``,
    ``split_wire`` and :meth:`repro.gpu.arena.KeyArena.from_wire` all
    frame records through it.
    """
    return HEADER_BYTES + prf_len + 1 + 16 + tree_depth(1 << log_domain) * CW_BYTES


def wire_size(log_domain: int, prf_name: str = "aes128") -> int:
    """Serialized size of a key over ``2**log_domain`` table rows.

    Every key of one ``(log_domain, prf_name)`` shape serializes to the
    same number of bytes, which is what makes batched wire parsing
    (:meth:`repro.gpu.arena.KeyArena.from_wire`) a fixed-stride reshape.
    """
    if log_domain < 0:
        raise ValueError(f"log_domain must be non-negative, got {log_domain}")
    return _record_size(log_domain, len(prf_name.encode()))


@dataclass(frozen=True)
class CorrectionWord:
    """Per-level correction: a seed word plus the two control-bit fixes."""

    seed: np.ndarray  # (16,) uint8
    t_left: int
    t_right: int

    def __post_init__(self):
        if self.seed.shape != (16,):
            raise ValueError(f"correction seed must be (16,), got {self.seed.shape}")


@dataclass(frozen=True)
class DpfKey:
    """One party's share of a distributed point function.

    Attributes:
        party: 0 or 1 (which non-colluding server this key is for).
        domain_size: Number of addressable table rows L (may be below
            ``2 ** log_domain`` for non-power-of-two tables).
        log_domain: ``ceil(log2(L))``.
        root_seed: ``(16,)`` uint8 root seed.
        root_t: Root control bit (0 for party 0, 1 for party 1).
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
        # The wire parsers refuse this header; an object-built key must
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
        """Serialize to the wire format (little-endian, versioned)."""
        prf_bytes = self.prf_name.encode()
        header = struct.pack(
            _HEADER_FMT,
            _MAGIC,
            self.party,
            self.log_domain,
            self.domain_size,
            *(word & _U64_MASK for word in self.output_cw),
            len(prf_bytes),
        )
        body = [header, prf_bytes, bytes([self.root_t]), self.root_seed.tobytes()]
        for cw in self.correction_words:
            body.append(cw.seed.tobytes())
            body.append(bytes([cw.t_left | (cw.t_right << 1)]))
        return b"".join(body)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DpfKey":
        """Parse a key produced by :meth:`to_bytes`.

        Raises:
            ValueError: On a malformed or truncated buffer.
        """
        if len(data) < HEADER_BYTES:
            raise ValueError("truncated DPF key")
        magic, party, log_domain, domain_size, cw_even, cw_odd, prf_len = struct.unpack(
            _HEADER_FMT, data[:HEADER_BYTES]
        )
        # Validate the header semantics and total length up front: a
        # corrupted domain or a buffer truncated mid-correction-word
        # must fail here with a clear message, not deep inside
        # np.frombuffer, CorrectionWord.__post_init__, or — worse —
        # only once evaluation walks off the correction-word array.
        _check_header(magic, log_domain, domain_size)
        expected = _record_size(log_domain, prf_len)
        if len(data) != expected:
            raise ValueError(
                f"DPF key over 2^{log_domain} rows with a {prf_len}-byte PRF "
                f"name must be exactly {expected} bytes, got {len(data)}"
            )
        offset = HEADER_BYTES
        prf_name = data[offset : offset + prf_len].decode()
        offset += prf_len
        root_t = data[offset]
        offset += 1
        root_seed = np.frombuffer(data[offset : offset + 16], dtype=np.uint8).copy()
        offset += 16
        cws = []
        for _ in range(tree_depth(domain_size)):
            seed = np.frombuffer(data[offset : offset + 16], dtype=np.uint8).copy()
            offset += 16
            bits = data[offset]
            offset += 1
            cws.append(CorrectionWord(seed=seed, t_left=bits & 1, t_right=(bits >> 1) & 1))
        return cls(
            party=party,
            domain_size=domain_size,
            log_domain=log_domain,
            root_seed=root_seed,
            root_t=root_t,
            correction_words=cws,
            output_cw=(cw_even, cw_odd),
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
        if (key.domain_size, key.log_domain, key.prf_name) != (
            first.domain_size,
            first.log_domain,
            first.prf_name,
        ):
            raise ValueError("all keys in a batch must share the same domain and PRF")
    return b"".join(key.to_bytes() for key in keys)


def split_wire(data: bytes) -> list[bytes]:
    """Split a concatenated wire buffer into per-key records.

    Each record's size is read from its own header, so a stream of
    heterogeneous keys also frames correctly; :func:`pack_keys` output
    is the homogeneous special case.

    Every header is semantically validated (magic and version, party,
    ``domain_size``/``log_domain`` consistency) *before* its record
    length is trusted, so trailing garbage after the last well-formed
    record cannot frame as an extra record — it fails here rather than
    surviving until (or past) the per-key parse.

    Raises:
        ValueError: On bad magic, an invalid or inconsistent header, or
            a buffer that ends mid-record.
    """
    records = []
    offset = 0
    view = memoryview(data)
    while offset < len(data):
        if len(data) - offset < HEADER_BYTES:
            raise ValueError(
                f"wire buffer ends mid-header: {len(data) - offset} "
                f"trailing bytes at offset {offset}"
            )
        magic, party, log_domain, domain_size, _, _, prf_len = struct.unpack_from(
            _HEADER_FMT, data, offset
        )
        _check_header(magic, log_domain, domain_size, where=f" at offset {offset}")
        if party not in (0, 1):
            raise ValueError(f"party must be 0 or 1, got {party} at offset {offset}")
        record = _record_size(log_domain, prf_len)
        if offset + record > len(data):
            raise ValueError(
                f"wire buffer ends mid-record: need {record} bytes at "
                f"offset {offset}, have {len(data) - offset}"
            )
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

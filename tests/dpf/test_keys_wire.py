"""Wire-format arithmetic, malformed-input handling, and batch framing.

Four claims: ``DpfKey.size_bytes`` is pure arithmetic that always
matches the serializer; ``from_bytes`` rejects every malformed buffer
with a ``ValueError`` (never an exception from deep inside numpy or a
dataclass validator); every parser refuses non-canonical bytes and the
retired ``DPF1`` / ``DPF2`` layouts by name, so what parses
re-serializes to exactly the bytes it came from; and the batched
``pack_keys`` / ``split_wire`` / ``unpack_keys`` framing round-trips
exactly.
"""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import available_prfs, get_prf
from repro.dpf import (
    CorrectionWord,
    DpfKey,
    gen,
    key_size_bytes,
    pack_keys,
    split_wire,
    unpack_keys,
    wire_size,
)
from repro.gpu import KeyArena

from tests.strategies import STANDARD_SETTINGS, dpf_cases

DOMAINS = [1, 2, 3, 5, 37, 256, 1000, 1 << 13]


def _key(domain, prf_name="chacha20", seed=0, party=0):
    prf = get_prf(prf_name)
    rng = np.random.default_rng(seed)
    pair = gen(domain // 2, domain, prf, rng)
    return pair[party], prf


class TestSizeBytes:
    @pytest.mark.parametrize("prf_name", available_prfs())
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_size_bytes_matches_serialization(self, prf_name, domain):
        """The satellite claim: arithmetic size == serialized length."""
        key, _ = _key(domain, prf_name)
        assert key.size_bytes == len(key.to_bytes())

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_key_size_bytes_agrees(self, domain):
        key, prf = _key(domain)
        assert key_size_bytes(domain, prf.name) == key.size_bytes

    def test_wire_size_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="non-negative"):
            wire_size(-1)

    @pytest.mark.parametrize("prf_name", available_prfs())
    def test_every_size_source_agrees_at_every_depth(self, prf_name):
        """One number per (PRF, table size), whoever is asked: the
        arithmetic, the object, its serialization and the arena."""
        prf = get_prf(prf_name)
        rng = np.random.default_rng(15)
        for log_domain in range(21):
            domain = 1 << log_domain
            pair = gen(domain - 1, domain, prf, rng)
            size = wire_size(log_domain, prf_name)
            assert key_size_bytes(domain, prf_name) == size
            assert pair[0].size_bytes == size == len(pair[1].to_bytes())
            assert len(KeyArena.from_keys(list(pair)).to_wire()) == 2 * size
            # One 16-byte seed per doubling from the two-row root-only
            # tree up, and two control bits, packed four levels a byte;
            # a one-row table costs what a two-row one does.
            levels = max(log_domain - 1, 0)
            assert size == 42 + 16 * levels + -(-levels // 4)

    def test_benchmark_shapes(self):
        assert wire_size(10, "aes128") == 189
        assert wire_size(16, "siphash") == 286

    def test_wire_size_rejects_an_unregistered_prf(self):
        with pytest.raises(ValueError, match="unknown PRF 'rot13'"):
            wire_size(10, "rot13")


class TestFromBytesValidation:
    def test_every_truncation_raises_value_error(self):
        key, _ = _key(100)
        data = key.to_bytes()
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                DpfKey.from_bytes(data[:cut])

    def test_trailing_bytes_raise_value_error(self):
        key, _ = _key(64)
        with pytest.raises(ValueError, match="bytes"):
            DpfKey.from_bytes(key.to_bytes() + b"\x00")

    def test_bad_magic_raises_value_error(self):
        key, _ = _key(64)
        data = bytearray(key.to_bytes())
        data[:4] = b"NOPE"
        with pytest.raises(ValueError, match="magic"):
            DpfKey.from_bytes(bytes(data))

    def test_inconsistent_domain_rejected_at_parse(self):
        """A corrupted domain_size header must fail at the parse
        boundary, not as an IndexError inside evaluation: the record
        length no longer follows from it."""
        key, _ = _key(64)
        data = bytearray(key.to_bytes())
        data[6 + 2] ^= 0x10  # bump domain_size far beyond the record's depth
        with pytest.raises(ValueError, match="must be exactly"):
            DpfKey.from_bytes(bytes(data))

    def test_zero_domain_rejected_at_parse(self):
        key, _ = _key(1)
        data = bytearray(key.to_bytes())
        data[6:10] = (0).to_bytes(4, "little")
        with pytest.raises(ValueError, match="domain_size must be positive"):
            DpfKey.from_bytes(bytes(data))

    def test_every_output_correction_bit_parses_to_that_word(self):
        """The 16 bytes after the 10-byte magic/party/domain prefix are
        the two output-correction words: any flip there still parses
        and changes that word alone."""
        key, _ = _key(100)
        data = key.to_bytes()
        for bit in range(128):
            flipped = bytearray(data)
            flipped[10 + bit // 8] ^= 1 << (bit % 8)
            parsed = DpfKey.from_bytes(bytes(flipped))
            want = list(key.output_cw)
            want[bit // 64] ^= 1 << (bit % 64)
            assert parsed.output_cw == tuple(want)
            assert parsed.to_bytes() == bytes(flipped)

    def test_truncation_message_is_clear(self):
        """Mid-correction-word truncation fails at the length check, not
        inside np.frombuffer or CorrectionWord.__post_init__."""
        key, _ = _key(1000)
        data = key.to_bytes()
        with pytest.raises(ValueError, match="must be exactly"):
            DpfKey.from_bytes(data[: len(data) - 9])

    @given(case=dpf_cases(max_domain=64), cut=st.integers(0, 10_000))
    @STANDARD_SETTINGS
    def test_fuzz_truncations(self, case, cut):
        (key, _), _ = case.keys()
        data = key.to_bytes()
        cut %= len(data)
        with pytest.raises(ValueError):
            DpfKey.from_bytes(data[:cut])

    @given(case=dpf_cases(max_domain=64), bit=st.integers(0, 1 << 20))
    @STANDARD_SETTINGS
    def test_fuzz_bit_flips_never_escape_value_error(self, case, bit):
        """A flipped bit either raises ValueError or parses to a key
        whose serialization is exactly the flipped bytes: every byte is
        key material or a checked field, so no two encodings of one key
        exist and nothing a parser accepts is dropped."""
        (key, _), _ = case.keys()
        data = bytearray(key.to_bytes())
        bit %= len(data) * 8
        data[bit // 8] ^= 1 << (bit % 8)
        try:
            parsed = DpfKey.from_bytes(bytes(data))
        except ValueError:
            return
        assert parsed.to_bytes() == bytes(data)

    @given(case=dpf_cases(max_domain=64), magic=st.binary(min_size=4, max_size=4))
    @STANDARD_SETTINGS
    def test_fuzz_bad_magic(self, case, magic):
        (key, _), _ = case.keys()
        data = key.to_bytes()
        if magic == data[:4]:
            return
        with pytest.raises(ValueError, match="magic"):
            DpfKey.from_bytes(magic + data[4:])


def _dpf1_record(log_domain=6, prf_name=b"chacha20"):
    """A ``DPF1`` record: one row per leaf, so one more level and one
    output word; the PRF named by string."""
    header = struct.pack(
        "<4sBBIQB", b"DPF1", 0, log_domain, 1 << log_domain, 7, len(prf_name)
    )
    return header + prf_name + bytes(1 + 16 + 17 * log_domain)


def _dpf2_record(key):
    """``key`` as a ``DPF2`` record: the PRF named by string, a
    ``log_domain`` byte, a root control bit and a byte per level.  Byte
    for byte what ``to_bytes`` wrote at commit ec20625."""
    name = key.prf_name.encode()
    header = struct.pack(
        "<4sBBIQQB", b"DPF2", key.party, key.log_domain, key.domain_size,
        *key.output_cw, len(name),
    )
    levels = b"".join(
        cw.seed.tobytes() + bytes([cw.t_left | cw.t_right << 1])
        for cw in key.correction_words
    )
    return header + name + bytes([key.root_t]) + key.root_seed.tobytes() + levels


RETIRED = {
    "DPF1": lambda key: _dpf1_record(),
    "DPF2": _dpf2_record,
}

ALL_PARSERS = [DpfKey.from_bytes, split_wire, unpack_keys, KeyArena.from_wire]
BATCH_PARSERS = [split_wire, unpack_keys, KeyArena.from_wire]


class TestRetiredVersionsRefused:
    """``DPF1`` and ``DPF2`` records must be refused by name at every
    parser, at the head of a buffer and mid-stream, never mis-framed."""

    @pytest.mark.parametrize("parse", ALL_PARSERS)
    @pytest.mark.parametrize("version", sorted(RETIRED))
    def test_every_parser_names_the_version(self, parse, version):
        key, _ = _key(64)
        with pytest.raises(ValueError, match=f"version {version}"):
            parse(RETIRED[version](key))

    @pytest.mark.parametrize("parse", BATCH_PARSERS)
    @pytest.mark.parametrize("version", sorted(RETIRED))
    def test_refused_after_a_current_record_too(self, parse, version):
        key, _ = _key(64)
        with pytest.raises(ValueError, match=rf"at offset \d+: wire version {version}"):
            parse(key.to_bytes() + RETIRED[version](key))


class TestNonCanonicalRefused:
    """Every byte a parser reads is key material or a checked field, so
    each of these fails, named, at every parser that can see it."""

    @staticmethod
    def _flipped(offset, value, domain=100):
        key, _ = _key(domain)
        data = bytearray(key.to_bytes())
        data[offset] = value
        return key, bytes(data)

    @pytest.mark.parametrize("parse", ALL_PARSERS)
    def test_party_outside_zero_and_one(self, parse):
        _, data = self._flipped(4, 2)
        with pytest.raises(ValueError, match="party must be 0 or 1, got 2"):
            parse(data)

    @pytest.mark.parametrize("parse", ALL_PARSERS)
    @pytest.mark.parametrize("wire_id", [0, 6, 255])
    def test_unknown_prf_id(self, parse, wire_id):
        _, data = self._flipped(5, wire_id)
        with pytest.raises(ValueError, match=f"unknown PRF id {wire_id}"):
            parse(data)

    @pytest.mark.parametrize("parse", ALL_PARSERS)
    @pytest.mark.parametrize("domain", [5, 37, 100, 1000])
    def test_nonzero_padding_bits(self, parse, domain):
        """Depth 2, 5, 6 and 9: each padding bit of the last control-bit
        byte is refused on its own."""
        key, _ = _key(domain)
        data = key.to_bytes()
        used = 2 * key.depth - 8 * (-(-key.depth // 4) - 1)
        assert used < 8
        for bit in range(used, 8):
            flipped = bytearray(data)
            flipped[-1] ^= 1 << bit
            with pytest.raises(ValueError, match="non-zero padding bits"):
                parse(bytes(flipped))

    @pytest.mark.parametrize("parse", BATCH_PARSERS)
    def test_padding_bits_of_a_later_record(self, parse):
        key, _ = _key(100)
        record = bytearray(key.to_bytes())
        record[-1] |= 0x80
        with pytest.raises(ValueError, match=r"non-zero padding bits .*at offset \d+"):
            parse(key.to_bytes() * 2 + bytes(record))

    @pytest.mark.parametrize("parse", BATCH_PARSERS)
    def test_records_that_differ_in_domain(self, parse):
        a, _ = _key(64)
        b, _ = _key(1000)
        with pytest.raises(ValueError, match="same domain"):
            parse(a.to_bytes() + b.to_bytes())
        # Same depth, same record length: only the domain field differs.
        c, _ = _key(63)
        assert c.size_bytes == a.size_bytes
        with pytest.raises(ValueError, match="same domain"):
            parse(a.to_bytes() + c.to_bytes())

    @pytest.mark.parametrize("parse", BATCH_PARSERS)
    def test_records_that_differ_in_prf(self, parse):
        a, _ = _key(64, "chacha20")
        b, _ = _key(64, "highwayhash")
        with pytest.raises(ValueError, match="same PRF"):
            parse(a.to_bytes() + b.to_bytes())

    def test_object_built_key_with_root_t_not_party(self):
        key, _ = _key(64)
        fields = {f: getattr(key, f) for f in key.__dataclass_fields__}
        for root_t in (1, 7):
            with pytest.raises(ValueError, match=f"root_t must equal party 0, got {root_t}"):
                DpfKey(**{**fields, "root_t": root_t})

    def test_correction_bits_must_be_bits(self):
        key, _ = _key(64)
        seed = key.correction_words[0].seed
        with pytest.raises(ValueError, match="must be 0 or 1"):
            CorrectionWord(seed=seed, t_left=2, t_right=0)

    @pytest.mark.parametrize("domain, prf_name", [(1, "aes128"), (100, "chacha20"), (1000, "siphash")])
    def test_every_single_bit_flip_at_every_parser(self, domain, prf_name):
        """Exhaustive over the bits of three records: each parser raises,
        or yields exactly the key whose serialization is the flipped
        record — and all parsers agree on which."""
        key, _ = _key(domain, prf_name)
        data = key.to_bytes()
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            flipped = bytes(flipped)
            outcomes = []
            for parse in (DpfKey.from_bytes, split_wire, KeyArena.from_wire):
                try:
                    outcomes.append(parse(flipped))
                except ValueError:
                    outcomes.append(None)
            parsed, records, arena = outcomes
            if parsed is None:
                assert records is None and arena is None, bit
                continue
            assert parsed.to_bytes() == flipped, bit
            assert records == [flipped], bit
            assert arena == KeyArena.from_keys([parsed]), bit
            assert arena.to_wire() == flipped, bit


class TestBatchFraming:
    def test_pack_unpack_round_trip(self):
        prf = get_prf("siphash")
        rng = np.random.default_rng(3)
        keys = []
        for i in range(7):
            k0, k1 = gen(i % 100, 100, prf, rng, beta=i + 1)
            keys.append(k0 if i % 2 else k1)
        restored = unpack_keys(pack_keys(keys))
        assert [k.to_bytes() for k in restored] == [k.to_bytes() for k in keys]

    def test_split_wire_framing(self):
        key, _ = _key(64)
        wire = pack_keys([key, key, key])
        records = split_wire(wire)
        assert len(records) == 3
        assert all(r == key.to_bytes() for r in records)

    def test_split_wire_refuses_heterogeneous_records(self):
        """A wire buffer is one batch: records of another domain or PRF
        are refused by offset, not framed."""
        a, _ = _key(64, "chacha20")
        b, _ = _key(1000, "siphash")
        with pytest.raises(ValueError, match=f"same domain: the record at offset {a.size_bytes}"):
            split_wire(a.to_bytes() + b.to_bytes())

    def test_split_wire_rejects_truncation(self):
        key, _ = _key(64)
        wire = pack_keys([key, key])
        with pytest.raises(ValueError, match="mid-record|mid-header"):
            split_wire(wire[:-5])

    def test_split_wire_rejects_bad_magic(self):
        key, _ = _key(64)
        with pytest.raises(ValueError, match="magic"):
            split_wire(b"JUNK" + key.to_bytes()[4:])

    def test_pack_keys_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError, match="at least one"):
            pack_keys([])
        a, _ = _key(64)
        b, _ = _key(128)
        with pytest.raises(ValueError, match="same domain"):
            pack_keys([a, b])


class TestTrailingGarbage:
    """`split_wire`/`unpack_keys` must reject trailing garbage after the
    last well-formed record — including garbage that leads with the key
    magic, which used to frame as an extra "record" and only fail (or
    not) one layer down."""

    def test_magic_prefixed_garbage_rejected(self):
        key, _ = _key(64)
        wire = pack_keys([key, key])
        # b"DPF3" + zeros parses as a header with the reserved PRF id 0
        # and domain_size 0; the first framing accepted such bytes as a
        # record.
        garbage = b"DPF3" + bytes(32)
        with pytest.raises(ValueError, match="unknown PRF id 0"):
            split_wire(wire + garbage)
        with pytest.raises(ValueError, match="unknown PRF id 0"):
            unpack_keys(wire + garbage)

    def test_bad_party_byte_rejected_at_framing(self):
        key, _ = _key(64)
        record = bytearray(key.to_bytes())
        record[4] = 2  # party must be 0 or 1
        with pytest.raises(ValueError, match="party"):
            split_wire(key.to_bytes() + bytes(record))

    def test_short_trailing_garbage_rejected(self):
        key, _ = _key(64)
        with pytest.raises(ValueError, match="mid-header"):
            split_wire(pack_keys([key]) + b"\x01")

    @given(
        case=dpf_cases(max_domain=64),
        n_keys=st.integers(1, 3),
        garbage=st.binary(min_size=1, max_size=64),
    )
    @STANDARD_SETTINGS
    def test_fuzz_trailing_garbage_never_frames(self, case, n_keys, garbage):
        """Any non-empty garbage suffix — arbitrary bytes, a magic-
        prefixed pseudo-header, or a truncated real record — must raise
        ValueError from both framing entry points."""
        (key, _), _ = case.keys()
        wire = pack_keys([key] * n_keys)
        # A garbage suffix that is itself a well-formed record would be
        # a legitimate record, not garbage; everything else must raise.
        try:
            DpfKey.from_bytes(garbage)
        except ValueError:
            pass
        else:  # pragma: no cover - ~2^-40 per example
            return
        for parse in (split_wire, unpack_keys):
            with pytest.raises(ValueError):
                parse(wire + garbage)

    @given(case=dpf_cases(max_domain=64), cut=st.integers(1, 10_000))
    @STANDARD_SETTINGS
    def test_fuzz_truncated_extra_record_rejected(self, case, cut):
        """A valid batch followed by a *prefix* of another valid record
        is the realistic torn-stream shape; it must never frame."""
        (key, _), _ = case.keys()
        record = key.to_bytes()
        cut = cut % (len(record) - 1) + 1  # 1..len-1: a strict prefix
        with pytest.raises(ValueError):
            split_wire(pack_keys([key, key]) + record[:cut])

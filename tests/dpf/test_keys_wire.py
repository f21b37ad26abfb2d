"""Wire-format arithmetic, malformed-input handling, and batch framing.

Three claims: ``DpfKey.size_bytes`` is pure arithmetic that always
matches the serializer; ``from_bytes`` rejects every malformed buffer
with a ``ValueError`` (never an exception from deep inside numpy or a
dataclass validator); and the batched ``pack_keys`` / ``split_wire`` /
``unpack_keys`` framing round-trips exactly.
"""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import available_prfs, get_prf
from repro.dpf import (
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
            # One 17-byte level per doubling, from the two-row root-only
            # tree up; a one-row table costs what a two-row one does.
            levels = max(log_domain - 1, 0)
            assert size == wire_size(0, prf_name) + 17 * levels

    def test_benchmark_shapes(self):
        assert wire_size(10, "aes128") == 203
        assert wire_size(16, "siphash") == 306


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
        boundary, not as an IndexError inside evaluation."""
        key, _ = _key(64)
        data = bytearray(key.to_bytes())
        data[6 + 2] ^= 0x10  # bump domain_size far beyond 2**log_domain
        with pytest.raises(ValueError, match="inconsistent"):
            DpfKey.from_bytes(bytes(data))

    def test_zero_domain_rejected_at_parse(self):
        key, _ = _key(1)
        data = bytearray(key.to_bytes())
        data[6:10] = (0).to_bytes(4, "little")
        with pytest.raises(ValueError, match="inconsistent"):
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
        """A flipped bit either still parses (e.g. inside a seed) or
        raises ValueError — never an unrelated exception type."""
        (key, _), _ = case.keys()
        data = bytearray(key.to_bytes())
        bit %= len(data) * 8
        data[bit // 8] ^= 1 << (bit % 8)
        try:
            parsed = DpfKey.from_bytes(bytes(data))
        except ValueError:
            return
        # Anything that parses (a flip in a seed, say) must yield a
        # well-formed key whose own serialization round-trips; unused
        # high bits of a control-bit byte are dropped by design.
        assert DpfKey.from_bytes(parsed.to_bytes()).to_bytes() == parsed.to_bytes()

    @given(case=dpf_cases(max_domain=64), magic=st.binary(min_size=4, max_size=4))
    @STANDARD_SETTINGS
    def test_fuzz_bad_magic(self, case, magic):
        (key, _), _ = case.keys()
        data = key.to_bytes()
        if magic == data[:4]:
            return
        with pytest.raises(ValueError, match="magic"):
            DpfKey.from_bytes(magic + data[4:])


class TestUnpackedVersionRefused:
    """A ``DPF1`` record (one row per leaf: one more level, one output
    word) must be refused by name at every parser, never mis-framed."""

    @staticmethod
    def _dpf1_record(log_domain=6, prf_name=b"chacha20"):
        header = struct.pack(
            "<4sBBIQB", b"DPF1", 0, log_domain, 1 << log_domain, 7, len(prf_name)
        )
        return header + prf_name + bytes(1 + 16 + 17 * log_domain)

    @pytest.mark.parametrize(
        "parse", [DpfKey.from_bytes, split_wire, unpack_keys, KeyArena.from_wire]
    )
    def test_every_parser_names_the_version(self, parse):
        with pytest.raises(ValueError, match="version DPF1"):
            parse(self._dpf1_record())

    def test_refused_after_a_current_record_too(self):
        key, _ = _key(64)
        with pytest.raises(ValueError, match=r"at offset \d+: wire version DPF1"):
            split_wire(key.to_bytes() + self._dpf1_record())


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

    def test_split_wire_handles_heterogeneous_records(self):
        a, _ = _key(64, "chacha20")
        b, _ = _key(1000, "siphash")
        records = split_wire(a.to_bytes() + b.to_bytes())
        assert [len(r) for r in records] == [a.size_bytes, b.size_bytes]

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
        # b"DPF2" + zeros parses as a header with domain_size 0; the
        # old framing accepted it as a 36-byte record.
        garbage = b"DPF2" + bytes(32)
        with pytest.raises(ValueError, match="inconsistent"):
            split_wire(wire + garbage)
        with pytest.raises(ValueError, match="inconsistent"):
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

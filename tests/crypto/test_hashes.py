"""SHA-256, ChaCha20, SipHash, HighwayHash known-answer and property tests."""

import hashlib

import numpy as np
import pytest

from repro.crypto.chacha20 import ChaCha20Prf, chacha20_keystream, quarter_round
from repro.crypto.highwayhash import HighwayHashPrf
from repro.crypto.sha256 import Sha256Prf, sha256
from repro.crypto import siphash
from repro.crypto.siphash import SipHashPrf, siphash24


class TestSha256:
    def test_abc_vector(self):
        assert (
            sha256(b"abc").hex()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_empty_vector(self):
        assert sha256(b"") == hashlib.sha256(b"").digest()

    @pytest.mark.parametrize("length", [0, 1, 55, 56, 63, 64, 65, 200])
    def test_matches_hashlib_across_padding_boundaries(self, length):
        msg = bytes(range(256))[:length] * 1
        assert sha256(msg) == hashlib.sha256(msg).digest()

    def test_prf_matches_digest_construction(self):
        prf = Sha256Prf()
        seed = np.arange(16, dtype=np.uint8).reshape(1, 16)
        out = prf.expand(seed, 7)
        expected = hashlib.sha256(
            seed.tobytes() + (7).to_bytes(4, "big")
        ).digest()[:16]
        assert out.tobytes() == expected


class TestChaCha20:
    def test_rfc8439_quarter_round(self):
        state = np.zeros((1, 16), dtype=np.uint32)
        state[0, 0] = 0x11111111
        state[0, 1] = 0x01020304
        state[0, 2] = 0x9B8D6F43
        state[0, 3] = 0x01234567
        quarter_round(state, 0, 1, 2, 3)
        assert state[0, 0] == 0xEA2A92F4
        assert state[0, 1] == 0xCB1CF8CE
        assert state[0, 2] == 0x4581472E
        assert state[0, 3] == 0x5881C4BB

    def test_rfc8439_block_function(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        stream = chacha20_keystream(key, 1, nonce, 64)
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e"
        )
        assert stream == expected

    def test_keystream_is_deterministic_and_extending(self):
        key = bytes(32)
        nonce = bytes(12)
        short = chacha20_keystream(key, 0, nonce, 32)
        long = chacha20_keystream(key, 0, nonce, 96)
        assert long[:32] == short

    def test_prf_shape(self):
        prf = ChaCha20Prf()
        out = prf.expand(np.zeros((5, 16), dtype=np.uint8), 3)
        assert out.shape == (5, 16)


class TestSipHash:
    def test_reference_vector_empty_message(self):
        # From the SipHash reference implementation vectors
        # (key = 00..0f, empty message).
        key = bytes(range(16))
        assert siphash24(key, b"") == 0x726FDB47DD0E0E31

    def test_reference_vector_one_byte(self):
        key = bytes(range(16))
        assert siphash24(key, b"\x00") == 0x74F839C593DC67FD

    def test_reference_vector_eight_bytes(self):
        key = bytes(range(16))
        assert siphash24(key, bytes(range(8))) == 0x93F5F5799A932462

    def test_batch_matches_scalar(self):
        prf = SipHashPrf()
        rng = np.random.default_rng(3)
        seeds = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        out = prf.expand(seeds, 5)
        for i in range(16):
            lo = siphash24(seeds[i].tobytes(), (10).to_bytes(8, "little"))
            hi = siphash24(seeds[i].tobytes(), (11).to_bytes(8, "little"))
            expected = lo.to_bytes(8, "little") + hi.to_bytes(8, "little")
            assert out[i].tobytes() == expected

    @staticmethod
    def _scalar_block(seed, tweak):
        """One PRF block through the scalar KAT path."""
        return b"".join(
            siphash24(seed.tobytes(), word.to_bytes(8, "little")).to_bytes(8, "little")
            for word in (2 * tweak, 2 * tweak + 1)
        )

    @staticmethod
    def _allocating_blocks(seeds, tweak):
        """The scalar path's own round function over all seeds at once:
        no chunks, no scratch, a fresh array per step."""
        k0, k1 = seeds.view("<u8")[:, 0], seeds.view("<u8")[:, 1]
        macs = []
        for word in (np.uint64(2 * tweak), np.uint64(2 * tweak + 1)):
            v = [k0 ^ siphash._V0, k1 ^ siphash._V1, k0 ^ siphash._V2, k1 ^ siphash._V3]
            for block in (word, np.uint64(8 << 56)):
                v[3] = v[3] ^ block
                v = list(siphash._sipround(*siphash._sipround(*v)))
                v[0] = v[0] ^ block
            v[2] = v[2] ^ np.uint64(0xFF)
            for _ in range(4):
                v = list(siphash._sipround(*v))
            macs.append(v[0] ^ v[1] ^ v[2] ^ v[3])
        return np.stack(macs, axis=1).view(np.uint8)

    @pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 8195])
    def test_in_place_prg_matches_the_scalar_path_around_the_chunk(self, count):
        # One seed, the chunk boundary on both sides, and two chunks
        # plus a ragged tail.  ``siphash24`` itself costs ~0.3 ms a block,
        # so it checks the rows where a chunking bug would show (the
        # ends of the call, both sides of every seam) and its round
        # function, run over whole arrays, checks every row.
        assert siphash._CHUNK == 4096
        prf = SipHashPrf()
        seeds = np.random.default_rng(count).integers(0, 256, size=(count, 16), dtype=np.uint8)
        expected = [self._allocating_blocks(seeds, tweak) for tweak in (0, 1)]
        stacked = prf.expand_pair_stacked(seeds)
        assert stacked.dtype == np.uint8
        assert np.array_equal(stacked, np.concatenate(expected))
        for tweak in (0, 1):
            assert np.array_equal(prf.expand(seeds, tweak), expected[tweak])
        seams = {0, count - 1} | {
            row for seam in (4096, 8192) for row in (seam - 1, seam) if row < count
        }
        for row in sorted(seams):
            for tweak in (0, 1):
                assert stacked[tweak * count + row].tobytes() == self._scalar_block(
                    seeds[row], tweak
                )

    def test_seeds_may_be_read_only_or_strided_and_are_not_mutated(self):
        prf = SipHashPrf()
        rng = np.random.default_rng(8)
        wide = rng.integers(0, 256, size=(600, 2, 16), dtype=np.uint8)
        strided = wide[:, 1]  # every other 16-byte block
        assert not strided.flags.c_contiguous
        frozen = strided.copy()
        frozen.setflags(write=False)
        before = wide.copy()
        for call in (prf.expand_pair_stacked, lambda s: prf.expand(s, 3)):
            assert np.array_equal(call(strided), call(frozen))
            assert np.array_equal(call(frozen), call(strided.copy()))
        assert np.array_equal(wide, before)

    def test_output_is_fresh_and_writable(self):
        # ``expand_pair`` callers correct the children in place, and the
        # scratch is reused by the next call: neither may alias a result.
        prf = SipHashPrf()
        seeds = np.random.default_rng(9).integers(0, 256, size=(100, 16), dtype=np.uint8)
        first = prf.expand_pair_stacked(seeds)
        kept = first.copy()
        second = prf.expand_pair_stacked(seeds[::-1])
        assert first.flags.writeable and first.flags.c_contiguous
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        first[:] = 0
        assert np.array_equal(prf.expand_pair_stacked(seeds), kept)

    def test_concurrent_expansion_is_bit_exact(self):
        # The round scratch is thread-local for the reason AES's is:
        # any caller may expand on two threads.  5,000 and 9,000 seeds
        # cross one and two chunk seams, so a thread is switched out
        # between chunks too.
        import sys
        import threading

        prf = SipHashPrf()
        rng = np.random.default_rng(10)
        jobs = [(7, 40), (300, 40), (5000, 5), (9000, 5)]
        inputs = [rng.integers(0, 256, size=(n, 16), dtype=np.uint8) for n, _ in jobs]
        expected = [prf.expand_pair_stacked(seeds) for seeds in inputs]
        failures = []
        barrier = threading.Barrier(len(jobs))

        def worker(index):
            barrier.wait()
            for _ in range(jobs[index][1]):
                if not np.array_equal(prf.expand_pair_stacked(inputs[index]), expected[index]):
                    failures.append(index)
                    return

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, f"threads {failures} saw corrupted blocks"


class TestHighwayHash:
    def test_deterministic(self):
        prf = HighwayHashPrf()
        seeds = np.arange(32, dtype=np.uint8).reshape(2, 16)
        assert np.array_equal(prf.expand(seeds, 0), prf.expand(seeds, 0))

    def test_tweak_separation(self):
        prf = HighwayHashPrf()
        seeds = np.zeros((4, 16), dtype=np.uint8)
        assert not np.array_equal(prf.expand(seeds, 0), prf.expand(seeds, 1))

    def test_distinct_seeds_distinct_outputs(self):
        prf = HighwayHashPrf()
        rng = np.random.default_rng(4)
        seeds = rng.integers(0, 256, size=(512, 16), dtype=np.uint8)
        seeds = np.unique(seeds, axis=0)
        out = prf.expand(seeds, 0)
        assert np.unique(out, axis=0).shape[0] == seeds.shape[0]

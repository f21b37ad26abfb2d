"""AES-128 known-answer and structural tests."""

import numpy as np
import pytest

from repro.crypto import aes
from repro.crypto.aes import (
    SBOX,
    SHIFT_ROWS_PERM,
    Aes128,
    aes128_encrypt_blocks,
    aes128_encrypt_blocks_reference,
    expand_key,
)


def _encrypt_one(key_hex: str, pt_hex: str) -> str:
    round_keys = expand_key(bytes.fromhex(key_hex))
    block = np.frombuffer(bytes.fromhex(pt_hex), dtype=np.uint8).reshape(1, 16)
    return aes128_encrypt_blocks(round_keys, block).tobytes().hex()


class TestKnownAnswers:
    def test_fips197_appendix_c(self):
        # FIPS-197 Appendix C.1 example vector.
        assert (
            _encrypt_one(
                "000102030405060708090a0b0c0d0e0f",
                "00112233445566778899aabbccddeeff",
            )
            == "69c4e0d86a7b0430d8cdb78070b4c55a"
        )

    def test_fips197_appendix_b(self):
        # FIPS-197 Appendix B worked example.
        assert (
            _encrypt_one(
                "2b7e151628aed2a6abf7158809cf4f3c",
                "3243f6a8885a308d313198a2e0370734",
            )
            == "3925841d02dc09fbdc118597196a0b32"
        )


class TestSboxProperties:
    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX.tolist()) == list(range(256))

    def test_sbox_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_has_no_fixed_points(self):
        assert not np.any(SBOX == np.arange(256, dtype=np.uint8))

    def test_shift_rows_is_a_permutation(self):
        assert sorted(SHIFT_ROWS_PERM.tolist()) == list(range(16))


class TestRoundTables:
    def test_every_pair_entry_follows_the_index_formula(self):
        """Entry ``p = lo | hi << 8`` of each table, all 65,536 of them."""
        t0, t1, t2, t3 = aes._build_t_tables()
        s = SBOX.astype(np.uint32)
        pair = np.arange(65536)
        lo, hi = pair & 0xFF, pair >> 8
        want = (t0[lo] ^ t1[hi], t2[lo] ^ t3[hi])
        final = s[lo] | (s[hi] << np.uint32(8))
        tables = aes._round_tables()
        assert len(tables) == 10
        for mix in tables[:9]:
            for got, ref in zip(mix, want):
                assert got.dtype == np.uint32 and got.shape == (65536,)
                assert np.array_equal(got, ref)
        for got in tables[9]:
            assert got.dtype == np.uint32 and np.array_equal(got, final)


class TestKeySchedule:
    def test_shape(self):
        rks = expand_key(bytes(16))
        assert rks.shape == (11, 16)
        assert rks.dtype == np.uint8

    def test_first_round_key_is_the_cipher_key(self):
        key = bytes(range(16))
        rks = expand_key(key)
        assert rks[0].tobytes() == key

    def test_rejects_wrong_key_size(self):
        with pytest.raises(ValueError):
            expand_key(bytes(15))


class TestBatchConsistency:
    def test_batch_matches_singles(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 256, size=(64, 16), dtype=np.uint8)
        rks = expand_key(bytes(range(16)))
        batch = aes128_encrypt_blocks(rks, blocks)
        for i in range(blocks.shape[0]):
            single = aes128_encrypt_blocks(rks, blocks[i : i + 1])
            assert np.array_equal(batch[i], single[0])

    def test_encryption_is_injective_on_sample(self):
        rng = np.random.default_rng(1)
        blocks = rng.integers(0, 256, size=(256, 16), dtype=np.uint8)
        blocks = np.unique(blocks, axis=0)
        rks = expand_key(bytes(range(16)))
        out = aes128_encrypt_blocks(rks, blocks)
        assert np.unique(out, axis=0).shape[0] == blocks.shape[0]


class TestInputValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((4, 8), dtype=np.uint8),
            np.zeros(16, dtype=np.uint8),
            np.zeros((2, 4, 16), dtype=np.uint8),
            np.zeros((4, 16), dtype=np.uint32),
        ],
    )
    def test_wrong_shape_or_dtype_is_named_at_entry(self, bad):
        rks = expand_key(bytes(16))
        with pytest.raises(ValueError, match=r"\(N, 16\) uint8") as info:
            aes128_encrypt_blocks(rks, bad)
        assert str(bad.shape) in str(info.value)


class TestAesPrf:
    def test_expand_shape_and_dtype(self):
        prf = Aes128()
        seeds = np.zeros((8, 16), dtype=np.uint8)
        out = prf.expand(seeds, 0)
        assert out.shape == (8, 16)
        assert out.dtype == np.uint8

    def test_tweaks_are_domain_separated(self):
        prf = Aes128()
        seeds = np.zeros((4, 16), dtype=np.uint8)
        assert not np.array_equal(prf.expand(seeds, 0), prf.expand(seeds, 1))

    def test_expand_does_not_mutate_seeds(self):
        prf = Aes128()
        seeds = np.arange(32, dtype=np.uint8).reshape(2, 16)
        before = seeds.copy()
        prf.expand(seeds, 1)
        assert np.array_equal(seeds, before)

    def test_rejects_bad_shape(self):
        prf = Aes128()
        with pytest.raises(ValueError):
            prf.expand(np.zeros((4, 8), dtype=np.uint8), 0)


class TestThreadSafety:
    def test_concurrent_encryption_is_bit_exact(self):
        # The chunk scratch is thread-local: any caller may expand on
        # two threads, so two expansions can encrypt concurrently in
        # one process.  Shared scratch let those scribble over each
        # other's round state (every answer of a two-threaded aes128
        # burst came back wrong); per-thread buffers must keep every
        # concurrent call bit-exact.  5,000 and 9,000 blocks cross one
        # and two chunk boundaries, so a thread is switched out between
        # chunks too.
        import sys
        import threading

        rng = np.random.default_rng(0)
        rks = expand_key(bytes(range(16)))
        jobs = [(1, 50), (7, 50), (64, 50), (256, 50), (5000, 6), (9000, 6)]
        inputs = [
            rng.integers(0, 256, size=(batch, 16), dtype=np.uint8)
            for batch, _ in jobs
        ]
        expected = [aes128_encrypt_blocks_reference(rks, blocks) for blocks in inputs]

        failures = []
        barrier = threading.Barrier(len(jobs))

        def worker(index):
            barrier.wait()  # maximize real overlap between threads
            for _ in range(jobs[index][1]):
                got = aes128_encrypt_blocks(rks, inputs[index])
                if not np.array_equal(got, expected[index]):
                    failures.append(index)
                    return

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))
        ]
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
        assert not failures, f"threads {failures} saw corrupted ciphertext"

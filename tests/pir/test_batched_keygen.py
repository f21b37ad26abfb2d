"""The client's batched key generation, seen from the wire.

One tree walk now produces every key of a ``query`` / ``query_many``
call.  What a server, a recorded fixture or a seeded benchmark can see
of that must not have moved: the frames for a given generator are
pinned (they carried the per-index loop's keys when recorded, and the
keys have not moved since), a failed call consumes nothing, and a whole
pool costs one tree's depth of cipher calls.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import available_prfs, get_prf
from repro.crypto.prf import CountingPrf
from repro.dpf.ggm import tree_depth
from repro.pir import PirClient, PirServer
from repro.serve import ShardedPirServer

from tests.strategies import (
    STANDARD_SETTINGS,
    awkward_domain_sizes,
    fast_prf_names,
    rng_seeds,
)

GOLDEN_CASES = (
    # (domain, keys, queries_per_request, seed)
    (1, 2, 1, 11),
    (2, 3, 2, 12),
    (3, 4, 4, 13),
    (5, 7, 3, 14),
    (1000, 7, 2, 15),
    (1024, 8, 1, 16),
    (4097, 5, 4, 17),
    (65536, 6, 4, 18),
)

GOLDEN_DIGESTS = {
    "aes128": (
        "2233ea3130e02a6ef2347a4fd1709fa798796b1e1a857c0111f458ef53dfebe9",
        "2aa98c5032dd946a8315bc26cc8aa47ea73dcf71ac51598f63497c44294253ab",
        "0f2ef19860af82862b500431cebe7ccba10b66a833795280df95926fe8b8b334",
        "a072cc20c3ae63c68414aef9c079cc57991162a063670c2905677e2f0ddf7642",
        "faab1a3e3b90d30baef0d18512e03b0525c30180bd2a19888a7ac105d6ae3221",
        "31b3cef42ea169b62b0ac7e8d446f7f8f2be575ca7033d204a7f177790558b87",
        "e6ac096bbbda58f3be43d2dd322af70e5b1229285aea3285afb6d07a76f42752",
        "00771b56fadd5ab4d4b7438ef45f9e73b2b2bca6295489c5b08111b94626c23c",
    ),
    "chacha20": (
        "679cec26de7755909076e960c0aadbd539cfef64b6f745f24b523aa763d8d9b3",
        "37c4ae3b426ed16f3df81a71972c539fc1f475601378bad4512f203566c5919d",
        "2d98cea25a3c51f3f93cee014f04e5fa1826dfc58b99b8a4aaca039132db96b7",
        "b77510af7bb930c67d6cfcfe1884d75a873d7f5e26b60927863cf2da6b1bc640",
        "b17c64b27c1d3647de4cf0d715a5555c43f623feb8ab8724a09124cf55358db1",
        "3d1a67be5157e8a8b324f836697d5c02f13f49da1185574f74a7d125911ee001",
        "de232fe9fe9fe3178f99d94a1397a6f5270c85aa875088b80f5f6184caf84898",
        "6c35a19cf4dcc22046a17b6766e4c943ec14175a95b27beb7f9000b0804f5674",
    ),
    "highwayhash": (
        "3950b4130dc34487db5afbbf7e706766c0320d6cad310582b8dce1c34d57cb44",
        "6aef91b2ba4c64ffbe089f484d489aabe5d188208e24c2c6361274ddaf3ff067",
        "98040014630740b0ea8060d6babba35607d7e730078dfec0a731a01475cb677f",
        "f97ab2157ffaefb86a845be76ae4d63b111ff516aa8b18520362de58fd6ba42a",
        "7aa07ab73a1938d8082c3350ce1189737aea1a0beabe862452d4273a250928b0",
        "eb324c4ac755cfe03725480ca8b1fc0f1f6c6343f9720192aa11182b807a0fa4",
        "174475fd06321be5f4fe4ee4d936927ae0a99a41876e92619632e7042bb310fc",
        "9cae5740843e88cf80e1eb995fa4ed06d0febc0fe7f017c000ee736b5b1b9a73",
    ),
    "sha256": (
        "0eb853b009dc4bdcfbe45feb21986b1421a26b5ba6cae7207f44455aa9679327",
        "18dbe265780430e398595c53b01cd7f30aefbc727d94d31a1950253c1ea5382f",
        "2d759b6a99af9ac4ec576b9d51c5932cf43c7eb7716c22523fba39e81c423000",
        "235040a9e87825356f37147cd60db09d9da20de5d136771b41005524c9f6b5a2",
        "207716608d91c2e694b689de18c073e3e908a60f126dc70c137bbd0b299fdbdb",
        "b75e1bbd3468b38d8eba9d71eff9c83b4087aad4aca4a46bfcaa52a18302a032",
        "6c80ec48fdff8f0c0ff369cf30fd5303371e2aea85f0e4cd16dfb8fe80b3eab0",
        "5b09e24f835551378306b61f4279ca38727e6ef85d79b90ce59add385e8d3511",
    ),
    "siphash": (
        "ff02168ba0e6419ff5c08bdbae06f00fa6bb17e6a65337fc71f3ca6f582f15e2",
        "a06cc28102f792a691da933fadb5840fd17493bab4d62f6b834c6d21f4de9d77",
        "a8abe2217845a7c3e7f47ff85749c552f4615d38fe8654c1e9b696f1f978f1fc",
        "636d091999189613c322873e02b81c3420165236ffc17fbfc71229ece6b59b9c",
        "be814c543a25f8cecbf88c08f0510867872c25229d29e336f39eca5c171be7d1",
        "d630a30d24907fd5f366bd12fc1d01a758260987f8b0add3b3f32c666c4f361f",
        "f9da8b21dd6d8e005b84777f000541d232f3718f242409dc88e4f20673a86357",
        "26abfcc69e13b02d46ec85134aeb02ffb14fc7986a4dbae81c88dd37e4812e63",
    ),
}
"""``_pool_digest`` of each :data:`GOLDEN_CASES` row.  First recorded at
commit 8fd280a, the last one whose client called ``gen`` once per index;
re-recorded once when the records became ``DPF3`` in v3 frames, with
the keys themselves pinned unchanged as arrays
(``tests/dpf/test_key_arrays_stable.py``)."""


def _pool_digest(prf_name, domain, keys, per_request, seed):
    """SHA-256 over every frame of a seeded pool, then 16 more bytes of
    the generator, so its position after the call is pinned too."""
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, domain, size=keys)
    client = PirClient(domain, prf_name, rng=rng)
    digest = hashlib.sha256()
    for batch in client.query_many(indices, queries_per_request=per_request):
        for frame in batch.requests:
            digest.update(frame)
    digest.update(rng.bytes(16))
    return digest.hexdigest()


@pytest.mark.parametrize("name", available_prfs())
def test_frames_match_the_per_index_loop_they_replaced(name):
    got = tuple(_pool_digest(name, *case) for case in GOLDEN_CASES)
    assert got == GOLDEN_DIGESTS[name]


@st.composite
def pool_cases(draw):
    domain = draw(awkward_domain_sizes())
    return {
        "domain": domain,
        "indices": draw(st.lists(st.integers(0, domain - 1), min_size=1, max_size=9)),
        "per_request": draw(st.integers(1, 4)),
        "prf": draw(fast_prf_names),
        "seed": draw(rng_seeds),
        "shards": draw(st.sampled_from([None, 2, 3])),
    }


@given(case=pool_cases())
@STANDARD_SETTINGS
def test_query_many_is_the_query_sequence_and_round_trips(case):
    domain, indices, step = case["domain"], case["indices"], case["per_request"]
    pooled, looped = (
        PirClient(domain, case["prf"], rng=np.random.default_rng(case["seed"]))
        for _ in range(2)
    )
    pool = pooled.query_many(indices, queries_per_request=step)
    sequence = [looped.query(indices[i : i + step]) for i in range(0, len(indices), step)]
    assert pool == sequence
    assert pooled.rng.bit_generator.state == looped.rng.bit_generator.state

    table = np.random.default_rng(case["seed"]).integers(
        0, 1 << 64, size=domain, dtype=np.uint64
    )
    if case["shards"] is None or case["shards"] > domain:
        servers = [PirServer(table, prf_name=case["prf"]) for _ in range(2)]
    else:
        servers = [
            ShardedPirServer(table, shards=case["shards"], prf_name=case["prf"])
            for _ in range(2)
        ]
    for batch in pool:
        replies = [server.handle(frame) for server, frame in zip(servers, batch.requests)]
        assert np.array_equal(
            pooled.reconstruct(batch, *replies), table[list(batch.indices)]
        )


class TestAFailedCallConsumesNothing:
    """A bad index anywhere fails the call before any draw or id."""

    CALLS = {
        "query": lambda client, indices: client.query(indices),
        "query_many": lambda client, indices: client.query_many(indices, 2),
        "generate_keys": lambda client, indices: client.generate_keys(indices),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize(
        "indices, match",
        [
            ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 64, 13], "alpha=64 out of range for domain of 64"),
            ([5, -1], "alpha=-1 out of range for domain of 64"),
            ([], "need at least one query index"),
        ],
    )
    def test_rng_and_request_id_are_untouched(self, call, indices, match):
        client = PirClient(64, "siphash", rng=np.random.default_rng(9))
        client.query([1])
        state = client.rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            self.CALLS[call](client, indices)
        assert client.rng.bit_generator.state == state
        assert client.query([2]).request_id == 1

    def test_bad_grouping_is_rejected_first(self):
        client = PirClient(64, "siphash", rng=np.random.default_rng(9))
        state = client.rng.bit_generator.state
        with pytest.raises(ValueError, match="queries_per_request must be positive"):
            client.query_many([1, 2], queries_per_request=0)
        assert client.rng.bit_generator.state == state
        assert client.query([2]).request_id == 0


def test_a_pool_costs_one_tree_depth_of_cipher_calls():
    """The CI count step: 256 indices at L = 2^10 walk the tree once."""
    depth = tree_depth(1024)
    assert depth == 9
    prf = CountingPrf(get_prf("aes128"))
    client = PirClient(1024, prf, rng=np.random.default_rng(1))
    assert len(client.query_many(range(256))) == 256
    assert (prf.calls, prf.blocks) == (depth, 2 * 2 * 256 * depth)
    prf.reset()
    client.query(7)
    assert (prf.calls, prf.blocks) == (depth, 2 * 2 * depth)

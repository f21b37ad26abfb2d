"""The client's batched key generation, seen from the wire.

One tree walk now produces every key of a ``query`` / ``query_many``
call.  What a server, a recorded fixture or a seeded benchmark can see
of that must not have moved: the frames for a given generator are the
bytes the per-index loop produced, a failed call consumes nothing, and
a whole pool costs one tree's depth of cipher calls.
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
        "c6c44a195a8cae9ebb8ec1596b207dbd467d6adfc372f20d9658807e7b9bd69a",
        "fe37c14fc0d644ca3a06375e492e00f6e08d8504d7c4c04d70ab1ada3489d569",
        "a2b679c6598d93a869416f15a63ac81da6c3d16da76629eeaddb75f85e452dae",
        "09244ac484048b1df45aaece213499bdd539aa3de6221d70ef1aebdb731d9bf6",
        "99bf79229338a0698d0c5e1314997758d28164c6b19d6036a21101d0378b5cb0",
        "6387435ccdccf6ef5a06c79211ef5993fd3860335e91c4e865f48abe0027fb91",
        "1de094fcf361a4ef99696aefc1d3b198b5bc02bebf17c70a717f6b9c67cdb5cd",
        "a8a92e24fcb5abfd6fe15bba6780553f0b35ee4ac10f046a62e183c11b5f484a",
    ),
    "chacha20": (
        "e55a9555842cb3a6c1d8a7a1da9b3d7b59ee6dc25bad5e177ed0c2f72a0b358f",
        "f47a33a89bffd088b5f8ab184b78f00d29ae35ffb4982b524f3cae855b504e94",
        "73d2ef513ca74276e31eb2862e98796fc437c56b4568057e4bf1a00c9a6ba7d7",
        "249261ced3d5600c8bf0195a18e1849b721ee3ff9077544b1fe57ad98bb667d0",
        "fef8c0826e83dc1c90fe57ba987ad1894d130448f24b7719f33b05f2912618d8",
        "8dd96322d96d1a9e0398f8df401555bd44d3006ec2ddfd2afd526af63f2d054f",
        "01fd8c43dc482b2cf77e559dfb39a49a471a9786b74b43ec3d1a9032b564c354",
        "db50f28ff2bbd8210cb1ea1987df44b75aa3dad134c983861bfc7d542afc9e61",
    ),
    "highwayhash": (
        "6a64390aca6591b86aba50dd7bc5d2ae461b5541b4a3ee5ff47f2ac7eb2f5a1f",
        "ef64af02c22178536c8948a54547b61981e8a2e090bd7f8be5d7a8c05868f2f6",
        "9a933c36c043b6be9a7b23d40c69b935400d2884ae0c8b3bd71a6cabd6379f3d",
        "67e524e68b87db56567ca65aca86d4b574b971376ef43fd3066773a2bf29c7b4",
        "d8dd6c6d2203b90a9e8a8ee0082226a6b91b6a761b2cab9b6691aad1def25953",
        "dcfde64f0cc362f8145bfb0f9cbec6c4c6c705e78ba4a5c4046040f23768e4dc",
        "42ff02e7a4ebae09ea797672917c022931358954609af2bb92ba2f69acbdde6b",
        "ffe20bde932b4b916fa61d2088a1bae0a3e361477a3a6e4598bda56acfdf92b2",
    ),
    "sha256": (
        "4e56b4bcd981a8d8b4a2e6ae669a21ca3f06b94401e2924a41e89f6ddbb65bb7",
        "c7cdd59ac037f9e072931db44979c04bf760e70c648109f67d35aa2580e972a4",
        "c62c52dd96be21ab9bbfddc7f32ab2a768a3181fdd4a368a456c2fb759672a83",
        "c639edade4ac8ac217954330f677e1680df3c88c0f5eb6c9837b11a4cffe3e6a",
        "829d4b72321b7919ff309cae85144bc792f9a6c6d0434053c73e1d966a1729b8",
        "ad735fd6bbd16271d8a5b7f43055c47a5ac99f4703442a39fc6d61c23c3e2085",
        "23a9f679ef383f3ab784cf715e5bc44981b0272ee4354bd4b34a6d34ce313261",
        "243b6e548cae10a6b1e40e459c5c45c2db2ca1fa7e8a7d0ca3ec6d1766afbdc1",
    ),
    "siphash": (
        "cb60184739e9c48c3c42c5605f46fc336f82e76257cdeccf42df9cd3199d5d3e",
        "b11c937af3ddd248809659b7ee60d391712f8e151cb63c7c28a90b867d617513",
        "45deb2893f521e002315ef0cf83868cafa40ee5e2b64db6a84e434c605e95b76",
        "698d5621323bee9c21cee94e31bad85453a643a3b8e3c41180b84928d79770a8",
        "3b998a1805ccde075c465ef8aaba31a9db2e0309242f98dcceafc61e2b23df35",
        "ea22f3c8d5e69c49c33dbc8a6b36e51539b8b248b212843bb43ce811e0a44d1c",
        "3f221a1987975217e41001e14138f0e8d20ed58024453b0ceeb31459023dcb1b",
        "8c8b6a0b4c5001272aae8e0f879faa36a4ee3fb2bfa976353505d044160c8674",
    ),
}
"""``_pool_digest`` of each :data:`GOLDEN_CASES` row, recorded at commit
8fd280a — the last one whose client called ``gen`` once per index."""


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

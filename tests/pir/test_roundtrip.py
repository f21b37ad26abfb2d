"""The end-to-end two-server PIR round trip is bit-exact.

The tentpole property: for random tables and random index sets,
``client -> wire -> two servers -> reconstruction`` returns *exactly*
the table entries — under both object ingestion and wire ingestion, on
every backend of the shared pool (single-GPU and the simulated
oracle).  Each (backend, ingest) pair runs the full Hypothesis property
with shapes drawn per example, so the whole {object, wire} x backend
grid is exercised.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import available_prfs, get_prf
from repro.dpf import gen
from repro.pir import PirClient, PirQuery, PirServer

from tests.strategies import BACKEND_FACTORIES, domain_sizes, fast_prf_names

ROUNDTRIP_SETTINGS = settings(max_examples=10, deadline=None)
"""Fewer examples than STANDARD_SETTINGS: each example runs two full
server evaluations per mode, and the test is parametrized over the
backend x ingest grid."""


@st.composite
def pir_cases(draw):
    domain = draw(domain_sizes(max_size=128))
    indices = draw(
        st.lists(st.integers(0, domain - 1), min_size=1, max_size=4)
    )
    return {
        "domain": domain,
        "indices": indices,
        "prf": draw(fast_prf_names),
        "table_seed": draw(st.integers(0, 2**32 - 1)),
        "key_seed": draw(st.integers(0, 2**32 - 1)),
    }


def _setup(case, backend_name):
    rng = np.random.default_rng(case["table_seed"])
    table = rng.integers(0, 1 << 64, size=case["domain"], dtype=np.uint64)
    servers = [
        PirServer(
            table, backend=BACKEND_FACTORIES[backend_name](), prf_name=case["prf"]
        )
        for _ in range(2)
    ]
    client = PirClient(
        case["domain"], case["prf"], rng=np.random.default_rng(case["key_seed"])
    )
    return table, servers, client


@pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
class TestRoundTripIsBitExact:
    @given(case=pir_cases())
    @ROUNDTRIP_SETTINGS
    def test_wire_ingest(self, backend_name, case):
        """Framed protocol: query frames in, reply frames out."""
        table, servers, client = _setup(case, backend_name)
        batch = client.query(case["indices"])
        got = client.reconstruct(
            batch,
            servers[0].handle(batch.requests[0]),
            servers[1].handle(batch.requests[1]),
        )
        assert np.array_equal(got, table[np.array(case["indices"])])

    @given(case=pir_cases())
    @ROUNDTRIP_SETTINGS
    def test_object_ingest(self, backend_name, case):
        """Unframed path: key objects straight into answer_shares."""
        table, servers, client = _setup(case, backend_name)
        keys_0, keys_1 = client.generate_keys(case["indices"])
        got = (servers[0].answer_shares(keys_0) + servers[1].answer_shares(keys_1)).astype(
            np.uint64
        )
        assert np.array_equal(got, table[np.array(case["indices"])])


class TestRoundTripExamples:
    """Deterministic pins beyond the property's small random shapes."""

    def test_larger_batch_and_table(self):
        domain, indices = 1000, [0, 999, 512, 31, 31, 700, 3, 255]
        rng = np.random.default_rng(42)
        table = rng.integers(0, 1 << 64, size=domain, dtype=np.uint64)
        servers = [PirServer(table, prf_name="chacha20") for _ in range(2)]
        client = PirClient(domain, "chacha20", rng=np.random.default_rng(43))
        batch = client.query(indices)
        got = client.reconstruct(
            batch,
            servers[0].handle(batch.requests[0]),
            servers[1].handle(batch.requests[1]),
        )
        assert np.array_equal(got, table[np.array(indices)])

    def test_single_index_scalar_query(self):
        table = np.arange(37, dtype=np.uint64) * np.uint64(3)
        servers = [PirServer(table, prf_name="siphash") for _ in range(2)]
        client = PirClient(37, "siphash", rng=np.random.default_rng(9))
        batch = client.query(17)
        got = client.reconstruct(
            batch,
            servers[0].handle(batch.requests[0]),
            servers[1].handle(batch.requests[1]),
        )
        assert got.shape == (1,)
        assert got[0] == table[17]

    def test_request_ids_increment_and_correlate(self):
        table = np.ones(8, dtype=np.uint64)
        servers = [PirServer(table, prf_name="siphash") for _ in range(2)]
        client = PirClient(8, "siphash", rng=np.random.default_rng(1))
        first = client.query([1])
        second = client.query([2])
        assert second.request_id == first.request_id + 1
        reply_for_second = servers[0].handle(second.requests[0])
        with pytest.raises(ValueError, match="correlates"):
            client.reconstruct(
                first, reply_for_second, servers[1].handle(first.requests[1])
            )


class TestQueryMany:
    """The load generator's convenience: N requests in one call."""

    def test_one_request_per_index_by_default(self):
        client = PirClient(64, "siphash", rng=np.random.default_rng(3))
        batches = client.query_many([1, 5, 9])
        assert [b.indices for b in batches] == [(1,), (5,), (9,)]
        assert len({b.request_id for b in batches}) == 3

    def test_grouping_keeps_order_and_remainder(self):
        client = PirClient(64, "siphash", rng=np.random.default_rng(3))
        batches = client.query_many([1, 5, 9, 2, 7], queries_per_request=2)
        assert [b.indices for b in batches] == [(1, 5), (9, 2), (7,)]

    def test_each_request_round_trips_independently(self):
        table = np.arange(40, dtype=np.uint64) * np.uint64(11)
        servers = [PirServer(table, prf_name="siphash") for _ in range(2)]
        client = PirClient(40, "siphash", rng=np.random.default_rng(4))
        for batch in client.query_many([0, 39, 17]):
            got = client.reconstruct(
                batch,
                servers[0].handle(batch.requests[0]),
                servers[1].handle(batch.requests[1]),
            )
            assert np.array_equal(got, table[np.array(batch.indices)])

    def test_rejects_empty_and_bad_grouping(self):
        client = PirClient(8, "siphash")
        with pytest.raises(ValueError, match="at least one"):
            client.query_many([])
        with pytest.raises(ValueError, match="queries_per_request"):
            client.query_many([1], queries_per_request=0)


KEY_DIGESTS = {
    "aes128": "6a75ab52303ec89e3e9cc83b2feec3e82d98d8bc7641e828c4f07a05197dd442",
    "chacha20": "8b3280e8b14a2844ce9add1d7053dae057c6563aab4ce9d5fbc4cce5a03d7547",
    "highwayhash": "85e7988588be1a3f19ca541ea5e3fd85fc6778578d9f80d8a4e40f1405b3da9a",
    "sha256": "1b712b77e15ceea2889b9c343be0878842f7194f476c4c324aa98ca39846f00e",
    "siphash": "3904d4981b9ba14ebea7a2dc263ddec4e30d2a8ef0844f31c0871bc6c0ba8687",
}
"""SHA-256 over every ``pack_keys`` payload of the fixed-seed batch
below, recorded when the wire format became ``DPF3`` (the PRF as a
one-byte id, no ``log_domain`` or ``root_t`` byte, control bits packed
four levels a byte); the keys as arrays did not change with it
(``tests/dpf/test_key_arrays_stable.py``)."""


class TestKeysAreByteStable:
    @pytest.mark.parametrize("name", available_prfs())
    def test_fixed_seed_keys_match_recorded_digest(self, name):
        # A given rng must keep producing the same keys: recorded
        # request fixtures and cross-version clients depend on it.
        client = PirClient(1000, name, rng=np.random.default_rng(20240914))
        digest = hashlib.sha256()
        for batch in client.query_many(
            [0, 1, 499, 500, 731, 998, 999], queries_per_request=3
        ):
            for frame in batch.requests:
                digest.update(PirQuery.from_bytes(frame).key_bytes)
        assert digest.hexdigest() == KEY_DIGESTS[name]

    @pytest.mark.parametrize("name", available_prfs())
    def test_gen_draws_the_two_root_seeds_first_and_in_order(self, name):
        # What did not change with the format: party 0's root is the
        # rng's first 16 bytes and party 1's the next 16, key after key.
        prf = get_prf(name)
        rng, twin = np.random.default_rng(77), np.random.default_rng(77)
        for alpha in (0, 999):
            key_0, key_1 = gen(alpha, 1000, prf, rng)
            for key in (key_0, key_1):
                want = twin.integers(0, 256, size=(1, 16), dtype=np.uint8)[0]
                assert np.array_equal(key.root_seed, want)


class TestServerValidation:
    def test_domain_table_mismatch_rejected(self):
        table = np.zeros(64, dtype=np.uint64)
        server = PirServer(table, prf_name="siphash")
        client = PirClient(128, "siphash", rng=np.random.default_rng(2))
        batch = client.query([5])
        with pytest.raises(ValueError, match="table has 64"):
            server.handle(batch.requests[0])

    def test_prf_mismatch_rejected(self):
        table = np.zeros(16, dtype=np.uint64)
        server = PirServer(table, prf_name="aes128")
        client = PirClient(16, "siphash", rng=np.random.default_rng(2))
        batch = client.query([5])
        with pytest.raises(ValueError, match="would not reconstruct"):
            server.handle(batch.requests[0])

    def test_count_mismatch_rejected_before_evaluation(self):
        from repro.exec import ExecutionBackend
        from repro.pir import PirQuery

        class MustNotRun(ExecutionBackend):
            name = "must_not_run"

            def plan(self, request):  # pragma: no cover - never reached
                raise AssertionError("planned a lying frame")

            def run(self, request):
                raise AssertionError("evaluated a lying frame")

        table = np.zeros(16, dtype=np.uint64)
        server = PirServer(table, backend=MustNotRun(), prf_name="siphash")
        client = PirClient(16, "siphash", rng=np.random.default_rng(2))
        batch = client.query([5, 6])
        query = PirQuery.from_bytes(batch.requests[0])
        lying = PirQuery(
            request_id=query.request_id, count=1, key_bytes=query.key_bytes
        )
        # The count check must fire on ingestion metadata alone — the
        # O(B*L) evaluation never starts for a lying frame.
        with pytest.raises(ValueError, match="declares 1 keys"):
            server.handle(lying.to_bytes())

    def test_malformed_tables_rejected(self):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            PirServer(np.zeros((2, 2), dtype=np.uint64))
        with pytest.raises(ValueError, match="non-empty 1-D"):
            PirServer(np.zeros(0, dtype=np.uint64))

    def test_empty_index_batch_rejected_client_side(self):
        client = PirClient(16, "siphash")
        with pytest.raises(ValueError, match="at least one"):
            client.query([])

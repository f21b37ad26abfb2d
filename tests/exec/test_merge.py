"""Batch merge and per-request demux on the execution layer.

`EvalRequest.merge` fuses many requests into one kernel-sized batch
and slicing the answers by the sizes it returned gives each request
its rows back; together they must be a lossless round trip — running
the merged request yields exactly the per-request answer rows, bit for
bit, on every backend.  `KeyArena
.concat` underneath must agree with stacking the combined key list
directly.
"""

import numpy as np
import pytest

from repro.crypto import get_prf
from repro.dpf import gen
from repro.exec import EvalRequest, SingleGpuBackend
from repro.gpu import KeyArena

from tests.strategies import BACKEND_FACTORIES


def _keys(batch, domain=32, prf="siphash", seed=0, party=0):
    prf_obj = get_prf(prf)
    rng = np.random.default_rng(seed)
    return [
        gen(int(rng.integers(0, domain)), domain, prf_obj, rng, beta=i + 1)[party]
        for i in range(batch)
    ]


def _split(answers, sizes):
    """The merged answers' rows, one block per constituent, in order."""
    return np.split(answers, np.cumsum(sizes)[:-1])


class TestMergeRun:
    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
    def test_merged_run_equals_individual_runs(self, backend_name):
        backend = BACKEND_FACTORIES[backend_name]()
        requests = [
            EvalRequest(keys=_keys(batch, seed=batch), prf_name="siphash")
            for batch in (1, 3, 2)
        ]
        individual = [backend.run(r) for r in requests]
        merged, sizes = EvalRequest.merge(requests)
        assert sizes == (1, 3, 2)
        answers = backend.run(merged)
        assert answers.shape[0] == 6
        for got, want in zip(_split(answers, sizes), individual):
            assert np.array_equal(got, want)

    def test_merge_rejects_mismatched_settings(self):
        base = EvalRequest(keys=_keys(1, seed=0))
        with pytest.raises(ValueError, match="PRF"):
            EvalRequest.merge(
                [base, EvalRequest(keys=_keys(1, seed=1, prf="chacha20"))]
            )
        with pytest.raises(ValueError, match="at least one"):
            EvalRequest.merge([])

    def test_merge_rejects_mixed_domains(self):
        with pytest.raises(ValueError, match="domain"):
            EvalRequest.merge(
                [
                    EvalRequest(keys=_keys(1, domain=32)),
                    EvalRequest(keys=_keys(1, domain=64)),
                ]
            )


class TestArenaConcat:
    def test_concat_equals_stacking_the_combined_list(self):
        keys_a, keys_b = _keys(3, seed=1), _keys(2, seed=2)
        merged = KeyArena.concat(
            [KeyArena.from_keys(keys_a), KeyArena.from_keys(keys_b)]
        )
        assert merged == KeyArena.from_keys(keys_a + keys_b)

    def test_concat_single_arena_is_identity(self):
        arena = KeyArena.from_keys(_keys(2))
        assert KeyArena.concat([arena]) is arena

    def test_concat_rejects_heterogeneous_batches(self):
        with pytest.raises(ValueError, match="domain"):
            KeyArena.concat(
                [
                    KeyArena.from_keys(_keys(1, domain=32)),
                    KeyArena.from_keys(_keys(1, domain=64)),
                ]
            )
        with pytest.raises(ValueError, match="PRF"):
            KeyArena.concat(
                [
                    KeyArena.from_keys(_keys(1)),
                    KeyArena.from_keys(_keys(1, prf="chacha20")),
                ]
            )
        with pytest.raises(ValueError, match="at least one"):
            KeyArena.concat([])


class TestMergeEvalRange:
    """Range restrictions through the merge/unmerge round trip — what
    lets a sharded server un-merge a fused batch for failover without
    losing the shard's sub-range."""

    def test_mismatched_eval_range_rejected(self):
        restricted = EvalRequest(keys=_keys(1, seed=0), prf_name="siphash").restrict(
            0, 16
        )
        plain = EvalRequest(keys=_keys(1, seed=1), prf_name="siphash")
        with pytest.raises(ValueError, match="eval_range"):
            EvalRequest.merge([restricted, plain])

    def test_range_propagates_through_merge_and_unmerge(self):
        requests = [
            EvalRequest(keys=_keys(b, seed=b), prf_name="siphash").restrict(4, 20)
            for b in (2, 3)
        ]
        merged, sizes = EvalRequest.merge(requests)
        assert merged.eval_range == (4, 20)
        for piece in EvalRequest.unmerge(merged, sizes):
            assert piece.eval_range == (4, 20)

    def test_restricting_a_merged_batch_slices_its_columns(self):
        backend = SingleGpuBackend()
        merged, _ = EvalRequest.merge(
            [EvalRequest(keys=_keys(b, seed=b), prf_name="siphash") for b in (2, 3)]
        )
        full = backend.run(merged)
        restricted = backend.run(merged.restrict(7, 25))
        assert np.array_equal(restricted, full[:, 7:25])


class TestUnmerge:
    """`unmerge` is the retry path's inverse of `merge`: each returned
    request must carry exactly its constituent's keys, as a zero-copy
    slice of the merged arena."""

    def _merged(self, sizes=(1, 3, 2)):
        requests = [
            EvalRequest(keys=_keys(b, seed=b), prf_name="siphash") for b in sizes
        ]
        merged, got_sizes = EvalRequest.merge(requests)
        assert got_sizes == sizes
        return requests, merged, got_sizes

    def test_round_trips_the_merge(self):
        requests, merged, sizes = self._merged()
        pieces = EvalRequest.unmerge(merged, sizes)
        assert len(pieces) == len(requests)
        for piece, original in zip(pieces, requests):
            assert piece.arena() == original.arena()
        # Re-merging the pieces reproduces the fused batch bit for bit.
        remerged, resizes = EvalRequest.merge(pieces)
        assert resizes == sizes
        assert remerged.arena() == merged.arena()

    def test_slices_are_zero_copy_views(self):
        _, merged, sizes = self._merged()
        for piece in EvalRequest.unmerge(merged, sizes):
            arena = piece.arena()
            assert arena.cw_seeds.base is not None  # a view of merged
            assert arena.roots.base is not None

    def test_pieces_run_identically_to_the_originals(self):
        """Unmerged slices evaluate to exactly the rows the merged
        batch produced — what bit-exact retry rests on."""
        backend = SingleGpuBackend()
        _, merged, sizes = self._merged()
        merged_rows = _split(backend.run(merged), sizes)
        for piece, rows in zip(EvalRequest.unmerge(merged, sizes), merged_rows):
            assert np.array_equal(backend.run(piece), rows)

    def test_inherits_merged_settings(self):
        _, merged, sizes = self._merged()
        for piece in EvalRequest.unmerge(merged, sizes):
            assert piece.prf_name == "siphash"

    def test_validates_sizes(self):
        _, merged, _ = self._merged()
        with pytest.raises(ValueError, match="sum to 4"):
            EvalRequest.unmerge(merged, (1, 3))
        with pytest.raises(ValueError, match="positive"):
            EvalRequest.unmerge(merged, (6, 0))
        with pytest.raises(ValueError, match="at least one"):
            EvalRequest.unmerge(merged, ())


class TestBucketedPadding:
    """Merge/unmerge composed with the plan cache's bucketing: every
    demuxed answer must align exactly with its constituent request even
    though the cache prices plans at the bucket size — through the
    straight cached path, and through mid-batch replica failover (where
    constituents re-run *individually*, each keyed to its own
    bucket)."""

    DOMAIN = 64

    def _requests(self, sizes=(3, 2), prf="siphash"):
        return [
            EvalRequest(
                keys=_keys(b, domain=self.DOMAIN, seed=b, prf=prf), prf_name=prf
            )
            for b in sizes
        ]

    def test_cached_merged_demux_matches_per_request_answers(self):
        from repro.exec import PlanCache

        backend = SingleGpuBackend()
        requests = self._requests(sizes=(3, 2))
        individual = [backend.run(r) for r in requests]
        merged, sizes = EvalRequest.merge(requests)
        # Merged batch 5 is keyed at bucket 8 inside the cache: the
        # slices handed back per constituent must align exactly.
        cache = PlanCache()
        answers = cache.run(backend, merged)
        assert answers.shape[0] == 5
        assert cache.stats.misses == 1
        for got, want in zip(_split(answers, sizes), individual):
            assert np.array_equal(got, want)

    def test_unmerged_pieces_key_to_their_own_buckets(self):
        from repro.exec import PlanCache, batch_bucket

        backend = SingleGpuBackend()
        requests = self._requests(sizes=(3, 2))
        merged, sizes = EvalRequest.merge(requests)
        cache = PlanCache()
        for piece, original in zip(EvalRequest.unmerge(merged, sizes), requests):
            got = cache.run(backend, piece)
            assert got.shape[0] == piece.arena().batch
            assert np.array_equal(got, backend.run(original))
        # Two distinct buckets (3 -> 4, 2 -> 2) were populated.
        assert {batch_bucket(s) for s in sizes} == {4, 2}
        assert cache.stats.misses == 2

    def test_failover_mid_batch_keeps_demux_aligned(self):
        """A fused, bucket-keyed batch served by a sharded server with
        a replica that dies mid-batch: failover un-merges each
        constituent into its own bucket entry, and every demuxed answer
        still matches the healthy oracle bit for bit."""
        from repro.crypto import get_prf as _get_prf
        from repro.dpf import eval_full
        from repro.exec import PlanCache
        from tests.strategies import FaultPlan, FlakyBackend
        from repro.serve.shard import ShardedPirServer

        rng = np.random.default_rng(17)
        table = rng.integers(0, 2**63, size=self.DOMAIN, dtype=np.uint64)
        prf = "chacha20"

        def factory(shard, replica):
            if shard == 0 and replica == 0:
                return FlakyBackend(SingleGpuBackend(), FaultPlan.after(1))
            return SingleGpuBackend()

        server = ShardedPirServer(
            table,
            shards=2,
            replicas=2,
            backend_factory=factory,
            prf_name=prf,
            rejoin_after=None,
            plan_cache=PlanCache(),
        )
        requests = self._requests(sizes=(3, 2), prf=prf)
        merged, sizes = EvalRequest.merge(requests)
        answers = server.answer_request(merged, epoch=0, sizes=sizes)
        assert answers.shape == (5,)
        assert server.stats_totals().failovers >= 1
        prf_obj = _get_prf(prf)
        offset = 0
        for request in requests:
            shares = np.stack(
                [eval_full(k, prf_obj) for k in request.arena().to_keys()]
            )
            expected = shares @ table
            got = answers[offset : offset + request.arena().batch]
            assert np.array_equal(got, expected)
            offset += request.arena().batch

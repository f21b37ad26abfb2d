"""The serving loop's headline property: aggregation changes nothing.

Answers served through the async batch-aggregation loop must be
*bit-identical* to sequential ``PirServer.handle`` for the same
queries — per reply frame, byte for byte — across every backend, at
every concurrency level, under whatever batch fusion ``max_batch``
produces.  The property draws random tables, indices, and flush
configurations, so single-query batches, partially fused batches, and
fully fused batches are all exercised against the same oracle.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import PlanCache, SingleGpuBackend
from repro.pir import PirClient, PirServer
from repro.serve import AsyncPirServer

from tests.strategies import (
    BACKEND_FACTORIES,
    FaultPlan,
    FlakyBackend,
    domain_sizes,
    fast_prf_names,
)

CONCURRENCY_LEVELS = (2, 5, 9)
"""Concurrent client counts for the equivalence property (>= 3 levels
per the serving-loop acceptance criteria)."""

SERVE_SETTINGS = settings(max_examples=5, deadline=None)
"""Each example runs a full asyncio serving session per (backend,
concurrency) cell on top of two sequential oracle evaluations, so the
cube stays affordable with few examples per cell."""


@st.composite
def serve_cases(draw):
    domain = draw(domain_sizes(max_size=64))
    return {
        "domain": domain,
        "prf": draw(fast_prf_names),
        "table_seed": draw(st.integers(0, 2**32 - 1)),
        "key_seed": draw(st.integers(0, 2**32 - 1)),
        # Drawn so flushes are full max_batch batches sometimes and
        # non-full ones otherwise; equivalence must hold either way.
        "max_batch": draw(st.sampled_from((1, 2, 64))),
        "resident": draw(st.booleans()),
    }


def _serve_concurrently(server, frames, max_batch):
    """All frames submitted at once through one aggregation loop."""

    async def run():
        loop = AsyncPirServer(server, max_batch=max_batch)
        async with loop:
            return await asyncio.gather(*[loop.submit(f) for f in frames])

    return asyncio.run(run())


@pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
@pytest.mark.parametrize("concurrency", CONCURRENCY_LEVELS)
class TestAsyncMatchesSequential:
    @given(case=serve_cases())
    @SERVE_SETTINGS
    def test_demuxed_replies_are_bit_identical(
        self, backend_name, concurrency, case
    ):
        rng = np.random.default_rng(case["table_seed"])
        table = rng.integers(0, 1 << 64, size=case["domain"], dtype=np.uint64)
        server = PirServer(
            table,
            backend=BACKEND_FACTORIES[backend_name](),
            prf_name=case["prf"],
            resident=case["resident"],
        )
        client = PirClient(
            case["domain"], case["prf"], rng=np.random.default_rng(case["key_seed"])
        )
        indices = rng.integers(0, case["domain"], size=concurrency).tolist()
        frames = [
            batch.requests[0] for batch in client.query_many(indices)
        ]

        sequential = [server.handle(frame) for frame in frames]
        concurrent = _serve_concurrently(server, frames, case["max_batch"])

        assert concurrent == sequential  # whole reply frames, byte for byte


class TestEndToEndReconstruction:
    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
    def test_two_party_load_reconstructs_the_table(self, backend_name):
        """Full protocol through two loops: every answer is the row."""
        rng = np.random.default_rng(5)
        table = rng.integers(0, 1 << 64, size=100, dtype=np.uint64)
        indices = rng.integers(0, 100, size=12).tolist()
        client = PirClient(100, "siphash", rng=np.random.default_rng(6))
        batches = client.query_many(indices)

        async def run():
            loops = [
                AsyncPirServer(
                    PirServer(
                        table,
                        backend=BACKEND_FACTORIES[backend_name](),
                        prf_name="siphash",
                    ),
                    max_batch=4,
                )
                for _ in range(2)
            ]
            async with loops[0], loops[1]:
                replies = await asyncio.gather(
                    *[
                        loop.submit(batch.requests[party])
                        for batch in batches
                        for party, loop in enumerate(loops)
                    ]
                )
            return replies, loops

        replies, loops = asyncio.run(run())
        answers = np.concatenate(
            [
                client.reconstruct(batch, *replies[2 * i : 2 * i + 2])
                for i, batch in enumerate(batches)
            ]
        )
        assert np.array_equal(answers, table[indices])
        # The loops actually aggregated: fewer dispatches than queries.
        for loop in loops:
            assert loop.stats.shed == 0
            assert loop.stats.batches < len(indices)
            assert loop.stats.largest_batch > 1

    def test_stats_count_queries_not_requests(self):
        """``submitted`` and ``answered`` share the query unit: four
        two-query requests count eight of each."""
        server = PirServer(np.arange(32, dtype=np.uint64), prf_name="siphash")
        client = PirClient(32, "siphash", rng=np.random.default_rng(22))
        frames = [client.query([i, 31 - i]).requests[0] for i in range(4)]

        async def run():
            loop = AsyncPirServer(server, max_batch=4)
            async with loop:
                return loop, await asyncio.gather(*[loop.submit(f) for f in frames])

        loop, replies = asyncio.run(run())
        assert replies == [server.handle(f) for f in frames]
        assert loop.stats.submitted == loop.stats.answered == 8
        assert loop.stats.shed == 0

    def test_multi_query_requests_demux_in_order(self):
        """Requests of different sizes fuse and slice back correctly."""
        rng = np.random.default_rng(8)
        table = rng.integers(0, 1 << 64, size=50, dtype=np.uint64)
        server = PirServer(table, prf_name="siphash")
        client = PirClient(50, "siphash", rng=np.random.default_rng(9))
        batches = [client.query([1, 2, 3]), client.query([40]), client.query([7, 7])]
        frames = [b.requests[0] for b in batches]
        sequential = [server.handle(f) for f in frames]
        got = _serve_concurrently(server, frames, max_batch=64)
        assert got == sequential


class TestPlanCacheThroughTheLoop:
    def test_one_lookup_per_flush_and_steady_state_hits(self):
        """Ten 3-key requests, all submitted at once, through a loop
        with ``max_batch=4`` (one request per flush): the server's plan
        cache sees one lookup per flush, and every flush after the
        first warm one hits.  The counters are the cache's own (its
        ``plan_cache`` metrics view); the loop keeps no copy."""
        rng = np.random.default_rng(7)
        table = rng.integers(0, 1 << 63, size=256, dtype=np.uint64)
        client = PirClient(256, "chacha20", rng=rng)
        frames = [
            b.requests[0]
            for b in client.query_many(rng.integers(0, 256, size=30), 3)
        ]
        cache = PlanCache()
        server = PirServer(
            table, backend=SingleGpuBackend(), prf_name="chacha20", plan_cache=cache
        )

        async def run():
            loop = AsyncPirServer(server, max_batch=4)
            async with loop:
                replies = await asyncio.gather(*[loop.submit(f) for f in frames])
            return replies, loop.stats

        replies, stats = asyncio.run(run())
        oracle = PirServer(table, prf_name="chacha20")
        assert replies == [oracle.handle(f) for f in frames]
        assert cache.stats.lookups == stats.batches == 10
        assert cache.stats.hits > 0


class TestSubmitValidation:
    def test_malformed_frames_fail_synchronously(self):
        """Bad queries raise at submit and never enter the queue."""
        table = np.arange(16, dtype=np.uint64)
        server = PirServer(table, prf_name="siphash")
        client = PirClient(32, "siphash", rng=np.random.default_rng(3))
        mismatched = client.query([1]).requests[0]

        async def run():
            loop = AsyncPirServer(server)
            async with loop:
                with pytest.raises(ValueError, match="truncated"):
                    await loop.submit(b"nonsense")
                with pytest.raises(ValueError, match="table has 16"):
                    await loop.submit(mismatched)
                assert loop.pending_queries == 0
            assert loop.stats.submitted == 0

        asyncio.run(run())


class TestCancellation:
    """The cancelled-future leak fix: a caller that gives up must not
    have its query fused, evaluated, or counted as answered."""

    def _fixture(self, domain=32, seed=0):
        rng = np.random.default_rng(seed)
        table = rng.integers(0, 1 << 64, size=domain, dtype=np.uint64)
        server = PirServer(table, prf_name="siphash")
        client = PirClient(domain, "siphash", rng=np.random.default_rng(seed + 1))
        return table, server, client

    def test_cancelled_mid_queue_is_purged_before_merging(self):
        """A query cancelled while waiting in the queue never reaches
        the backend: the fused batch holds only live requests, and the
        counters say cancelled, not answered."""
        table, server, client = self._fixture()
        frames = [b.requests[0] for b in client.query_many([1, 2, 3])]

        async def run():
            loop = AsyncPirServer(server, max_batch=1024)
            tasks = [
                asyncio.create_task(loop.submit(frame)) for frame in frames
            ]
            while loop.pending_queries < 3:
                await asyncio.sleep(0)
            tasks[1].cancel()
            await loop.start()
            await loop.stop()
            survivors = await asyncio.gather(tasks[0], tasks[2])
            with pytest.raises(asyncio.CancelledError):
                await tasks[1]
            return loop, survivors

        loop, survivors = asyncio.run(run())
        assert survivors == [server.handle(frames[0]), server.handle(frames[2])]
        assert loop.stats.cancelled == 1
        assert loop.stats.answered == 2
        assert loop.stats.largest_batch == 2  # the cancelled one wasn't fused
        assert loop.stats.mean_batch == 2.0
        assert loop.stats.submitted == 3

    def test_cancel_racing_the_dispatch_is_dropped_at_demux(self):
        """A cancel that lands while the batch is already on the
        backend is sunk cost: the reply is discarded, counted under
        cancelled, never answered."""
        table, server, client = self._fixture()
        frames = [b.requests[0] for b in client.query_many([1, 2])]
        victim_task = {}

        class CancelDuringRun:
            """Backend wrapper that cancels a caller mid-dispatch."""

            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name

            def plan(self, request):
                return self.inner.plan(request)

            def run(self, request):
                if victim_task:
                    victim_task.pop("task").cancel()
                return self.inner.run(request)

        server.backend = CancelDuringRun(server.backend)

        async def run():
            loop = AsyncPirServer(server, max_batch=2)
            tasks = [
                asyncio.create_task(loop.submit(frame)) for frame in frames
            ]
            while loop.pending_queries < 2:
                await asyncio.sleep(0)
            victim_task["task"] = tasks[1]
            async with loop:
                survivor = await tasks[0]
            with pytest.raises(asyncio.CancelledError):
                await tasks[1]
            return loop, survivor

        loop, survivor = asyncio.run(run())
        assert survivor == server.handle(frames[0])
        assert loop.stats.cancelled == 1
        assert loop.stats.answered == 1
        assert loop.stats.largest_batch == 2  # it *was* fused — too late

    def test_cancelled_retry_is_purged_before_it_is_taken_again(self):
        """A failed batch's query goes straight back to the queue; when
        its caller cancels before the next flush takes it, that flush
        purges it: it is neither evaluated again nor counted answered."""
        table, server, client = self._fixture()
        flaky = FlakyBackend(server.backend, FaultPlan.nth(1))
        server.backend = flaky
        frames = [b.requests[0] for b in client.query_many([1, 2])]

        async def run():
            loop = AsyncPirServer(server, max_batch=1)
            async with loop:
                first = asyncio.create_task(loop.submit(frames[0]))
                # Wait for the injected fault to requeue it.
                while loop.stats.retried < 1:
                    await asyncio.sleep(0)
                requeued = loop.pending_queries
                first.cancel()
                second = await loop.submit(frames[1])
            with pytest.raises(asyncio.CancelledError):
                await first
            return loop, requeued, second, flaky.runs

        loop, requeued, second, runs = asyncio.run(run())
        assert requeued == 1  # back in the queue, not yet taken again
        # The faulted dispatch, then frames[1] alone: the requeued
        # query never reached the backend a second time.
        assert runs == 2
        assert second == server.handle(frames[1])
        assert loop.stats.retried == 1
        assert loop.stats.cancelled == 1
        assert loop.stats.answered == 1
        assert loop.stats.failed == 0

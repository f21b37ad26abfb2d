"""Flush reasons, admission control, and drain behavior.

A flush is a full ``max_batch`` batch, a non-full batch dispatched at
once (reason ``deadline``), or the drain of a stopping loop; each gets a
test asserted through the loop's observable flush-reason counters.
Backpressure tests build deterministic backlogs by submitting before the
aggregation task starts, so shedding is exact, not racy.
"""

import asyncio
import inspect
import threading

import numpy as np
import pytest

import repro.serve
import repro.serve.loop
from repro.pir import PirClient, PirServer
from repro.serve import (
    FLUSH_DEADLINE,
    FLUSH_DRAIN,
    FLUSH_MAX_BATCH,
    AsyncPirServer,
    PirServerOverloaded,
    ServingStats,
    ShardedPirServer,
)

TURNS = 12
"""Event-loop turns that suffice for a submission to be admitted,
fused, dispatched and delivered to its caller when nothing waits on
time."""


def _fixture(domain=32, prf="siphash", seed=0):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 1 << 64, size=domain, dtype=np.uint64)
    server = PirServer(table, prf_name=prf)
    client = PirClient(domain, prf, rng=np.random.default_rng(seed + 1))
    return table, server, client


async def _backlog(loop, frames, queries=None):
    """Submit every frame before the aggregation task runs; returns the
    submission tasks once all ``queries`` (default: one per frame) are
    enqueued."""
    tasks = [asyncio.create_task(loop.submit(frame)) for frame in frames]
    queries = len(frames) if queries is None else queries
    while loop.pending_queries < queries:
        await asyncio.sleep(0)
    return tasks


class TestFlushTriggers:
    def test_max_batch_flushes_without_waiting(self):
        """Exactly max_batch queries flush at once as one full batch."""
        table, server, client = _fixture()
        frames = [b.requests[0] for b in client.query_many([1, 2, 3, 4])]

        async def run():
            loop = AsyncPirServer(server, max_batch=4)
            tasks = await _backlog(loop, frames)
            async with loop:
                replies = await asyncio.gather(*tasks)
            return loop, replies

        loop, replies = asyncio.run(run())
        assert loop.stats.flushes == {FLUSH_MAX_BATCH: 1}
        assert loop.stats.largest_batch == 4
        assert replies == [server.handle(f) for f in frames]

    def test_deadline_flushes_a_lone_query(self):
        """A lone query on the default loop is a non-full batch,
        dispatched at once with reason ``deadline``."""
        table, server, client = _fixture()
        frame = client.query([5]).requests[0]

        async def run():
            loop = AsyncPirServer(server)
            async with loop:
                return loop, await loop.submit(frame)

        loop, reply = asyncio.run(run())
        assert loop.stats.flushes == {FLUSH_DEADLINE: 1}
        assert reply == server.handle(frame)

    def test_stop_drains_pending_queries(self):
        """Stopping the loop answers the backlog (reason: drain)."""
        table, server, client = _fixture()
        frames = [b.requests[0] for b in client.query_many([1, 2])]

        async def run():
            loop = AsyncPirServer(server, max_batch=1024)
            tasks = await _backlog(loop, frames)
            await loop.start()
            await loop.stop()
            return loop, await asyncio.gather(*tasks)

        loop, replies = asyncio.run(run())
        assert loop.stats.flushes == {FLUSH_DRAIN: 1}
        assert replies == [server.handle(f) for f in frames]

    def test_oversized_stream_flushes_in_max_batch_chunks(self):
        """8 queries under max_batch=3 dispatch as 3+3+2."""
        table, server, client = _fixture()
        frames = [b.requests[0] for b in client.query_many(list(range(8)))]

        async def run():
            loop = AsyncPirServer(server, max_batch=3)
            tasks = await _backlog(loop, frames)
            async with loop:
                return loop, await asyncio.gather(*tasks)

        loop, replies = asyncio.run(run())
        assert loop.stats.batches == 3
        assert loop.stats.largest_batch == 3
        assert replies == [server.handle(f) for f in frames]


class TestAdmissionControl:
    def test_overload_sheds_with_error(self):
        """Past max_pending, submissions fail fast; admitted ones are
        still answered correctly."""
        table, server, client = _fixture()
        frames = [b.requests[0] for b in client.query_many([1, 2, 3, 4])]

        async def run():
            loop = AsyncPirServer(server, max_batch=1024, max_pending=3)
            admitted = await _backlog(loop, frames[:3])
            with pytest.raises(PirServerOverloaded, match="max_pending=3"):
                await loop.submit(frames[3])
            await loop.start()
            await loop.stop()
            return loop, await asyncio.gather(*admitted)

        loop, replies = asyncio.run(run())
        assert loop.stats.shed == 1
        assert loop.stats.submitted == 3
        assert loop.stats.answered == 3
        assert replies == [server.handle(f) for f in frames[:3]]

    def test_queue_reopens_after_flush(self):
        """Shedding is a function of *current* depth, not history."""
        table, server, client = _fixture()
        frames = [b.requests[0] for b in client.query_many([1, 2, 3])]

        async def run():
            loop = AsyncPirServer(server, max_batch=2, max_pending=2)
            tasks = await _backlog(loop, frames[:2])
            async with loop:
                await asyncio.gather(*tasks)
                # Depth is back to 0: the shed-worthy submission is now
                # admitted and served.
                reply = await loop.submit(frames[2])
            return loop, reply

        loop, reply = asyncio.run(run())
        assert loop.stats.shed == 0
        assert reply == server.handle(frames[2])

    def test_shedding_happens_before_key_ingestion(self):
        """Admission reads only the frame header, so an overloaded
        server sheds a frame without parsing its (here: garbage) key
        payload — overload handling stays O(header)."""
        from repro.pir import PirQuery

        table, server, _ = _fixture()
        flood = PirQuery(
            request_id=9, count=10**6, key_bytes=b"not keys at all"
        ).to_bytes()

        async def run():
            loop = AsyncPirServer(server, max_pending=8)
            async with loop:
                with pytest.raises(PirServerOverloaded):
                    await loop.submit(flood)
            return loop

        loop = asyncio.run(run())
        assert loop.stats.shed == 10**6
        assert loop.stats.submitted == 0

    def test_multi_query_request_counts_keys_not_frames(self):
        """Admission is per query, so one 3-key frame fills a 3-slot
        queue."""
        table, server, client = _fixture()
        big = client.query([1, 2, 3]).requests[0]
        small = client.query([4]).requests[0]

        async def run():
            loop = AsyncPirServer(server, max_batch=1024, max_pending=3)
            tasks = await _backlog(loop, [big], queries=3)
            with pytest.raises(PirServerOverloaded):
                await loop.submit(small)
            await loop.start()
            await loop.stop()
            return loop, await asyncio.gather(*tasks)

        loop, replies = asyncio.run(run())
        assert loop.stats.shed == 1
        assert replies == [server.handle(big)]

    def test_depth_cap_alone_bounds_a_large_table(self):
        """At L = 2^20 a queue of 400 one-key queries is admitted in full
        under ``max_pending=400``: no device model prices the queue, so
        the table's size does not lower the cap."""
        domain = 1 << 20
        table = np.zeros(domain, dtype=np.uint64)
        server = PirServer(table, prf_name="aes128")
        client = PirClient(domain, "aes128", rng=np.random.default_rng(0))
        frames = [b.requests[0] for b in client.query_many(range(400))]

        async def run():
            loop = AsyncPirServer(server, max_pending=400)
            tasks = [asyncio.ensure_future(loop.submit(f)) for f in frames]
            # Every submit runs to its await before the loop starts.
            await asyncio.sleep(0)
            shed = [t.exception() for t in tasks if t.done()]
            admitted = loop.pending_queries
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            return loop, shed, admitted

        loop, shed, admitted = asyncio.run(run())
        assert shed == []
        assert admitted == 400
        assert loop.stats.submitted == 400
        assert loop.stats.shed == 0


class TestLifecycle:
    def test_submit_after_stop_raises_instead_of_hanging(self):
        """A stopped loop never silently enqueues a query no flush
        would answer."""
        table, server, client = _fixture()
        frame = client.query([1]).requests[0]

        async def run():
            loop = AsyncPirServer(server)
            async with loop:
                await loop.submit(frame)
            with pytest.raises(RuntimeError, match="stopped"):
                await loop.submit(frame)
            # Restarting reopens submission.
            async with loop:
                return await loop.submit(frame)

        assert asyncio.run(run()) == server.handle(frame)


class TestConfigValidation:
    def test_the_constructor_takes_three_integers(self):
        """Batch cap, depth cap and attempts are the loop's only knobs:
        no config objects, no linger, no byte budget, no clock."""
        assert list(inspect.signature(AsyncPirServer).parameters) == [
            "server",
            "max_batch",
            "max_pending",
            "max_attempts",
            "tracer",
            "metrics",
        ]
        table, server, _ = _fixture()
        for name in (
            "slo",
            "admission",
            "clock",
            "max_wait_s",
            "max_arena_bytes",
            "drain_budget_s",
        ):
            with pytest.raises(TypeError):
                AsyncPirServer(server, **{name: None})

    @pytest.mark.parametrize("knob", ["max_batch", "max_pending"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_caps_must_be_positive(self, knob, value):
        table, server, _ = _fixture()
        with pytest.raises(ValueError, match=f"{knob} must be positive, got {value}"):
            AsyncPirServer(server, **{knob: value})

    def test_the_loop_has_no_dispatch_thread_knob(self):
        table, server, _ = _fixture()
        with pytest.raises(TypeError):
            AsyncPirServer(server, overlap=True)

    def test_depth_is_the_only_shed_reason(self):
        expected = {"SHED_DEPTH": "depth"}
        for module in (repro.serve, repro.serve.loop):
            exported = {
                name: getattr(module, name)
                for name in dir(module)
                if name.startswith("SHED_")
            }
            assert exported == expected

    def test_serving_view_keys(self):
        """The metrics-registry view carries the loop's own counters,
        nothing else (the plan cache has its own view)."""
        assert list(ServingStats().as_dict()) == [
            "submitted",
            "answered",
            "shed",
            "retried",
            "failed",
            "failures",
            "cancelled",
            "batches",
            "largest_batch",
            "mean_batch",
            "flushes",
        ]


class TestInlineDispatch:
    """Every flush runs on the event loop's own thread."""

    @pytest.mark.parametrize("sharded", [False, True], ids=["plain", "sharded"])
    def test_dispatch_runs_on_the_event_loop_thread(self, sharded):
        table, _, client = _fixture()
        threads = []

        class Recording(ShardedPirServer if sharded else PirServer):
            def answer_request(self, *args, **kwargs):
                threads.append(threading.get_ident())
                return super().answer_request(*args, **kwargs)

        server = Recording(table, prf_name="siphash")
        frames = [b.requests[0] for b in client.query_many([1, 2, 3])]

        async def run():
            loop = AsyncPirServer(server, max_batch=1)
            async with loop:
                return await asyncio.gather(*[loop.submit(f) for f in frames])

        replies = asyncio.run(run())
        assert threads == [threading.get_ident()] * len(frames)
        oracle = PirServer(table, prf_name="siphash")
        assert replies == [oracle.handle(f) for f in frames]


class TestRestartLifecycle:
    """Stop → start is a supported cycle: stats persist, the queue
    re-opens, and drain flushes obey the same ``max_batch`` cap as live
    ones."""

    def test_submit_during_stop_raises(self):
        """A submission racing an in-progress stop() is refused — it
        could otherwise enqueue a query no flush would ever answer."""
        table, server, client = _fixture()
        frame = client.query([1]).requests[0]

        async def run():
            loop = AsyncPirServer(server)
            await loop.start()
            await loop.submit(frame)
            stopping = asyncio.create_task(loop.stop())
            await asyncio.sleep(0)  # stop() has set the flag, not finished
            with pytest.raises(RuntimeError, match="stopped"):
                await loop.submit(frame)
            await stopping

        asyncio.run(run())

    def test_restarted_loop_serves_again_and_keeps_stats(self):
        table, server, client = _fixture()
        frames = [b.requests[0] for b in client.query_many([1, 2])]

        async def run():
            loop = AsyncPirServer(server, max_batch=1)
            async with loop:
                first = await loop.submit(frames[0])
            async with loop:
                second = await loop.submit(frames[1])
            return loop, [first, second]

        loop, replies = asyncio.run(run())
        assert replies == [server.handle(f) for f in frames]
        assert loop.stats.answered == 2  # counters span both lifetimes
        assert loop.stats.batches == 2

    def test_drain_respects_max_batch(self):
        """Draining a deep backlog flushes in max_batch-sized fused
        batches — stop() gets no oversized-kernel exemption."""
        table, server, client = _fixture()
        frames = [b.requests[0] for b in client.query_many(list(range(8)))]

        async def run():
            loop = AsyncPirServer(server, max_batch=3)
            tasks = await _backlog(loop, frames)
            await loop.start()
            await loop.stop()
            return loop, await asyncio.gather(*tasks)

        loop, replies = asyncio.run(run())
        assert replies == [server.handle(f) for f in frames]
        # 8 queries drain as 3+3+2; the first two may fire as max-batch
        # flushes if the loop wins the race, but every drain flush is
        # capped at 3.
        assert loop.stats.batches == 3
        assert loop.stats.largest_batch == 3
        assert loop.stats.flushes.get(FLUSH_DRAIN, 0) >= 1


class TestWorkConserving:
    """An idle loop dispatches whatever is queued as soon as it runs,
    after one yield that fuses every submission already runnable in that
    event-loop turn."""

    def test_lone_query_is_answered_within_a_few_turns(self):
        """Nothing waits on time: the reply lands within a few
        event-loop turns, long before any timer could fire."""
        table, server, client = _fixture()
        frame = client.query([5]).requests[0]

        async def run():
            loop = AsyncPirServer(server)
            async with loop:
                task = asyncio.create_task(loop.submit(frame))
                for _ in range(TURNS):
                    await asyncio.sleep(0)
                assert task.done()
                return loop, task.result()

        loop, reply = asyncio.run(run())
        assert loop.stats.flushes == {FLUSH_DEADLINE: 1}
        assert reply == server.handle(frame)

    @pytest.mark.parametrize("k", [1, 2, 17, 64])
    def test_one_gather_forms_one_batch(self, k):
        table, server, client = _fixture()
        frames = [b.requests[0] for b in client.query_many([i % 32 for i in range(k)])]

        async def run():
            loop = AsyncPirServer(server)
            async with loop:
                replies = await asyncio.wait_for(
                    asyncio.gather(*(loop.submit(f) for f in frames)), 10
                )
            return loop, replies

        loop, replies = asyncio.run(run())
        reason = FLUSH_MAX_BATCH if k == loop.max_batch else FLUSH_DEADLINE
        assert loop.stats.flushes == {reason: 1}
        assert loop.stats.largest_batch == k
        assert replies == [server.handle(f) for f in frames]

    def test_submissions_runnable_after_the_wake_fuse(self):
        """The loop is woken by the first submission, and the others
        become runnable only after the wake-up is already queued.  The
        one yield before a non-full flush still fuses all of them."""
        table, server, client = _fixture()
        frames = [b.requests[0] for b in client.query_many([1, 2, 3, 4])]

        async def run():
            loop = AsyncPirServer(server)
            async with loop:
                await asyncio.sleep(0)  # the loop is idle, waiting
                first = asyncio.create_task(loop.submit(frames[0]))
                await asyncio.sleep(0)  # `first` ran and woke the loop
                assert loop.pending_queries == 1
                replies = await asyncio.wait_for(
                    asyncio.gather(first, *(loop.submit(f) for f in frames[1:])), 10
                )
            return loop, replies

        loop, replies = asyncio.run(run())
        assert loop.stats.batches == 1
        assert loop.stats.flushes == {FLUSH_DEADLINE: 1}
        assert replies == [server.handle(f) for f in frames]

    def test_idle_loop_holds_no_helper_task(self):
        """Idle, the loop waits on its wake event directly: no
        ``wait_for`` Task beside its own."""
        table, server, client = _fixture()
        frame = client.query([7]).requests[0]

        async def run():
            loop = AsyncPirServer(server)
            async with loop:
                for _ in range(5):
                    await asyncio.sleep(0)
                idle_before = asyncio.all_tasks()
                await asyncio.wait_for(loop.submit(frame), 10)
                for _ in range(5):
                    await asyncio.sleep(0)
                idle_after = asyncio.all_tasks()
                expected = {asyncio.current_task(), loop._task}
            return idle_before, idle_after, expected

        idle_before, idle_after, expected = asyncio.run(run())
        assert idle_before == expected
        assert idle_after == expected


def _lockstep(servers, client, table, batches, rounds):
    """Every batch is one closed-loop caller: ``rounds`` times it sends
    its request to both parties' default loops and checks the answer
    before sending again.  Returns the two loops."""
    loops = [AsyncPirServer(server) for server in servers]

    async def caller(batch):
        for _ in range(rounds):
            replies = await asyncio.gather(
                *(loop.submit(frame) for loop, frame in zip(loops, batch.requests))
            )
            values = client.reconstruct(batch, *replies)
            assert np.array_equal(values, table[list(batch.indices)])

    async def run():
        async with loops[0], loops[1]:
            await asyncio.gather(*(caller(batch) for batch in batches))

    asyncio.run(run())
    return loops


class TestNoFragmentation:
    """Zero linger must not split saturated traffic: callers answered by
    one flush resubmit together and fuse into the next full batch."""

    ROUNDS = 20

    def _assert_full_batches(self, loops):
        for loop in loops:
            assert loop.stats.flushes == {FLUSH_MAX_BATCH: self.ROUNDS}
            assert loop.stats.mean_batch == 64

    def test_64_single_query_callers_on_plain_servers(self):
        rng = np.random.default_rng(3)
        table = rng.integers(0, 1 << 64, size=64, dtype=np.uint64)
        client = PirClient(64, "aes128", rng=np.random.default_rng(4))
        batches = client.query_many(rng.integers(0, 64, size=64))
        servers = [PirServer(table.copy(), prf_name="aes128") for _ in range(2)]
        self._assert_full_batches(
            _lockstep(servers, client, table, batches, self.ROUNDS)
        )

    def test_16_four_query_callers_on_two_shards(self):
        rng = np.random.default_rng(5)
        table = rng.integers(0, 1 << 64, size=64, dtype=np.uint64)
        client = PirClient(64, "aes128", rng=np.random.default_rng(6))
        batches = client.query_many(rng.integers(0, 64, size=64), 4)
        assert len(batches) == 16
        servers = [
            ShardedPirServer(table.copy(), shards=2, prf_name="aes128")
            for _ in range(2)
        ]
        self._assert_full_batches(
            _lockstep(servers, client, table, batches, self.ROUNDS)
        )


class TestFlushReasonContract:
    def test_exactly_the_four_reasons_the_benchmark_indexes(self):
        """``benchmark/layers.py`` builds its flush-share table from
        these four names and indexes it by each flush span's reason, so
        a fifth reason would raise ``KeyError`` in every traced run."""
        expected = {
            "FLUSH_MAX_BATCH": "max_batch",
            "FLUSH_DEADLINE": "deadline",
            "FLUSH_ARENA_BYTES": "arena_bytes",
            "FLUSH_DRAIN": "drain",
        }
        for module in (repro.serve, repro.serve.loop):
            exported = {
                name: getattr(module, name)
                for name in dir(module)
                if name.startswith("FLUSH_")
            }
            assert exported == expected
        assert {n for n in repro.serve.__all__ if n.startswith("FLUSH_")} == set(expected)

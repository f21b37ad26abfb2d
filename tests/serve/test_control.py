"""Control plane: one FIFO queue, depth-only admission, retries.

The loop serves requests in arrival order from a single queue, sheds
on the ``max_pending`` depth cap alone, and puts a failed request back
at the queue's front, up to ``max_attempts`` dispatches.  Backlogs are
built before the aggregation task starts and completion order is
observed through future resolution, so every test here pins an *exact*
order.
"""

import asyncio

import numpy as np
import pytest

import repro.serve
import repro.serve.loop
from repro.exec import SingleGpuBackend
from repro.obs import Tracer
from repro.pir import PirClient, PirServer
from repro.serve import (
    AsyncPirServer,
    PirServerOverloaded,
    ShardedPirServer,
)

from tests.strategies import FaultPlan, FlakyBackend

DELETED_NAMES = (
    "QosPolicy",
    "TenantSpec",
    "TokenBucket",
    "TenantRateLimited",
    "SHED_RATE_LIMIT",
    "INTERACTIVE",
    "BATCH",
    "QOS_CLASSES",
)
"""The tenant/QoS layer's public names; none may come back."""


def _server(kind, table, prf="siphash", backend=None):
    if kind == "sharded":
        return ShardedPirServer(table, shards=2, prf_name=prf)
    return PirServer(table, prf_name=prf, backend=backend)


def _frames(count, domain=32, prf="siphash", seed=0):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 1 << 64, size=domain, dtype=np.uint64)
    client = PirClient(domain, prf, rng=np.random.default_rng(seed + 1))
    return table, [b.requests[0] for b in client.query_many(list(range(count)))]


def _completion_order(server, frames, cancel=()):
    """Submit every frame before ``start()`` and serve them through
    ``max_batch=2`` flushes; returns (loop, replies by index, indices in
    completion order).  ``set_result`` order is flush order, so the
    take order is observable.  Indices in ``cancel`` are cancelled
    while still queued."""
    order = []

    async def tracked(loop, i):
        reply = await loop.submit(frames[i])
        order.append(i)
        return reply

    async def run():
        loop = AsyncPirServer(server, max_batch=2)
        tasks = []
        for i in range(len(frames)):
            tasks.append(asyncio.create_task(tracked(loop, i)))
            while loop.pending_queries < i + 1:
                await asyncio.sleep(0)
        for i in cancel:
            tasks[i].cancel()
        await loop.start()
        await loop.stop()
        replies = await asyncio.gather(*tasks, return_exceptions=True)
        return loop, replies

    loop, replies = asyncio.run(run())
    return loop, replies, order


class TestMaxAttempts:
    def test_validation(self):
        table, _ = _frames(1)
        with pytest.raises(ValueError, match="max_attempts"):
            AsyncPirServer(_server("plain", table), max_attempts=0)

    def test_the_loop_takes_no_retry_policy(self):
        table, _ = _frames(1)
        with pytest.raises(TypeError):
            AsyncPirServer(_server("plain", table), retry=None)


class TestFifoService:
    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_requests_complete_in_submission_order(self, kind):
        table, frames = _frames(5)
        server = _server(kind, table)
        loop, replies, order = _completion_order(server, frames)
        assert order == [0, 1, 2, 3, 4]
        assert loop.stats.batches == 3  # [0, 1], [2, 3], [4]
        assert replies == [server.handle(f) for f in frames]

    def test_a_cancelled_request_leaves_the_rest_in_order(self):
        """Purging a cancelled request from the middle of the queue
        closes the gap: the next batch takes the two requests behind
        it, in order."""
        table, frames = _frames(5)
        server = _server("plain", table)
        loop, replies, order = _completion_order(server, frames, cancel=(1,))
        assert order == [0, 2, 3, 4]
        assert loop.stats.batches == 2  # [0, 2], [3, 4]
        assert loop.stats.cancelled == 1
        assert isinstance(replies[1], asyncio.CancelledError)


class TestRetrySeniority:
    def test_failed_batch_is_retried_ahead_of_later_requests(self):
        """The first dispatch ([0, 1]) fails once; both requests go back
        to the queue's front, oldest first, and are taken ahead of the
        requests submitted after them."""
        table, frames = _frames(4)
        backend = FlakyBackend(SingleGpuBackend(), FaultPlan.nth(1))
        server = _server("plain", table, backend=backend)
        loop, replies, order = _completion_order(server, frames)
        assert backend.faults == 1
        assert loop.stats.retried == 2
        assert order == [0, 1, 2, 3]
        assert replies == [PirServer(table, prf_name="siphash").handle(f) for f in frames]


class TestNoTenants:
    def test_the_loop_takes_no_qos_policy(self):
        table, _ = _frames(1)
        with pytest.raises(TypeError):
            AsyncPirServer(_server("plain", table), qos=None)

    def test_submit_takes_no_tenant(self):
        table, frames = _frames(1)
        server = _server("plain", table)

        async def run():
            async with AsyncPirServer(server) as loop:
                with pytest.raises(TypeError):
                    await loop.submit(frames[0], tenant="ui")
                return loop.stats.submitted

        assert asyncio.run(run()) == 0

    @pytest.mark.parametrize("name", DELETED_NAMES)
    def test_the_package_exports_no_tenant_name(self, name):
        for module in (repro.serve, repro.serve.loop):
            assert not hasattr(module, name)
        assert name not in repro.serve.__all__

    def test_overloaded_carries_no_reason(self):
        """Depth is the only reason anything is shed, so the exception
        names none."""
        assert not hasattr(PirServerOverloaded("full"), "reason")
        with pytest.raises(TypeError):
            PirServerOverloaded("full", reason="depth")

    def test_trace_meta_names_no_tenant(self):
        table, frames = _frames(1)
        tracer = Tracer()

        async def run():
            async with AsyncPirServer(_server("plain", table), tracer=tracer) as loop:
                await loop.submit(frames[0])

        asyncio.run(run())
        (trace,) = tracer.drain()
        assert set(trace.meta) == {"request_id", "count", "epoch"}

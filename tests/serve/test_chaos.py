"""Fault injection against the serving loop: failures change nothing.

The control plane's headline property extends the loop's: answers
served through the aggregation loop must stay *bit-identical* to
sequential ``PirServer.handle`` even when the backend fails mid-batch.
A fused batch concentrates risk — one exception would fail every query
in it — so these tests kill dispatches with :class:`FlakyBackend` and
assert that the retry/requeue path un-merges the batch, retries the
survivors, and produces byte-for-byte the same reply frames a healthy
sequential server would, across every backend.  Only a request that
has used up its ``max_attempts`` dispatches may fail, and it fails
*individually*.

Every fault here is deterministic (:class:`FaultPlan`), so a failing
example replays exactly.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pir import PirClient, PirServer
from repro.serve import FLUSH_DRAIN, AsyncPirServer, SloConfig

from tests.strategies import (
    BACKEND_FACTORIES,
    BackendFault,
    FaultPlan,
    FlakyBackend,
    domain_sizes,
    fast_prf_names,
)

NEVER = 30.0
"""A max_wait_s no test waits out (see tests/serve/test_slo.py)."""

CHAOS_SETTINGS = settings(max_examples=5, deadline=None)
"""Each example runs a full serving session plus a sequential oracle
per backend, so the grid stays affordable."""


def _fixture(domain=32, prf="siphash", seed=0, backend=None):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 1 << 64, size=domain, dtype=np.uint64)
    server = PirServer(table, backend=backend, prf_name=prf)
    client = PirClient(domain, prf, rng=np.random.default_rng(seed + 1))
    return table, server, client


async def _backlog(loop, frames, queries=None):
    """Submit every frame before the aggregation task runs."""
    tasks = [asyncio.create_task(loop.submit(frame)) for frame in frames]
    queries = len(frames) if queries is None else queries
    while loop.pending_queries < queries:
        await asyncio.sleep(0)
    return tasks


@st.composite
def chaos_cases(draw):
    domain = draw(domain_sizes(max_size=64))
    return {
        "domain": domain,
        "prf": draw(fast_prf_names),
        "table_seed": draw(st.integers(0, 2**32 - 1)),
        "key_seed": draw(st.integers(0, 2**32 - 1)),
        # Small max_batch splits the backlog into several fused
        # batches (only some of which fault); a large one fuses
        # everything into the single batch the fault hits.
        "max_batch": draw(st.sampled_from((2, 3, 64))),
        "concurrency": draw(st.integers(2, 8)),
    }


@pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
class TestFaultsPreserveBitExactness:
    """The acceptance property: a fault in >= 1 fused batch, every
    non-shed reply still byte-identical to the sequential oracle."""

    @given(case=chaos_cases())
    @CHAOS_SETTINGS
    def test_replies_survive_an_injected_batch_failure(self, backend_name, case):
        factory = BACKEND_FACTORIES[backend_name]
        rng = np.random.default_rng(case["table_seed"])
        table = rng.integers(0, 1 << 64, size=case["domain"], dtype=np.uint64)
        # The oracle server runs on its own healthy backend: handle()
        # consumes backend runs, which must not perturb the fault plan.
        oracle = PirServer(table, backend=factory(), prf_name=case["prf"])
        server = PirServer(
            table,
            backend=FlakyBackend(factory(), FaultPlan.nth(1)),
            prf_name=case["prf"],
        )
        client = PirClient(
            case["domain"],
            case["prf"],
            rng=np.random.default_rng(case["key_seed"]),
        )
        indices = rng.integers(
            0, case["domain"], size=case["concurrency"]
        ).tolist()
        frames = [batch.requests[0] for batch in client.query_many(indices)]
        sequential = [oracle.handle(frame) for frame in frames]

        async def run():
            loop = AsyncPirServer(
                server,
                slo=SloConfig(max_batch=case["max_batch"], max_wait_s=0.02),
            )
            async with loop:
                return loop, await asyncio.gather(
                    *[loop.submit(f) for f in frames]
                )

        loop, replies = asyncio.run(run())
        assert replies == sequential  # byte for byte, through the fault
        assert loop.stats.retried > 0  # the fault hit a fused batch
        assert loop.stats.failed == 0
        assert loop.stats.shed == 0
        assert set(loop.stats.failures) == {"BackendFault"}
        assert sum(loop.stats.failures.values()) >= 1
        assert loop.stats.answered == len(frames)


class TestFailOnceThenRecover:
    def test_first_batch_fails_retry_recovers_bit_exact(self):
        """Deterministic mid-session kill: the first fused batch dies,
        its queries are un-merged, requeued, and answered correctly by
        the retry — with every counter pinned."""
        flaky = FlakyBackend(
            BACKEND_FACTORIES["single_gpu"](), FaultPlan.nth(1)
        )
        table, server, client = _fixture(backend=flaky)
        oracle = PirServer(table, prf_name="siphash")
        frames = [b.requests[0] for b in client.query_many([1, 2, 3, 4])]

        async def run():
            loop = AsyncPirServer(
                server, slo=SloConfig(max_batch=4, max_wait_s=NEVER)
            )
            tasks = await _backlog(loop, frames)
            async with loop:
                return loop, await asyncio.gather(*tasks)

        loop, replies = asyncio.run(run())
        assert replies == [oracle.handle(f) for f in frames]
        assert flaky.runs == 2  # the faulted dispatch plus the retry
        assert flaky.faults == 1
        assert loop.stats.retried == 4  # the whole fused batch requeued
        assert loop.stats.failed == 0
        assert loop.stats.failures == {"BackendFault": 1}
        assert loop.stats.batches == 1  # only successful dispatches count
        assert loop.stats.answered == 4

    def test_multi_query_requests_unmerge_and_retry_in_order(self):
        """Requests of different sizes survive the un-merge: each retry
        carries exactly its own key slice, so the demux stays aligned."""
        flaky = FlakyBackend(
            BACKEND_FACTORIES["single_gpu"](), FaultPlan.nth(1)
        )
        table, server, client = _fixture(domain=50, backend=flaky)
        oracle = PirServer(table, prf_name="siphash")
        batches = [
            client.query([1, 2, 3]),
            client.query([40]),
            client.query([7, 7]),
        ]
        frames = [b.requests[0] for b in batches]

        async def run():
            loop = AsyncPirServer(
                server, slo=SloConfig(max_batch=64, max_wait_s=0.01)
            )
            async with loop:
                return loop, await asyncio.gather(
                    *[loop.submit(f) for f in frames]
                )

        loop, replies = asyncio.run(run())
        assert replies == [oracle.handle(f) for f in frames]
        assert loop.stats.retried == 6  # queries, not requests
        assert loop.stats.failed == 0


class TestRetryExhaustion:
    def test_dead_backend_fails_requests_individually(self):
        """Against an always-failing backend every request fails — each
        with its own exception, after its own retry budget, never as a
        collective batch error — and the drain still terminates."""
        flaky = FlakyBackend(
            BACKEND_FACTORIES["single_gpu"](), FaultPlan.after(1)
        )
        table, server, client = _fixture(backend=flaky)
        frames = [b.requests[0] for b in client.query_many([1, 2, 3])]

        async def run():
            loop = AsyncPirServer(
                server,
                slo=SloConfig(max_batch=4, max_wait_s=NEVER),
                max_attempts=3,
            )
            tasks = await _backlog(loop, frames)
            await loop.start()
            await loop.stop()
            return loop, await asyncio.gather(*tasks, return_exceptions=True)

        loop, outcomes = asyncio.run(run())
        assert all(isinstance(o, BackendFault) for o in outcomes)
        assert loop.stats.failed == 3
        assert loop.stats.answered == 0
        # Two retries each (attempts 2 and 3) before giving up.
        assert loop.stats.retried == 6
        assert loop.stats.batches == 0
        assert FLUSH_DRAIN not in loop.stats.flushes  # no successful flush

    def test_retry_disabled_fails_on_first_fault(self):
        """max_attempts=1 turns retries off: the faulted batch fails
        immediately, no requeue."""
        flaky = FlakyBackend(
            BACKEND_FACTORIES["single_gpu"](), FaultPlan.nth(1)
        )
        table, server, client = _fixture(backend=flaky)
        frames = [b.requests[0] for b in client.query_many([1, 2])]

        async def run():
            loop = AsyncPirServer(
                server,
                slo=SloConfig(max_batch=2, max_wait_s=NEVER),
                max_attempts=1,
            )
            tasks = await _backlog(loop, frames)
            async with loop:
                return loop, await asyncio.gather(*tasks, return_exceptions=True)

        loop, outcomes = asyncio.run(run())
        assert all(isinstance(o, BackendFault) for o in outcomes)
        assert loop.stats.retried == 0
        assert loop.stats.failed == 2
        assert flaky.runs == 1


class TestFaultPlan:
    def test_nth_fails_exactly_the_named_runs(self):
        plan = FaultPlan.nth(2, 4)
        assert [plan.should_fail(n) for n in range(1, 6)] == [
            False, True, False, True, False,
        ]

    def test_after_is_dead_from_run_n(self):
        plan = FaultPlan.after(3)
        assert [plan.should_fail(n) for n in range(1, 6)] == [
            False, False, True, True, True,
        ]
        assert all(FaultPlan.after(1).should_fail(n) for n in range(1, 10))
        with pytest.raises(ValueError, match=">= 1"):
            FaultPlan.after(0)

    def test_random_is_deterministic_per_seed(self):
        plan_a, plan_b = FaultPlan.random(0.5, seed=7), FaultPlan.random(0.5, seed=7)
        a = [plan_a.should_fail(n) for n in range(1, 50)]
        b = [plan_b.should_fail(n) for n in range(1, 50)]
        assert a == b
        assert any(a) and not all(a)  # actually Bernoulli, not constant

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            FaultPlan.nth(0)
        with pytest.raises(ValueError, match=">= 1"):
            FaultPlan.nth()
        with pytest.raises(ValueError, match="rate"):
            FaultPlan.random(1.5)


class TestSharedRandomPlans:
    def test_shared_plan_streams_are_interleaving_independent(self):
        """One random plan shared across two FlakyBackends: each
        wrapper draws from its own spawned stream, so whether a given
        run of backend A faults depends only on A's run count — never
        on how A's calls interleave with B's.  Multi-replica chaos with
        a shared plan therefore replays exactly."""
        table, server, client = _fixture()
        request = server.parse_query(client.query([1]).requests[0])[1]

        def run_once(backend):
            try:
                backend.run(request)
                return False
            except BackendFault:
                return True

        def patterns(interleaved, runs=24):
            plan = FaultPlan.random(0.5, seed=123)
            backends = [
                FlakyBackend(BACKEND_FACTORIES["single_gpu"](), plan)
                for _ in range(2)
            ]
            results = [[], []]
            if interleaved:
                for _ in range(runs):
                    for i, backend in enumerate(backends):
                        results[i].append(run_once(backend))
            else:
                for i, backend in enumerate(backends):
                    for _ in range(runs):
                        results[i].append(run_once(backend))
            return results

        interleaved = patterns(interleaved=True)
        sequential = patterns(interleaved=False)
        assert interleaved == sequential
        # The two wrappers draw *different* streams (wrap order), and
        # each is genuinely Bernoulli.
        assert interleaved[0] != interleaved[1]
        for pattern in interleaved:
            assert any(pattern) and not all(pattern)


class TestFlakyBackend:
    def test_model_hooks_delegate_while_run_faults(self):
        """The *model* of a flaky device is intact — planning answers
        exactly like the inner backend while every run faults."""
        inner = BACKEND_FACTORIES["single_gpu"]()
        flaky = FlakyBackend(inner, FaultPlan.after(1))
        table, server, client = _fixture()
        request = server.parse_query(client.query([1]).requests[0])[1]
        assert flaky.plan(request) == inner.plan(request)
        with pytest.raises(BackendFault, match="run #1"):
            flaky.run(request)
        assert flaky.runs == 1 and flaky.faults == 1

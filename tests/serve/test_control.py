"""Control-plane policies: QoS priority, tenant buckets, drain admission.

The policies are deterministic by construction — buckets refill from an
injected clock and the drain model prices through the analytic cost
model — so every test here pins an *exact* decision: which submission
sheds, with which reason, and in which order queries leave the queue.
The drain-vs-depth comparison is the PR's acceptance scenario: against
a slow (modeled) backend, drain-time admission sheds queries that
depth-only admission would happily queue past their latency budget.
"""

import asyncio
import math

import numpy as np
import pytest

from repro.exec import MultiGpuBackend, SingleGpuBackend
from repro.gpu import V100
from repro.pir import PirClient, PirServer
from repro.serve import (
    BATCH,
    INTERACTIVE,
    SHED_DEPTH,
    SHED_DRAIN,
    SHED_RATE_LIMIT,
    AdmissionConfig,
    AsyncPirServer,
    DrainTimeModel,
    PirServerOverloaded,
    QosPolicy,
    RetryPolicy,
    SloConfig,
    TenantRateLimited,
    TenantSpec,
    TokenBucket,
)

NEVER = 30.0
"""A max_wait_s no test waits out (see tests/serve/test_slo.py)."""


def _fixture(domain=32, prf="siphash", seed=0):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 1 << 64, size=domain, dtype=np.uint64)
    server = PirServer(table, prf_name=prf)
    client = PirClient(domain, prf, rng=np.random.default_rng(seed + 1))
    return table, server, client


async def _backlog(loop, frames, queries=None, tenants=None):
    """Submit every frame before the aggregation task runs."""
    tenants = tenants if tenants is not None else [None] * len(frames)
    tasks = [
        asyncio.create_task(loop.submit(frame, tenant=tenant))
        for frame, tenant in zip(frames, tenants)
    ]
    queries = len(frames) if queries is None else queries
    while loop.pending_queries < queries:
        await asyncio.sleep(0)
    return tasks


class TestTokenBucket:
    def test_starts_full_and_depletes(self):
        bucket = TokenBucket(rate_qps=1.0, capacity=2.0, now=0.0)
        assert bucket.try_take(2, now=0.0)
        assert not bucket.try_take(1, now=0.0)

    def test_refills_at_rate_up_to_capacity(self):
        bucket = TokenBucket(rate_qps=2.0, capacity=4.0, now=0.0)
        assert bucket.try_take(4, now=0.0)
        assert not bucket.try_take(1, now=0.4)  # 0.8 tokens accrued
        assert bucket.try_take(1, now=0.5)  # the 0.1s wait tops it to 1
        # A long idle period caps at capacity, not rate * elapsed.
        bucket.try_take(0, now=100.0)
        assert bucket.try_take(4, now=100.0)
        assert not bucket.try_take(1, now=100.0)

    def test_clock_going_backwards_never_mints_tokens(self):
        bucket = TokenBucket(rate_qps=1.0, capacity=1.0, now=10.0)
        assert bucket.try_take(1, now=10.0)
        assert not bucket.try_take(1, now=5.0)  # negative elapsed clamps
        # The rewound call must not have moved the refill mark back:
        # refill accrues from the high-water mark (10.0), so the
        # already-elapsed 5..10 interval is never credited twice.
        assert not bucket.try_take(1, now=10.5)  # only 0.5 tokens since 10
        assert bucket.try_take(1, now=11.0)


class TestTenantSpec:
    def test_capacity_defaults_to_one_second_of_rate(self):
        assert TenantSpec(rate_qps=8.0).capacity == 8.0
        assert TenantSpec(rate_qps=8.0, burst=2.0).capacity == 2.0
        assert TenantSpec().capacity == math.inf  # unlimited

    def test_validation(self):
        with pytest.raises(ValueError, match="rate_qps"):
            TenantSpec(rate_qps=0.0)
        with pytest.raises(ValueError, match="burst"):
            TenantSpec(burst=-1.0)
        with pytest.raises(ValueError, match="qos"):
            TenantSpec(qos="premium")


class TestQosPolicy:
    def test_spec_falls_back_to_default(self):
        policy = QosPolicy(
            tenants={"paid": TenantSpec(rate_qps=100.0, qos=BATCH)},
            default=TenantSpec(qos=INTERACTIVE),
        )
        assert policy.spec("paid").rate_qps == 100.0
        assert policy.qos_class("paid") == BATCH
        assert policy.spec("unknown") is policy.default
        assert policy.qos_class(None) == INTERACTIVE

    def test_admit_is_deterministic_per_clock(self):
        policy = QosPolicy(tenants={"t": TenantSpec(rate_qps=1.0, burst=2.0)})
        decisions = [policy.admit("t", 1, now=0.0) for _ in range(3)]
        assert decisions == [True, True, False]  # burst of 2, then dry
        assert policy.admit("t", 1, now=1.0)  # 1 qps refills one token
        assert policy.admit("other", 10**6, now=0.0)  # unlimited default

    def test_validation(self):
        with pytest.raises(ValueError, match="starvation_s"):
            QosPolicy(starvation_s=-1.0)


class TestRetryPolicy:
    def test_backoff_doubles_per_attempt(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1)
        assert policy.next_backoff_s(1) == pytest.approx(0.1)
        assert policy.next_backoff_s(2) == pytest.approx(0.2)
        assert policy.next_backoff_s(3) == pytest.approx(0.4)

    def test_allows_retry_bounds_attempts_and_budget(self):
        policy = RetryPolicy(max_attempts=3, backoff_s=1.0, backoff_budget_s=2.5)
        assert policy.allows_retry(1, 0.0)  # next backoff 1.0 fits
        assert not policy.allows_retry(3, 0.0)  # attempts exhausted
        assert not policy.allows_retry(2, 1.0)  # 1.0 + 2.0 > 2.5

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_s"):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError, match="backoff_budget_s"):
            RetryPolicy(backoff_budget_s=-1.0)


class _UnpricedBackend(SingleGpuBackend):
    """A backend whose cost model is unavailable."""

    def model_latency_s(self, *args, **kwargs):
        return None


class _RejectingBackend(SingleGpuBackend):
    """A backend whose cost model rejects every shape as infeasible."""

    def model_latency_s(self, *args, **kwargs):
        raise ValueError("no feasible plan at this shape")


class TestDrainTimeModel:
    def test_prices_through_the_analytic_model(self):
        backend = SingleGpuBackend()
        model = DrainTimeModel(backend, flush_batch=8)
        latency = backend.model_latency_s(8, 64, prf_name="siphash")
        qps = model.modeled_qps(64, "siphash", False)
        assert qps == pytest.approx(8 / latency)
        assert model.drain_s(16, 64, "siphash", False) == pytest.approx(16 / qps)
        assert model.drain_s(0, 64, "siphash", False) == 0.0

    def test_prices_a_multi_gpu_backend_as_one_backend(self):
        """A two-GPU backend is still one backend: the model prices its
        sharded plan, which drains faster than one GPU's."""
        backend = MultiGpuBackend([V100, V100])
        model = DrainTimeModel(backend, flush_batch=8)
        latency = backend.model_latency_s(8, 64, prf_name="siphash")
        qps = model.modeled_qps(64, "siphash", False)
        assert qps == pytest.approx(8 / latency)
        single = DrainTimeModel(SingleGpuBackend(), flush_batch=8)
        assert qps > single.modeled_qps(64, "siphash", False)

    def test_unpriced_backend_fails_open(self):
        """No cost model means infinite modeled QPS — drain shedding
        disables itself rather than shedding on a guess."""
        model = DrainTimeModel(_UnpricedBackend(), flush_batch=8)
        assert math.isinf(model.modeled_qps(64, "siphash", False))
        assert model.drain_s(10**9, 64, "siphash", False) == 0.0

    def test_infeasible_shape_fails_open(self):
        """A model that rejects the shape (ValueError) also fails open:
        admit rather than shed on a guess, and never crash the
        admission path."""
        model = DrainTimeModel(_RejectingBackend(), flush_batch=8)
        assert math.isinf(model.modeled_qps(64, "siphash", False))
        assert model.drain_s(10**9, 64, "siphash", False) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="flush_batch"):
            DrainTimeModel(SingleGpuBackend(), flush_batch=0)


class TestTenantRateLimiting:
    def test_over_quota_tenant_sheds_with_rate_limit_reason(self):
        """A limited tenant's burst is admitted, the next query sheds
        with TenantRateLimited — while the server itself has room."""
        table, server, client = _fixture()
        frames = [b.requests[0] for b in client.query_many([1, 2, 3, 4])]
        qos = QosPolicy(tenants={"metered": TenantSpec(rate_qps=1.0, burst=2.0)})

        async def run():
            loop = AsyncPirServer(
                server,
                slo=SloConfig(max_batch=1024, max_wait_s=NEVER),
                qos=qos,
                clock=lambda: 100.0,  # frozen clock: no refill mid-test
            )
            admitted = await _backlog(
                loop, frames[:2], tenants=["metered", "metered"]
            )
            with pytest.raises(TenantRateLimited, match="metered"):
                await loop.submit(frames[2], tenant="metered")
            # An unlimited tenant is still welcome: the limit is the
            # tenant's, not the server's.
            extra = await _backlog(
                loop, frames[3:], queries=3, tenants=["free-rider"]
            )
            await loop.start()
            await loop.stop()
            return loop, await asyncio.gather(*admitted, *extra)

        loop, replies = asyncio.run(run())
        assert loop.stats.shed == 1
        assert loop.stats.shed_reasons == {SHED_RATE_LIMIT: 1}
        assert loop.stats.answered == 3
        assert replies == [server.handle(f) for f in (frames[0], frames[1], frames[3])]

    def test_rate_limited_is_catchable_as_overloaded(self):
        assert issubclass(TenantRateLimited, PirServerOverloaded)
        assert TenantRateLimited("m").reason == SHED_RATE_LIMIT


class TestDrainTimeAdmission:
    """The acceptance scenario: drain-time admission sheds earlier than
    depth-only against a slow (modeled) backend."""

    def _shed_profile(self, drain_budget_s, offered=8, backend=None):
        """Submit `offered` queries under a roomy depth cap; return the
        loop and how many were shed (everything is deterministic: the
        drain model prices through the analytic cost model)."""
        table, server, client = _fixture()
        if backend is not None:
            server = PirServer(table, backend=backend, prf_name="siphash")
        frames = [
            b.requests[0] for b in client.query_many(list(range(offered)))
        ]

        async def run():
            loop = AsyncPirServer(
                server,
                slo=SloConfig(max_batch=4, max_wait_s=NEVER),
                admission=AdmissionConfig(
                    max_pending=1024, drain_budget_s=drain_budget_s
                ),
            )
            tasks = []
            for frame in frames:
                # Sequential submits (the aggregation task is not
                # running yet), so the k-th admission decision sees
                # exactly the k-1 previously admitted queries.
                tasks.append(asyncio.ensure_future(loop.submit(frame)))
                await asyncio.sleep(0)
            await loop.start()
            await loop.stop()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return loop, results

        loop, results = asyncio.run(run())
        shed = [r for r in results if isinstance(r, PirServerOverloaded)]
        answered = [r for r in results if isinstance(r, bytes)]
        return loop, shed, answered

    def test_drain_budget_sheds_what_depth_only_accepts(self):
        """Pin the cutoff: a budget worth 6 queries of modeled drain
        admits exactly 6 of 8 and sheds 2 with SHED_DRAIN, while
        depth-only admission (same depth cap) accepts all 8."""
        model = DrainTimeModel(SingleGpuBackend(), flush_batch=4)
        per_query_s = 1.0 / model.modeled_qps(32, "siphash", False)
        budget = 6.5 * per_query_s  # 6 queries fit, the 7th would not

        loop, shed, answered = self._shed_profile(budget)
        assert len(answered) == 6
        assert len(shed) == 2
        assert all(exc.reason == SHED_DRAIN for exc in shed)
        assert loop.stats.shed_reasons == {SHED_DRAIN: 2}

        depth_only, shed_d, answered_d = self._shed_profile(None)
        assert len(answered_d) == 8
        assert not shed_d
        assert depth_only.stats.shed == 0

    def test_multi_gpu_capacity_raises_the_admission_cutoff(self):
        """Drain admission prices the server's own backend: the budget
        that sheds 2 of 8 on one V100 admits all 8 on two, whose sharded
        plan drains a query in about three quarters of the time."""
        model = DrainTimeModel(SingleGpuBackend(), flush_batch=4)
        per_query_s = 1.0 / model.modeled_qps(32, "siphash", False)
        budget = 6.5 * per_query_s

        _, shed_single, _ = self._shed_profile(budget)
        assert len(shed_single) == 2

        loop, shed_multi, answered = self._shed_profile(
            budget, backend=MultiGpuBackend([V100, V100])
        )
        assert not shed_multi
        assert len(answered) == 8
        assert loop.stats.shed == 0

    def test_depth_cap_still_backstops_the_drain_layer(self):
        """An unpriceable backend disables drain shedding, but the
        max_pending hard cap still sheds — the layers are independent."""
        table, _, client = _fixture()
        server = PirServer(table, backend=_UnpricedBackend(), prf_name="siphash")
        frames = [b.requests[0] for b in client.query_many([1, 2, 3])]

        async def run():
            loop = AsyncPirServer(
                server,
                slo=SloConfig(max_batch=1024, max_wait_s=NEVER),
                admission=AdmissionConfig(max_pending=2, drain_budget_s=1e-12),
            )
            tasks = await _backlog(loop, frames[:2])
            with pytest.raises(PirServerOverloaded) as excinfo:
                await loop.submit(frames[2])
            await loop.start()
            await loop.stop()
            await asyncio.gather(*tasks)
            return loop, excinfo.value

        loop, exc = asyncio.run(run())
        assert exc.reason == SHED_DEPTH
        assert loop.stats.shed_reasons == {SHED_DEPTH: 1}


class TestQosPriority:
    def _completion_order(self, tenants, qos, clock=None, advance=None):
        """Serve one labeled request per tenant through max_batch=2
        flushes; returns labels in completion order (set_result order
        is flush order, so the take order is observable)."""
        table, server, client = _fixture()
        frames = [
            b.requests[0] for b in client.query_many(list(range(len(tenants))))
        ]
        order = []

        async def tracked(loop, frame, label, tenant):
            reply = await loop.submit(frame, tenant=tenant)
            order.append(label)
            return reply

        async def run():
            loop = AsyncPirServer(
                server,
                slo=SloConfig(max_batch=2, max_wait_s=NEVER),
                qos=qos,
                clock=clock if clock is not None else (lambda: 0.0),
            )
            tasks = []
            for i, tenant in enumerate(tenants):
                tasks.append(
                    asyncio.create_task(
                        tracked(loop, frames[i], f"{tenant}:{i}", tenant)
                    )
                )
                while loop.pending_queries < i + 1:
                    await asyncio.sleep(0)
                if advance is not None:
                    advance(i)
            await loop.start()
            await loop.stop()
            replies = await asyncio.gather(*tasks)
            return loop, replies

        loop, replies = asyncio.run(run())
        expected = [server.handle(f) for f in frames]
        assert replies == expected  # priority reorders service, not bits
        return loop, order

    def test_interactive_class_is_taken_first(self):
        """Batch-class requests enqueued *first* are still served after
        interactive ones: the take order is priority, not FIFO."""
        qos = QosPolicy(
            tenants={
                "bulk": TenantSpec(qos=BATCH),
                "ui": TenantSpec(qos=INTERACTIVE),
            }
        )
        loop, order = self._completion_order(
            ["bulk", "bulk", "ui", "ui"], qos
        )
        assert order == ["ui:2", "ui:3", "bulk:0", "bulk:1"]
        assert loop.stats.batches == 2  # two max_batch=2 fused batches

    def test_starved_batch_class_preempts_interactive(self):
        """Once the oldest batch-class query ages past starvation_s it
        is taken ahead of interactive traffic — delayed, never starved."""
        state = {"t": 0.0}
        qos = QosPolicy(
            tenants={
                "bulk": TenantSpec(qos=BATCH),
                "ui": TenantSpec(qos=INTERACTIVE),
            },
            starvation_s=0.05,
        )

        def advance(i):
            if i == 0:  # age the bulk request past the bound
                state["t"] += 1.0

        loop, order = self._completion_order(
            ["bulk", "ui", "ui"],
            qos,
            clock=lambda: state["t"],
            advance=advance,
        )
        # First flush takes the starved bulk request (plus one ui to
        # fill the batch); the remaining ui lands in flush two.
        assert order[0] == "bulk:0"
        assert set(order[1:]) == {"ui:1", "ui:2"}

    def test_untagged_traffic_is_interactive_by_default(self):
        qos = QosPolicy(tenants={"bulk": TenantSpec(qos=BATCH)})
        loop, order = self._completion_order(["bulk", None, None], qos)
        assert order[:2] == ["None:1", "None:2"]
        assert order[2] == "bulk:0"

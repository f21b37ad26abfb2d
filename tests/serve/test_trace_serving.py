"""End-to-end tracing through the serving loop: complete chains, always.

The acceptance criterion for the observability stack, pinned against
the live loop: every query served in a session — including sessions
with batch fusion, un-merge/retry, shard fan-out and replica
failover — yields a trace whose span chain is complete and orphan-free
(``chain_problems`` returns nothing), and tracing never perturbs the
served bytes (traced replies stay bit-identical to the sequential
oracle and to an untraced loop).  Terminal statuses are covered too:
shed, failed, and cancelled queries must close their traces with the
matching status rather than leaking open contexts.
"""

import asyncio
import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import PlanCache, SingleGpuBackend
from repro.obs import (
    NULL_TRACER,
    REQUIRED_STAGES,
    MetricsRegistry,
    Tracer,
    chain_problems,
    read_jsonl,
    write_jsonl,
)
from repro.pir import PirClient, PirServer
from repro.serve import (
    EJECTED,
    HEALTHY,
    AdmissionConfig,
    AsyncPirServer,
    PirServerOverloaded,
    ShardedPirServer,
    SloConfig,
)

from tests.strategies import FaultPlan, FlakyBackend, domain_sizes, fast_prf_names

TRACE_SETTINGS = settings(max_examples=5, deadline=None)
"""Each example runs a traced serving session, an untraced one, and a
sequential oracle, so the property stays affordable."""

_OBS_REPORT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "obs_report.py"


def _fixture(domain=32, prf="siphash", seed=0, backend=None, **server_kwargs):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 1 << 64, size=domain, dtype=np.uint64)
    server = PirServer(table, backend=backend, prf_name=prf, **server_kwargs)
    client = PirClient(domain, prf, rng=np.random.default_rng(seed + 1))
    return table, server, client


def _serve(server, frames, tracer=None, slo=None, **loop_kwargs):
    async def run():
        loop = AsyncPirServer(
            server,
            slo=slo if slo is not None else SloConfig(max_batch=4, max_wait_s=0.02),
            tracer=tracer,
            **loop_kwargs,
        )
        async with loop:
            return loop, await asyncio.gather(*[loop.submit(f) for f in frames])

    return asyncio.run(run())


def _assert_complete(traces, expected):
    answered = [t for t in traces if t.status == "answered"]
    assert len(answered) == len(traces) == expected
    broken = {t.trace_id: chain_problems(t) for t in traces if chain_problems(t)}
    assert not broken, f"incomplete span chains: {broken}"
    return answered


@st.composite
def trace_cases(draw):
    return {
        "domain": draw(domain_sizes(max_size=64)),
        "prf": draw(fast_prf_names),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "max_batch": draw(st.sampled_from((1, 3, 64))),
        "concurrency": draw(st.integers(2, 8)),
    }


class TestTracingChangesNothing:
    @given(case=trace_cases())
    @TRACE_SETTINGS
    def test_traced_replies_bit_identical_with_complete_chains(self, case):
        """The property: traced == untraced == sequential, and every
        answered query's chain is whole."""
        rng = np.random.default_rng(case["seed"])
        table = rng.integers(0, 1 << 64, size=case["domain"], dtype=np.uint64)
        server = PirServer(table, prf_name=case["prf"])
        client = PirClient(
            case["domain"],
            case["prf"],
            rng=np.random.default_rng(case["seed"] + 1),
        )
        indices = rng.integers(
            0, case["domain"], size=case["concurrency"]
        ).tolist()
        frames = [b.requests[0] for b in client.query_many(indices)]
        slo = SloConfig(max_batch=case["max_batch"], max_wait_s=0.02)

        sequential = [server.handle(f) for f in frames]
        _, untraced = _serve(server, frames, slo=slo)
        tracer = Tracer()
        _, traced = _serve(server, frames, tracer=tracer, slo=slo)

        assert traced == untraced == sequential
        answered = _assert_complete(tracer.drain(), len(frames))
        for trace in answered:
            names = {span.name for span in trace.spans}
            assert names == set(REQUIRED_STAGES)


class TestRetryKeepsChainsWhole:
    def test_unmerged_retry_adds_a_balanced_round_and_a_retry_event(self):
        """A fused batch dies once; its queries retry to bit-exact
        answers, each trace carrying one extra queue/merge/plan/dispatch
        round plus a retry event — no orphans."""
        table, server, client = _fixture(
            backend=FlakyBackend(SingleGpuBackend(), FaultPlan.nth(1))
        )
        oracle = PirServer(table, prf_name="siphash")
        frames = [b.requests[0] for b in client.query_many([1, 5, 9, 13])]
        tracer = Tracer()
        loop, replies = _serve(
            server,
            frames,
            tracer=tracer,
            slo=SloConfig(max_batch=4, max_wait_s=0.02),
            max_attempts=3,
        )
        assert replies == [oracle.handle(f) for f in frames]
        assert loop.stats.retried == len(frames)
        answered = _assert_complete(tracer.drain(), len(frames))
        for trace in answered:
            assert "retry" in trace.event_names()
            # One failed dispatch + one successful: two full rounds.
            names = [span.name for span in trace.spans]
            assert names.count("dispatch") == 2
            assert names.count("queue") == 2
            dispatch_spans = [s for s in trace.spans if s.name == "dispatch"]
            assert dispatch_spans[0].annotations.get("error") == "BackendFault"
            assert "error" not in dispatch_spans[1].annotations


class TestFailoverAnnotations:
    def test_replica_failover_lands_on_the_affected_traces(self):
        """Sharded serving with a dying replica: answers stay bit-exact,
        chains stay whole, and the shard layer's failover annotation
        reaches the traces of the queries it rescued."""
        rng = np.random.default_rng(31)
        domain = 64
        table = rng.integers(0, 1 << 64, size=domain, dtype=np.uint64)

        def factory(shard, replica):
            if replica == 0:
                return FlakyBackend(SingleGpuBackend(), FaultPlan.after(1))
            return SingleGpuBackend()

        server = ShardedPirServer(
            table,
            shards=2,
            replicas=2,
            backend_factory=factory,
            rejoin_after=None,
            prf_name="siphash",
        )
        oracle = PirServer(table, prf_name="siphash")
        client = PirClient(domain, "siphash", rng=np.random.default_rng(32))
        indices = rng.integers(0, domain, size=12).tolist()
        frames = [b.requests[0] for b in client.query_many(indices)]
        tracer = Tracer()
        loop, replies = _serve(
            server,
            frames,
            tracer=tracer,
            slo=SloConfig(max_batch=4, max_wait_s=0.02),
            max_attempts=3,
        )
        assert replies == [oracle.handle(f) for f in frames]
        assert server.stats_totals().failovers >= 1
        # Every shard's killed replica is out for good, its sibling serving.
        assert server.replica_states() == [(EJECTED, HEALTHY)] * 2
        answered = _assert_complete(tracer.drain(), len(frames))
        failed_over = [t for t in answered if "failover" in t.event_names()]
        assert failed_over, "no trace carries the shard layer's annotation"
        shard_indices = {
            event["shard"]
            for trace in failed_over
            for event in trace.events
            if event["name"] == "failover"
        }
        assert shard_indices <= {0, 1}


class TestTerminalStatuses:
    def test_shed_query_closes_its_trace_as_shed(self):
        table, server, client = _fixture()
        frames = [b.requests[0] for b in client.query_many([1, 2, 3, 4])]
        tracer = Tracer()

        async def run():
            loop = AsyncPirServer(
                server,
                slo=SloConfig(max_batch=4),
                admission=AdmissionConfig(max_pending=3),
                tracer=tracer,
            )
            tasks = [asyncio.create_task(loop.submit(f)) for f in frames[:3]]
            while loop.pending_queries < 3:
                await asyncio.sleep(0)
            with pytest.raises(PirServerOverloaded):
                await loop.submit(frames[3])
            async with loop:
                await asyncio.gather(*tasks)

        asyncio.run(run())
        traces = tracer.drain()
        statuses = sorted(t.status for t in traces)
        assert statuses == ["answered", "answered", "answered", "shed"]
        (shed,) = [t for t in traces if t.status == "shed"]
        assert "shed" in shed.event_names()
        assert shed.spans[0].annotations.get("shed") == "depth"
        assert shed.open_spans() == []

    def test_exhausted_retries_close_the_trace_as_failed(self):
        table, server, client = _fixture(
            backend=FlakyBackend(SingleGpuBackend(), FaultPlan.after(1))
        )
        frames = [b.requests[0] for b in client.query_many([1, 2])]
        tracer = Tracer()

        async def run():
            loop = AsyncPirServer(
                server,
                slo=SloConfig(max_batch=2, max_wait_s=0.02),
                max_attempts=2,
                tracer=tracer,
            )
            async with loop:
                results = await asyncio.gather(
                    *[loop.submit(f) for f in frames], return_exceptions=True
                )
            return loop, results

        loop, results = asyncio.run(run())
        assert all(isinstance(r, Exception) for r in results)
        assert loop.stats.failed == len(frames)
        traces = tracer.drain()
        assert [t.status for t in traces] == ["failed", "failed"]
        for trace in traces:
            assert "failed" in trace.event_names()
            assert trace.open_spans() == []
            # max_attempts=2: two balanced rounds, then no demux.
            names = [span.name for span in trace.spans]
            assert names.count("dispatch") == 2
            assert names.count("queue") == 2
            assert "demux" not in names

    def test_rejected_frame_closes_its_trace_as_rejected(self):
        # A frame that *parses* but fails key ingestion (wrong domain):
        # rejection happens after the trace opens, so the trace must
        # close as rejected.  (A frame that fails header parsing never
        # gets a trace at all — nothing was admitted.)
        _, server, _ = _fixture(domain=32)
        wrong_client = PirClient(64, "siphash", rng=np.random.default_rng(9))
        frame = wrong_client.query([1]).requests[0]
        tracer = Tracer()

        async def run():
            loop = AsyncPirServer(server, tracer=tracer)
            async with loop:
                with pytest.raises(ValueError):
                    await loop.submit(frame)

        asyncio.run(run())
        (trace,) = tracer.drain()
        assert trace.status == "rejected"
        assert trace.open_spans() == []


class TestMetricsIntegration:
    def test_views_absorb_every_visible_subsystem(self):
        table, _, client = _fixture()
        registry = MetricsRegistry()
        server = PirServer(table, prf_name="siphash", plan_cache=PlanCache())
        frames = [b.requests[0] for b in client.query_many([3, 7])]
        tracer = Tracer(metrics=registry)
        loop, _ = _serve(server, frames, tracer=tracer, metrics=registry)
        snap = registry.snapshot()
        assert {"serving", "plan_cache"} <= set(snap["views"])
        assert snap["views"]["serving"]["answered"] == len(frames)
        assert snap["views"]["serving"]["plan_cache_hits"] == (
            loop.stats.plan_cache_hits
        )
        # Per-stage histograms landed via the tracer.
        assert set(registry.histograms("stage.")) == {
            f"stage.{stage}" for stage in REQUIRED_STAGES
        }

    def test_only_a_sharded_server_gets_a_shards_view(self):
        table, plain, client = _fixture()
        sharded = ShardedPirServer(table, shards=2, prf_name="siphash")
        frames = [b.requests[0] for b in client.query_many([5, 9])]
        views = {}
        for name, server in (("plain", plain), ("sharded", sharded)):
            registry = MetricsRegistry()
            _serve(server, frames, metrics=registry)
            views[name] = registry.snapshot()["views"]
        assert set(views["plain"]) == {"serving"}
        assert set(views["sharded"]) == {"serving", "shards"}
        assert views["sharded"]["shards"] == sharded.stats_totals().as_dict()
        assert views["sharded"]["shards"]["batches"] > 0

    def test_two_loops_share_one_registry_under_unique_names(self):
        table, _, client = _fixture()
        registry = MetricsRegistry()
        servers = [PirServer(table, prf_name="siphash") for _ in range(2)]
        frames = [b.requests[0] for b in client.query_many([1, 2])]

        async def run():
            loops = [
                AsyncPirServer(server, metrics=registry) for server in servers
            ]
            async with loops[0], loops[1]:
                await asyncio.gather(
                    *[loop.submit(f) for loop in loops for f in frames]
                )

        asyncio.run(run())
        views = registry.snapshot()["views"]
        assert {"serving", "serving.2"} <= set(views)
        assert views["serving"]["answered"] == len(frames)
        assert views["serving.2"]["answered"] == len(frames)

    def test_the_loop_takes_no_snapshot_timer(self):
        """Snapshots are the registry's and the export's business: the
        loop takes no ``snapshot_every_s`` and records none itself."""
        table, server, client = _fixture()
        with pytest.raises(TypeError):
            AsyncPirServer(server, metrics=MetricsRegistry(), snapshot_every_s=1.0)
        registry = MetricsRegistry()
        frames = [b.requests[0] for b in client.query_many([1, 2, 3])]
        _serve(server, frames, metrics=registry)
        assert registry.snapshots == []

    def test_export_ends_with_the_drained_loops_terminal_state(self, tmp_path):
        """``write_jsonl(registry=...)`` takes the terminal snapshot the
        loop no longer takes at drain: the export's last snapshot counts
        every query the drained loop answered."""
        table, server, client = _fixture()
        registry = MetricsRegistry()
        frames = [b.requests[0] for b in client.query_many([1, 2, 3])]
        _serve(server, frames, slo=SloConfig(max_batch=1), metrics=registry)
        path = tmp_path / "metrics.jsonl"
        write_jsonl(path, registry=registry)
        traces, snapshots = read_jsonl(path)
        assert traces == [] and len(snapshots) == 1
        assert snapshots[-1]["views"]["serving"]["answered"] == len(frames)


class TestExportReport:
    def test_traced_fault_sessions_render_strict_clean(self, tmp_path, capsys):
        """A retried session and a sharded replica-kill session under
        one tracer and registry export one JSONL file that
        ``scripts/obs_report.py --strict`` renders with every chain
        whole, its traces carrying the retry and failover events."""
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        table, server, client = _fixture(
            backend=FlakyBackend(SingleGpuBackend(), FaultPlan.nth(1))
        )
        frames = [b.requests[0] for b in client.query_many([1, 5, 9, 13])]
        _serve(server, frames, tracer=tracer, metrics=registry)
        sharded = ShardedPirServer(
            table,
            shards=2,
            replicas=2,
            backend_factory=lambda shard, replica: (
                FlakyBackend(SingleGpuBackend(), FaultPlan.after(1))
                if replica == 0
                else SingleGpuBackend()
            ),
            rejoin_after=None,
            prf_name="siphash",
        )
        frames = [b.requests[0] for b in client.query_many([2, 17, 30])]
        _serve(sharded, frames, tracer=tracer, metrics=registry)
        path = tmp_path / "obs.jsonl"
        write_jsonl(path, traces=tracer.drain(), registry=registry)

        spec = importlib.util.spec_from_file_location("obs_report_cli", _OBS_REPORT)
        obs_report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(obs_report)
        assert obs_report.main([str(path), "--strict"]) == 0
        assert "chain integrity: OK" in capsys.readouterr().out
        traces, snapshots = read_jsonl(path)
        assert len(traces) == 7 and snapshots
        events = [{event["name"] for event in t["events"]} for t in traces]
        assert any("retry" in names for names in events)
        assert any("failover" in names for names in events)


class TestDisabledModeDefault:
    def test_loop_defaults_to_the_null_tracer_and_attaches_nothing(self):
        table, server, client = _fixture()
        frames = [b.requests[0] for b in client.query_many([4, 8])]
        loop, replies = _serve(server, frames)
        assert loop.tracer is NULL_TRACER
        assert loop.tracer.drain() == []
        assert replies == [PirServer(table, prf_name="siphash").handle(f) for f in frames]

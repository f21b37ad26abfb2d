#!/usr/bin/env python
"""CI serve-smoke: a short async serving session, checked bit-exact.

Runs concurrent simulated clients against two SLO-aware aggregation
loops (`repro.serve.AsyncPirServer`), each serving from one
`SingleGpuBackend(V100)`, and asserts:

* every reconstructed answer equals the table row (bit-exact through
  batch aggregation and demultiplexing),
* the loops actually aggregated (fused batches larger than one query).

With ``--chaos`` the session additionally kills each party's backend on
its first dispatch (`FlakyBackend` + `FaultPlan.nth(1)` — the
mid-session backend-kill scenario) and asserts the control plane's
fault-tolerance claim end to end: the failed fused batch is un-merged
and retried, no query fails or is shed, and every answer is *still*
bit-exact.

With ``--shards N`` the session serves from a sharded, replicated
front-end (`repro.serve.ShardedPirServer`, N contiguous sub-ranges
with two replicas each) instead, asserting the shard
partials recombine bit-exact through the aggregation loop.  Combined
with ``--chaos``, replica 0 of *every* shard is killed permanently on
its first dispatch mid-session: the replica sets must eject the dead
replicas, fail the in-flight batches over to the surviving siblings,
and every answer must still be bit-exact with zero queries failed.
The healthy sharded session also counts every cipher block the servers
compute and asserts the N shards together did at most 1.05x the blocks
of an unsharded twin answering the same queries — each shard walks only
the GGM window over its own rows, so a backend that falls back to
expanding the whole tree and clipping (N trees of work) fails the smoke.

With ``--steady`` the session instead exercises the persistent-kernel
steady state: both parties serve through a shared-shape
:class:`repro.exec.PlanCache` with double-buffered ingest
(``overlap=True``), under *paced* arrivals so later batches are parsed
while earlier ones run on the dispatch thread.  The smoke asserts the
new ``ServingStats`` counters are live — ``plan_cache_hits > 0`` (the
plan/workspace pair was reused across flushes) and
``overlap_flushes > 0`` (at least one flush hid ingest work) — on top
of the usual bit-exactness checks.

With ``--trace`` the smoke turns the observability stack on and runs
two chaos sessions under one live :class:`repro.obs.Tracer` + shared
:class:`repro.obs.MetricsRegistry`: the backend-kill session (each
party's V100 dies on its first dispatch, every query must be retried
to an answer) and the sharded replica-kill session (replica 0
of every shard dies permanently, in-flight batches fail over to the
surviving siblings).  On top of the usual bit-exactness checks it
asserts *every* answered query carries a complete, orphan-free span
chain (``chain_problems`` returns nothing), retried queries carry
``retry`` events, and failed-over queries carry ``failover``
annotations from the shard layer.  The session's traces and registry
snapshots are exported to ``obs_smoke.jsonl`` for
``scripts/obs_report.py`` to render.

Exit status is the assertion outcome, so this is runnable as a bare CI
step with only numpy installed:

    PYTHONPATH=src python scripts/serve_smoke.py
    PYTHONPATH=src python scripts/serve_smoke.py --chaos
    PYTHONPATH=src python scripts/serve_smoke.py --shards 3
    PYTHONPATH=src python scripts/serve_smoke.py --shards 3 --chaos
    PYTHONPATH=src python scripts/serve_smoke.py --steady
    PYTHONPATH=src python scripts/serve_smoke.py --trace
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.crypto import get_prf  # noqa: E402
from repro.exec import PlanCache, SingleGpuBackend  # noqa: E402
from repro.obs import (  # noqa: E402
    MetricsRegistry,
    Tracer,
    chain_problems,
    write_jsonl,
)
from repro.gpu.device import A100, V100  # noqa: E402
from repro.pir import PirClient, PirServer  # noqa: E402
from repro.serve import (  # noqa: E402
    AsyncPirServer,
    EJECTED,
    FaultPlan,
    FlakyBackend,
    RetryPolicy,
    ShardedPirServer,
    SloConfig,
    generate_load,
)

TABLE_ENTRIES = 256
SHARDED_TABLE_ENTRIES = 2048
"""The sharded session's table: large enough that the ``O(log L)`` blocks
each shard boundary adds are ~1% of a tree, so the 1.05x block bound
separates a pruned walk (~1.01x) from expand-and-clip (Nx)."""
CLIENTS = 24
PRF = "chacha20"


@contextlib.contextmanager
def counted_blocks(prf_name: str):
    """Count the cipher blocks computed through ``prf_name`` while active.

    Wraps the PRF class's two cipher entry points, so the count is what
    the backends really ran, whatever their ``EvalResult.cost`` claims.
    """
    cls = type(get_prf(prf_name))
    pair, single = cls.expand_pair_stacked, cls.expand
    count = {"blocks": 0}

    def counted_pair(self, seeds):
        count["blocks"] += 2 * len(seeds)
        return pair(self, seeds)

    def counted_single(self, seeds, tweak):
        count["blocks"] += len(seeds)
        return single(self, seeds, tweak)

    cls.expand_pair_stacked, cls.expand = counted_pair, counted_single
    try:
        yield count
    finally:
        cls.expand_pair_stacked, cls.expand = pair, single


def run_sharded(chaos: bool, shards: int) -> int:
    """The sharded session: N shards x 2 replicas, optional replica kill."""
    entries = SHARDED_TABLE_ENTRIES
    rng = np.random.default_rng(2024)
    table = rng.integers(0, 1 << 64, size=entries, dtype=np.uint64)
    indices = rng.integers(0, entries, size=CLIENTS).tolist()
    client = PirClient(entries, PRF, rng=np.random.default_rng(7))

    def replica_backend(shard: int, replica: int):
        inner = SingleGpuBackend(A100 if replica else V100)
        if chaos and replica == 0:
            # Replica 0 of every shard dies for good on its first
            # dispatch — the kill lands mid-session, once traffic flows.
            return FlakyBackend(inner, FaultPlan.after(1))
        return inner

    def make_server():
        return ShardedPirServer(
            table,
            shards=shards,
            replicas=2,
            backend_factory=replica_backend,
            retry=RetryPolicy(max_attempts=2),
            rejoin_after=None,  # a killed replica stays dead; no rejoin noise
            prf_name=PRF,
        )

    servers = [make_server() for _ in range(2)]

    async def session():
        loops = [
            AsyncPirServer(
                server,
                slo=SloConfig(max_batch=8, max_wait_s=5e-3),
                retry=RetryPolicy(max_attempts=3),
            )
            for server in servers
        ]
        async with loops[0], loops[1]:
            report = await generate_load(client, loops, indices)
        return report, loops

    with counted_blocks(PRF) as sharded_work:
        report, loops = asyncio.run(session())

    assert report.shed == 0, f"admission control shed {report.shed} queries"
    assert report.answered == CLIENTS, (
        f"answered {report.answered} of {CLIENTS} queries"
    )
    assert np.array_equal(report.answers, table[np.array(report.indices)]), (
        "sharded answers diverged from the table — recombination is broken"
    )
    if not chaos:  # failover re-dispatches batches, so only the healthy run is bounded
        # The unsharded twin: the same clients' keys (generation
        # included, as in the session) through one whole-table server
        # per party.
        with counted_blocks(PRF) as twin_work:
            twins = [PirServer(table, prf_name=PRF) for _ in range(2)]
            for batch in client.query_many(indices):
                for twin, query in zip(twins, batch.requests):
                    twin.handle(query)
        ratio = sharded_work["blocks"] / twin_work["blocks"]
        assert ratio <= 1.05, (
            f"{shards} shards computed {sharded_work['blocks']} cipher blocks, "
            f"{ratio:.2f}x the unsharded twin's {twin_work['blocks']} — a "
            "backend is expanding rows its shard does not hold"
        )
        print(
            f"cipher blocks: {sharded_work['blocks']} across {shards} shards "
            f"vs {twin_work['blocks']} unsharded ({ratio:.3f}x)"
        )
    for party, (server, loop) in enumerate(zip(servers, loops)):
        stats = loop.stats
        totals = server.stats_totals()
        assert server.shard_count == shards
        assert stats.largest_batch > 1, f"party {party} fused no batch"
        assert stats.failed == 0, f"party {party} failed {stats.failed} queries"
        if chaos:
            assert totals.ejections >= shards, (
                f"party {party} ejected {totals.ejections} replicas; every "
                f"shard's replica 0 was killed ({shards} expected)"
            )
            assert totals.failovers >= 1, (
                f"party {party} recorded no failover — the kill never "
                "caught a batch in flight"
            )
            assert all(
                states[0] == EJECTED for states in server.replica_states()
            ), f"party {party} kept a dead replica: {server.replica_states()}"
        print(
            f"party {party}: {stats.answered} queries in {stats.batches} "
            f"batches across {shards}x2 replicas, "
            f"retries={totals.retries} ejections={totals.ejections} "
            f"failovers={totals.failovers}, states={server.replica_states()}"
        )
    label = "serve-smoke (sharded, chaos) ok" if chaos else "serve-smoke (sharded) ok"
    print(
        f"{label}: {report.answered} answers bit-exact across {shards} shards, "
        f"p50={report.p50_ms:.2f}ms p99={report.p99_ms:.2f}ms "
        f"({report.achieved_qps:.0f} qps)"
    )
    return 0


def run_steady() -> int:
    """The steady-state session: plan cache + double-buffered ingest.

    Paced arrivals keep queries landing while earlier fused batches run
    on the dispatch thread, so the overlap path (not just the cache)
    is genuinely exercised; the assertions pin the new counters live.
    """
    clients = 2 * CLIENTS
    rng = np.random.default_rng(2024)
    table = rng.integers(0, 1 << 64, size=TABLE_ENTRIES, dtype=np.uint64)
    indices = rng.integers(0, TABLE_ENTRIES, size=clients).tolist()
    client = PirClient(TABLE_ENTRIES, PRF, rng=np.random.default_rng(7))

    async def session():
        loops = [
            AsyncPirServer(
                PirServer(
                    table,
                    backend=SingleGpuBackend(),
                    prf_name=PRF,
                    plan_cache=PlanCache(),
                ),
                slo=SloConfig(max_batch=8, max_wait_s=5e-3),
                retry=RetryPolicy(max_attempts=3),
                overlap=True,
            )
            for _ in range(2)
        ]
        async with loops[0], loops[1]:
            report = await generate_load(
                client, loops, indices, offered_qps=1500.0
            )
        return report, loops

    report, loops = asyncio.run(session())

    assert report.shed == 0, f"admission control shed {report.shed} queries"
    assert report.answered == clients, (
        f"answered {report.answered} of {clients} queries"
    )
    assert np.array_equal(report.answers, table[np.array(report.indices)]), (
        "steady-state answers diverged from the table"
    )
    for party, loop in enumerate(loops):
        stats = loop.stats
        assert stats.failed == 0, f"party {party} failed {stats.failed} queries"
        assert stats.largest_batch > 1, f"party {party} fused no batch"
        assert stats.plan_cache_hits > 0, (
            f"party {party} never hit the plan cache "
            f"({stats.plan_cache_hits}h/{stats.plan_cache_misses}m over "
            f"{stats.batches} batches) — bucketed keys are not being reused"
        )
        assert stats.plan_cache_hits + stats.plan_cache_misses == stats.batches, (
            f"party {party}: cache lookups "
            f"({stats.plan_cache_hits + stats.plan_cache_misses}) != batches "
            f"({stats.batches}) — some flush bypassed the plan cache"
        )
        assert stats.overlap_flushes > 0, (
            f"party {party} recorded no overlap flush across {stats.batches} "
            "batches — paced ingest never ran concurrently with a dispatch"
        )
        print(
            f"party {party}: {stats.answered} queries in {stats.batches} "
            f"batches, plan_cache={stats.plan_cache_hits}h/"
            f"{stats.plan_cache_misses}m, "
            f"overlap_flushes={stats.overlap_flushes}, "
            f"flush_reasons={stats.flushes}"
        )
    print(
        f"serve-smoke (steady) ok: {report.answered} answers bit-exact "
        f"through a warm plan cache with double-buffered ingest, "
        f"p50={report.p50_ms:.2f}ms p99={report.p99_ms:.2f}ms "
        f"({report.achieved_qps:.0f} qps)"
    )
    return 0


def run_traced(export_path: str = "obs_smoke.jsonl") -> int:
    """The traced chaos sessions: every answer must have a span chain.

    Both parties of both sessions share one tracer and one metrics
    registry (per-loop views register under unique names), so the
    export is a single file covering the whole smoke.  Each logical
    query is submitted to both parties, so a session with N clients
    must finish exactly 2N answered traces.
    """
    registry = MetricsRegistry()
    tracer = Tracer(metrics=registry)
    all_traces = []

    # -- part one: each party's V100 killed on its first dispatch,
    #    every query retried to a bit-exact answer.
    rng = np.random.default_rng(2024)
    table = rng.integers(0, 1 << 64, size=TABLE_ENTRIES, dtype=np.uint64)
    indices = rng.integers(0, TABLE_ENTRIES, size=CLIENTS).tolist()
    client = PirClient(TABLE_ENTRIES, PRF, rng=np.random.default_rng(7))

    async def chaos_session():
        loops = [
            AsyncPirServer(
                PirServer(
                    table,
                    backend=FlakyBackend(SingleGpuBackend(V100), FaultPlan.nth(1)),
                    prf_name=PRF,
                ),
                slo=SloConfig(max_batch=8, max_wait_s=5e-3),
                retry=RetryPolicy(max_attempts=3),
                tracer=tracer,
                metrics=registry,
                snapshot_every_s=2e-3,
            )
            for _ in range(2)
        ]
        async with loops[0], loops[1]:
            report = await generate_load(client, loops, indices)
        return report, loops

    report, loops = asyncio.run(chaos_session())
    assert report.shed == 0, f"admission control shed {report.shed} queries"
    assert report.answered == CLIENTS, (
        f"answered {report.answered} of {CLIENTS} queries"
    )
    assert np.array_equal(report.answers, table[np.array(report.indices)]), (
        "traced chaos answers diverged from the table — tracing must "
        "never change the computation"
    )
    traces = tracer.drain()
    answered = [t for t in traces if t.status == "answered"]
    assert len(answered) == len(traces) == 2 * CLIENTS, (
        f"expected {2 * CLIENTS} answered traces (one per query per "
        f"party), got {len(answered)} answered of {len(traces)} total"
    )
    broken = {t.trace_id: chain_problems(t) for t in answered if chain_problems(t)}
    assert not broken, f"incomplete span chains after retry: {broken}"
    retried_traces = [t for t in answered if "retry" in t.event_names()]
    total_retried = sum(loop.stats.retried for loop in loops)
    assert total_retried > 0 and retried_traces, (
        f"the injected faults never forced a retry "
        f"(stats={total_retried}, traces={len(retried_traces)})"
    )
    all_traces.extend(traces)
    print(
        f"traced chaos ok: {len(answered)} complete span chains, "
        f"{len(retried_traces)} with retry events "
        f"(stats.retried={total_retried})"
    )

    # -- part two: sharded 2x2, replica 0 of every shard killed for
    #    good; failed-over queries must carry failover annotations.
    shards = 2
    indices = rng.integers(0, TABLE_ENTRIES, size=CLIENTS).tolist()
    client = PirClient(TABLE_ENTRIES, PRF, rng=np.random.default_rng(11))

    def replica_backend(shard: int, replica: int):
        inner = SingleGpuBackend(A100 if replica else V100)
        if replica == 0:
            return FlakyBackend(inner, FaultPlan.after(1))
        return inner

    servers = [
        ShardedPirServer(
            table,
            shards=shards,
            replicas=2,
            backend_factory=replica_backend,
            retry=RetryPolicy(max_attempts=2),
            rejoin_after=None,
            prf_name=PRF,
        )
        for _ in range(2)
    ]

    async def sharded_session():
        loops = [
            AsyncPirServer(
                server,
                slo=SloConfig(max_batch=8, max_wait_s=5e-3),
                retry=RetryPolicy(max_attempts=3),
                tracer=tracer,
                metrics=registry,
                snapshot_every_s=2e-3,
            )
            for server in servers
        ]
        async with loops[0], loops[1]:
            report = await generate_load(client, loops, indices)
        return report, loops

    report, loops = asyncio.run(sharded_session())
    assert report.shed == 0, f"admission control shed {report.shed} queries"
    assert report.answered == CLIENTS, (
        f"answered {report.answered} of {CLIENTS} queries"
    )
    assert np.array_equal(report.answers, table[np.array(report.indices)]), (
        "traced sharded answers diverged from the table"
    )
    traces = tracer.drain()
    answered = [t for t in traces if t.status == "answered"]
    assert len(answered) == len(traces) == 2 * CLIENTS, (
        f"expected {2 * CLIENTS} answered traces, got {len(answered)} "
        f"answered of {len(traces)} total"
    )
    broken = {t.trace_id: chain_problems(t) for t in answered if chain_problems(t)}
    assert not broken, f"incomplete span chains after failover: {broken}"
    failed_over = [t for t in answered if "failover" in t.event_names()]
    total_failovers = sum(s.stats_totals().failovers for s in servers)
    assert total_failovers > 0 and failed_over, (
        f"the replica kills never caught a batch in flight "
        f"(stats={total_failovers}, traces={len(failed_over)})"
    )
    all_traces.extend(traces)
    print(
        f"traced sharded chaos ok: {len(answered)} complete span chains, "
        f"{len(failed_over)} with failover annotations "
        f"(stats.failovers={total_failovers})"
    )

    records = write_jsonl(export_path, traces=all_traces, registry=registry)
    print(
        f"serve-smoke (trace) ok: {len(all_traces)} traces, zero orphaned "
        f"spans; exported {records} records -> {export_path}"
    )
    return 0


def main(
    chaos: bool = False,
    shards: int = 0,
    steady: bool = False,
    traced: bool = False,
) -> int:
    if traced:
        if chaos or shards or steady:
            raise SystemExit(
                "--trace does not combine with other session flags"
            )
        return run_traced()
    if steady:
        if chaos or shards:
            raise SystemExit("--steady does not combine with --chaos/--shards")
        return run_steady()
    if shards:
        return run_sharded(chaos, shards)
    rng = np.random.default_rng(2024)
    table = rng.integers(0, 1 << 64, size=TABLE_ENTRIES, dtype=np.uint64)
    indices = rng.integers(0, TABLE_ENTRIES, size=CLIENTS).tolist()
    client = PirClient(TABLE_ENTRIES, PRF, rng=np.random.default_rng(7))

    def backend():
        if chaos:
            # The first fused batch dies; every retry finds the
            # backend recovered.
            return FlakyBackend(SingleGpuBackend(V100), FaultPlan.nth(1))
        return SingleGpuBackend(V100)

    async def session():
        loops = [
            AsyncPirServer(
                PirServer(table, backend=backend(), prf_name=PRF),
                slo=SloConfig(max_batch=8, max_wait_s=5e-3),
                retry=RetryPolicy(max_attempts=3),
            )
            for _ in range(2)
        ]
        async with loops[0], loops[1]:
            report = await generate_load(client, loops, indices)
        return report, loops

    report, loops = asyncio.run(session())

    assert report.shed == 0, f"admission control shed {report.shed} queries"
    assert report.answered == CLIENTS, (
        f"answered {report.answered} of {CLIENTS} queries"
    )
    assert np.array_equal(report.answers, table[np.array(report.indices)]), (
        "served answers diverged from the table"
    )
    for party, loop in enumerate(loops):
        stats = loop.stats
        assert stats.batches < CLIENTS, (
            f"party {party} never aggregated: {stats.batches} batches "
            f"for {CLIENTS} queries"
        )
        assert stats.largest_batch > 1, f"party {party} fused no batch"
        if chaos:
            assert stats.retried > 0, (
                f"party {party} saw no retries — the injected fault "
                "never hit a fused batch"
            )
            assert stats.failed == 0, (
                f"party {party} failed {stats.failed} queries; the retry "
                "path should have recovered all of them"
            )
            assert stats.failures.get("BackendFault", 0) >= 1, (
                f"party {party} recorded no BackendFault dispatch "
                f"failure: {stats.failures}"
            )
        print(
            f"party {party}: {stats.answered} queries in {stats.batches} "
            f"batches (largest {stats.largest_batch}, mean "
            f"{stats.mean_batch:.1f}), flushes={stats.flushes}"
            + (
                f", retried={stats.retried}, failures={stats.failures}"
                if chaos
                else ""
            )
        )
    label = "serve-smoke (chaos) ok" if chaos else "serve-smoke ok"
    print(
        f"{label}: {report.answered} answers bit-exact, "
        f"p50={report.p50_ms:.2f}ms p99={report.p99_ms:.2f}ms "
        f"({report.achieved_qps:.0f} qps"
        + (f", {report.retried} queries retried)" if chaos else ")")
    )
    return 0


def _parse_shards(argv: list[str]) -> int:
    if "--shards" not in argv:
        return 0
    try:
        shards = int(argv[argv.index("--shards") + 1])
    except (IndexError, ValueError):
        raise SystemExit("--shards needs an integer argument")
    if shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {shards}")
    return shards


if __name__ == "__main__":
    raise SystemExit(
        main(
            chaos="--chaos" in sys.argv[1:],
            shards=_parse_shards(sys.argv[1:]),
            steady="--steady" in sys.argv[1:],
            traced="--trace" in sys.argv[1:],
        )
    )

"""Timing harness for full-domain DPF evaluation.

Methodology (see ``docs/performance.md``):

* Keys are generated once per case from a fixed RNG seed, so repeated
  runs measure the same work.
* Each case runs ``warmup`` untimed iterations (populating cipher
  scratch buffers and caches), then ``repeats`` timed iterations; the
  *minimum* wall time is reported, which is the standard way to reject
  scheduler noise on a shared machine.
* ``prf_blocks`` is the analytic count from the strategy cost model
  (for strategies) or the reference ``2 * (2**n - 1)`` per query (for
  the reference evaluator), so ``ns_per_prf_block`` is comparable
  across strategies that do different amounts of recomputation.
* ``peak_mem_bytes`` comes from one extra metered run through
  :class:`~repro.gpu.memory.MemoryMeter` (the Figure 6 working set);
  the timed runs are unmetered.
* Unless disabled, every case's output is verified bit-identical to
  ``repro.dpf.dpf.eval_full`` before timing — a benchmark of a wrong
  kernel is worse than no benchmark.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.baselines import CpuBackend
from repro.crypto import available_prfs, get_prf
from repro.dpf import eval_full, gen, pack_keys, unpack_keys
from repro.exec import (
    EvalRequest,
    HybridBackend,
    MultiProcessBackend,
    PlanCache,
    SingleGpuBackend,
)
from repro.gpu import (
    ExpansionWorkspace,
    KeyArena,
    MemoryMeter,
    V100,
    available_strategies,
    get_strategy,
)
from repro.obs import MetricsRegistry, Tracer, chain_problems
from repro.pir import PirClient, PirServer
from repro.serve import (
    BATCH,
    INTERACTIVE,
    AdmissionConfig,
    AsyncPirServer,
    FaultPlan,
    FlakyBackend,
    LoadReport,
    QosPolicy,
    RetryPolicy,
    ShardedPirServer,
    SloConfig,
    TenantSpec,
    generate_load,
)

REFERENCE = "reference"
"""Pseudo-strategy name for the reference ``dpf.eval_full`` walk."""

INGEST = "ingest"
"""Pseudo-strategy name for the wire->arena ingestion micro-benchmark.

An ``ingest`` case times *key ingestion only* — turning a batch of
received keys into an evaluable :class:`~repro.gpu.arena.KeyArena` —
with ``qps`` meaning keys ingested per second.  The ``ingest`` axis
selects the path: ``"wire"`` is the vectorized
:meth:`KeyArena.from_wire` parse, ``"objects"`` the per-key
``DpfKey.from_bytes`` loop plus stacking that a server without the
arena would run.
"""

PIR_ROUNDTRIP = "pir_roundtrip"
"""Pseudo-strategy name for the end-to-end two-server PIR round trip.

A ``pir_roundtrip`` case times the full pipeline — client query
generation, wire framing, both servers' full-domain evaluation and
table dot product, and answer reconstruction — against two
:class:`~repro.pir.PirServer` instances on a
:class:`~repro.exec.SingleGpuBackend`; ``qps`` means *retrieved
entries* per second.  The ``ingest`` axis selects the serving path:

* ``"objects"`` — key objects handed to ``answer_shares`` (keys are
  generated outside the timed region, so this isolates server-side
  evaluation plus combine).
* ``"wire"`` — the full framed protocol including client key
  generation, ``pack_keys``, and frame parse on every iteration.
* ``"arena"`` — the framed protocol against resident-keys servers
  (the residency hint flows through the backend's planner).
"""

SERVING = "serving"
"""Pseudo-strategy name for the async batch-aggregation serving loop.

A ``serving`` case runs a short asyncio session: ``batch`` independent
single-query clients fire framed queries at two
:class:`~repro.serve.AsyncPirServer` loops (one per non-colluding
party), paced to ``offered_qps`` queries/s (0 = one unpaced burst),
with the aggregation deadline set to ``slo_ms``.  ``qps`` is *answered*
queries per second of session wall time, and the row additionally
reports ``p50_ms`` / ``p99_ms`` request latency — the SLO-facing
numbers — plus the control-plane counters ``shed`` / ``retried`` /
``failed``.  Every session's reconstructed answers are verified
bit-exact against the table before the timed sessions run.

Two control-plane scenario axes ride on serving cases:

* ``chaos="fail_once"`` wraps each party's backend in a
  :class:`~repro.serve.FlakyBackend` that kills the *first* dispatched
  batch (fail-once-then-recover), so the row's throughput and
  percentiles include the retry/requeue recovery cost; verification
  additionally requires that retries happened and every answer is
  still bit-exact — the chaos-tolerance claim as a bench row.
* ``qos="mixed"`` tags alternating requests with an interactive-class
  and a batch-class tenant under a :class:`~repro.serve.QosPolicy`,
  and reports per-class p99 (``interactive_p99_ms`` / ``batch_p99_ms``)
  so the priority separation is a measured number, not a promise.

Sharded scenarios ride on the same family: ``shards > 0`` serves the
session from a :class:`~repro.serve.ShardedPirServer` (``shards``
contiguous sub-ranges, ``replicas`` backends each) instead of a plain
:class:`~repro.pir.PirServer`, and ``chaos="replica_kill"`` permanently
kills replica 0 of every shard from its first dispatch — the row's
latency includes the retry/eject/failover recovery cost, and the
``ejections`` / ``failovers`` counters report the health transitions
the session actually took.  Verification still requires every answer
bit-exact against the table, so a sharded row is also a recombination
correctness check under fire.
"""

SERVING_CHAOS_MODES = ("", "fail_once", "replica_kill")
"""Accepted ``chaos`` axis values for :data:`SERVING` cases.

``fail_once`` is the loop-level scenario (each party's backend kills
its first fused batch; the aggregation loop retries).  ``replica_kill``
is the shard-level scenario (replica 0 of every shard dies for good;
the replica set ejects it and fails the in-flight batch over to a
sibling) and therefore requires ``shards > 0`` and ``replicas >= 2``.
"""

SERVING_QOS_MODES = ("", "mixed")
"""Accepted ``qos`` axis values for :data:`SERVING` cases."""

INGEST_MODES = ("objects", "wire", "arena")
"""How ``eval_batch`` receives its keys at each grid point.

* ``"objects"`` — a list of ``DpfKey`` objects, stacked per call (the
  pre-arena path, and the default).
* ``"wire"`` — concatenated wire bytes, parsed into a fresh
  :class:`KeyArena` inside the timed region (a stateless server).
* ``"arena"`` — a persistent arena + :class:`ExpansionWorkspace` built
  once outside the timed region (a resident-keys server); the timed
  work is evaluation only.
"""

BACKEND_SELECT = "backend_select"
"""Pseudo-strategy name for the CPU-vs-GPU-vs-hybrid comparison family.

A ``backend_select`` case prices one execution backend — selected by
the ``backend`` axis (see :data:`BACKEND_SELECT_BACKENDS`) — at one
(PRF, batch, table-size) shape: the paper's Figure 10 crossover study.
``seconds`` is the backend's **modeled** per-batch latency
(``model_latency_s``), not wall time: the GPU side is an analytic
device model (there is no physical GPU here), and pricing both sides
through their models is the only apples-to-apples comparison — the
same numbers the fleet router and drain-time admission act on.
``qps`` is ``batch / seconds``.

Before any row is reported, the case's backend *functionally* serves
the batch (``backend.run``) and the answers are verified bit-exact
against the reference ``eval_full`` walk — the hybrid's routing
decision must never change answers, only cost.  ``hybrid`` rows route
through :class:`~repro.exec.HybridBackend` over the same CPU spec and
V100 model the ``cpu`` / ``gpu`` rows price, so at every grid point
the hybrid row's QPS is the max of its twins' by construction; the
checked-in artifact makes that an auditable number.
"""

BACKEND_SELECT_BACKENDS = ("cpu", "gpu", "hybrid")
"""Accepted ``backend`` axis values for :data:`BACKEND_SELECT` cases.

``cpu`` is the AES-NI-aware :class:`~repro.baselines.CpuBackend` on
the calibrated :data:`~repro.baselines.CPU_BASELINE` spec; ``gpu`` is
a :class:`~repro.exec.SingleGpuBackend` on the V100 model (the paper's
device); ``hybrid`` is a :class:`~repro.exec.HybridBackend` routing
between those two by modeled crossover.
"""

SCHEMA_VERSION = 10
"""Bumped to 10 with end-to-end request tracing: :data:`SERVING` rows
grow ``stage_p50_ms`` / ``stage_p99_ms`` — per-pipeline-stage latency
percentiles (admit/queue/merge/plan/dispatch/demux, in milliseconds)
extracted from the reported session's ``stage.*`` trace histograms
(:mod:`repro.obs`) — and serving verification additionally asserts
that every answered query's trace is a complete, orphan-free span
chain.  Empty dicts on every non-serving family.  Schema 9 added
hybrid CPU/GPU execution: the
:data:`BACKEND_SELECT` family (Figure 10 — CPU baseline vs V100 model
vs cost-model-routed hybrid at every grid shape, answers verified
bit-exact before pricing) and the ``backend`` axis on cases and
results ("" for every other family).  Schema 8 added persistent-kernel
serving: serving cases grew the
``plan_cache`` axis (memoized plans + pinned workspaces + overlapped
ingest, interleaved next to its cold twin) and the ``procs`` axis
(replica backends served by a :class:`~repro.exec.MultiProcessBackend`
worker pool of that size; 0 = in-process), and results grew the
``plan_cache_hits`` / ``plan_cache_misses`` / ``overlap_flushes``
steady-state counters.  Schema 7 added sharded serving (``shards`` /
``replicas`` axes, ``"replica_kill"`` chaos, ``ejections`` /
``failovers`` counters); schema 6 the serving control plane (``chaos``
/ ``qos`` axes, ``shed`` / ``retried`` / ``failed`` counters,
per-class percentiles); schema 5 the ``serving`` family itself."""


@dataclass(frozen=True)
class BenchCase:
    """One grid point: what to run and how often.

    Attributes:
        prf: PRF registry name.
        strategy: Strategy registry name, :data:`REFERENCE` for the
            reference evaluator, or :data:`INGEST` for the ingestion
            micro-benchmark.
        batch: Queries per invocation (the reference path loops).
        log_domain: Table size exponent; L = 2**log_domain.
        ingest: Key ingestion mode (see :data:`INGEST_MODES`).
        repeats: Timed iterations (min is reported).
        warmup: Untimed warm-up iterations.
        offered_qps: :data:`SERVING` cases only — client pacing target
            in queries/s (0 = one unpaced burst).
        slo_ms: :data:`SERVING` cases only — the aggregation loop's
            ``max_wait_s`` deadline, in milliseconds.
        chaos: :data:`SERVING` cases only — fault-injection scenario
            (see :data:`SERVING_CHAOS_MODES`; "" = healthy backends).
        qos: :data:`SERVING` cases only — traffic-class scenario (see
            :data:`SERVING_QOS_MODES`; "" = one implicit class).
        shards: :data:`SERVING` cases only — serve from a
            :class:`~repro.serve.ShardedPirServer` split into this many
            contiguous sub-ranges (0 = the plain unsharded server).
        replicas: :data:`SERVING` cases only — backends per shard
            (meaningful only with ``shards > 0``).
        plan_cache: :data:`SERVING` cases only — serve through a
            :class:`~repro.exec.PlanCache` (memoized plans, pinned
            workspaces, pow2 bucketing) with double-buffered ingest
            (``overlap=True`` on the aggregation loop).  The
            steady-state serving configuration; off prices the cold
            per-batch path.
        procs: :data:`SERVING` cases only — back every replica with a
            :class:`~repro.exec.MultiProcessBackend` pool of this many
            worker processes (0 = in-process backends; needs
            ``shards > 0``).
        backend: :data:`BACKEND_SELECT` cases only — which execution
            backend to price (see :data:`BACKEND_SELECT_BACKENDS`).
    """

    prf: str
    strategy: str
    batch: int
    log_domain: int
    ingest: str = "objects"
    repeats: int = 3
    warmup: int = 1
    offered_qps: float = 0.0
    slo_ms: float = 0.0
    chaos: str = ""
    qos: str = ""
    shards: int = 0
    replicas: int = 1
    plan_cache: bool = False
    procs: int = 0
    backend: str = ""

    @property
    def domain_size(self) -> int:
        return 1 << self.log_domain

    def describe(self) -> str:
        """The aligned one-line label used for progress, --list and
        --filter matching."""
        label = (
            f"{self.prf:12s} {self.strategy:18s} {self.ingest:8s} "
            f"B={self.batch:<3d} L=2^{self.log_domain}"
        )
        if self.strategy == SERVING:
            load = f"{self.offered_qps:g}" if self.offered_qps > 0 else "burst"
            label += f" load={load} slo={self.slo_ms:g}ms"
            if self.shards:
                label += f" shards={self.shards}x{self.replicas}"
            if self.plan_cache:
                label += " cache=on"
            if self.procs:
                label += f" procs={self.procs}"
            if self.chaos:
                label += f" chaos={self.chaos}"
            if self.qos:
                label += f" qos={self.qos}"
        if self.strategy == BACKEND_SELECT:
            label += f" backend={self.backend}"
        return label


@dataclass(frozen=True)
class BenchResult:
    """Measured numbers for one :class:`BenchCase`.

    ``offered_qps`` / ``slo_ms`` / ``chaos`` / ``qos`` echo the case
    axes; ``p50_ms`` / ``p99_ms`` are per-request latency percentiles;
    ``shed`` / ``retried`` / ``failed`` count queries the reported
    session shed at admission, requeued after a backend failure, and
    failed after retry exhaustion; ``interactive_p99_ms`` /
    ``batch_p99_ms`` are per-class percentiles for ``qos="mixed"``
    rows.  ``shards`` / ``replicas`` echo the sharding axes and
    ``ejections`` / ``failovers`` sum the replica-health transitions
    across both parties' reported sessions (nonzero only for
    ``chaos="replica_kill"`` rows).  ``plan_cache`` / ``procs`` echo
    the steady-state axes, and ``plan_cache_hits`` /
    ``plan_cache_misses`` / ``overlap_flushes`` sum the reported
    sessions' serving-loop counters (nonzero only for
    ``plan_cache=True`` rows).  ``stage_p50_ms`` / ``stage_p99_ms``
    map pipeline stage name (admit/queue/merge/plan/dispatch/demux) to
    that stage's latency percentile in milliseconds across the
    reported session's traced queries — the schema-10 per-stage timing
    columns (empty dicts on non-serving families).  All are meaningful
    for :data:`SERVING`
    rows and 0/"" elsewhere.  ``backend`` echoes the
    :data:`BACKEND_SELECT` axis ("" for every other family); for those
    rows ``seconds`` is the backend's *modeled* per-batch latency (see
    the family docstring) and ``verified`` certifies the functional
    bit-exactness run that preceded pricing.
    """

    prf: str
    strategy: str
    batch: int
    log_domain: int
    ingest: str
    domain_size: int
    seconds: float
    qps: float
    prf_blocks: int
    ns_per_prf_block: float
    peak_mem_bytes: int
    verified: bool
    offered_qps: float = 0.0
    slo_ms: float = 0.0
    chaos: str = ""
    qos: str = ""
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    shed: int = 0
    retried: int = 0
    failed: int = 0
    interactive_p99_ms: float = 0.0
    batch_p99_ms: float = 0.0
    shards: int = 0
    replicas: int = 1
    ejections: int = 0
    failovers: int = 0
    plan_cache: bool = False
    procs: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    overlap_flushes: int = 0
    stage_p50_ms: dict = field(default_factory=dict)
    stage_p99_ms: dict = field(default_factory=dict)
    backend: str = ""


def _reference_blocks(batch: int, log_domain: int) -> int:
    """PRF blocks of the reference walk: two per inner node of the
    2^(n-1)-leaf word-packed tree, 2(2^(n-1) - 1) per query."""
    return batch * (2 ** max(log_domain, 1) - 2)


def _make_keys(case: BenchCase, seed: int = 7) -> list:
    prf = get_prf(case.prf)
    rng = np.random.default_rng(seed)
    keys = []
    for i in range(case.batch):
        alpha = int(rng.integers(0, case.domain_size))
        k0, k1 = gen(alpha, case.domain_size, prf, rng, beta=i + 1)
        keys.append(k0 if i % 2 else k1)
    return keys


def _time_work(case: BenchCase, work: Callable[[], object]) -> float:
    for _ in range(case.warmup):
        work()
    best = float("inf")
    for _ in range(case.repeats):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def _result(
    case: BenchCase,
    seconds: float,
    prf_blocks: int,
    peak_mem: int,
    verified: bool,
    p50_ms: float = 0.0,
    p99_ms: float = 0.0,
    shed: int = 0,
    retried: int = 0,
    failed: int = 0,
    interactive_p99_ms: float = 0.0,
    batch_p99_ms: float = 0.0,
    ejections: int = 0,
    failovers: int = 0,
    plan_cache_hits: int = 0,
    plan_cache_misses: int = 0,
    overlap_flushes: int = 0,
    stage_p50_ms: dict | None = None,
    stage_p99_ms: dict | None = None,
) -> BenchResult:
    return BenchResult(
        prf=case.prf,
        strategy=case.strategy,
        batch=case.batch,
        log_domain=case.log_domain,
        ingest=case.ingest,
        domain_size=case.domain_size,
        seconds=seconds,
        qps=case.batch / seconds,
        prf_blocks=prf_blocks,
        ns_per_prf_block=seconds * 1e9 / prf_blocks if prf_blocks else 0.0,
        peak_mem_bytes=peak_mem,
        verified=verified,
        offered_qps=case.offered_qps,
        slo_ms=case.slo_ms,
        chaos=case.chaos,
        qos=case.qos,
        p50_ms=p50_ms,
        p99_ms=p99_ms,
        shed=shed,
        retried=retried,
        failed=failed,
        interactive_p99_ms=interactive_p99_ms,
        batch_p99_ms=batch_p99_ms,
        shards=case.shards,
        replicas=case.replicas,
        ejections=ejections,
        failovers=failovers,
        plan_cache=case.plan_cache,
        procs=case.procs,
        plan_cache_hits=plan_cache_hits,
        plan_cache_misses=plan_cache_misses,
        overlap_flushes=overlap_flushes,
        stage_p50_ms=stage_p50_ms if stage_p50_ms is not None else {},
        stage_p99_ms=stage_p99_ms if stage_p99_ms is not None else {},
        backend=case.backend,
    )


def _select_case_backend(name: str):
    """Build the execution backend a :data:`BACKEND_SELECT` case prices."""
    if name == "cpu":
        return CpuBackend()
    if name == "gpu":
        return SingleGpuBackend(V100)
    if name == "hybrid":
        return HybridBackend([CpuBackend(), SingleGpuBackend(V100)])
    raise ValueError(
        f"unknown backend {name!r} for a backend_select case; "
        f"use one of {BACKEND_SELECT_BACKENDS}"
    )


def _run_backend_select_case(case: BenchCase, verify: bool) -> BenchResult:
    """Price one backend at one shape; ``seconds`` is modeled latency.

    The functional run (and its bit-exact check against the reference
    walk) always precedes pricing, so a row can never report a cost
    for a backend that answers wrongly.
    """
    backend = _select_case_backend(case.backend)
    keys = _make_keys(case)
    result = backend.run(EvalRequest(keys=keys, prf_name=case.prf))
    verified = False
    if verify:
        prf = get_prf(case.prf)
        want = np.stack([eval_full(key, prf) for key in keys])
        if not np.array_equal(result.answers, want):
            raise ValueError(
                f"{case.backend} backend output diverged from the "
                f"reference for {case}"
            )
        verified = True
    seconds = backend.model_latency_s(case.batch, case.domain_size, case.prf)
    if seconds is None or seconds <= 0:
        raise ValueError(
            f"{case.backend} backend cannot price {case.describe()!r}"
        )
    return _result(
        case,
        seconds,
        result.cost.prf_blocks,
        result.cost.peak_mem_bytes,
        verified,
    )


def _run_ingest_case(case: BenchCase, keys: list, verify: bool) -> BenchResult:
    """Time wire->arena ingestion only; ``qps`` is keys per second."""
    wire = pack_keys(keys)
    if case.ingest == "wire":
        def work() -> KeyArena:
            return KeyArena.from_wire(wire)
    elif case.ingest == "objects":
        def work() -> KeyArena:
            return KeyArena.from_keys(unpack_keys(wire))
    else:
        raise ValueError(
            f"ingest cases time 'wire' or 'objects' ingestion, got {case.ingest!r}"
        )
    verified = False
    if verify:
        if KeyArena.from_wire(wire) != KeyArena.from_keys(keys):
            raise ValueError(f"from_wire diverged from from_keys for {case}")
        verified = True
    return _result(case, _time_work(case, work), 0, 0, verified)


def _run_pir_case(case: BenchCase, verify: bool) -> BenchResult:
    """Time the end-to-end two-server round trip; see :data:`PIR_ROUNDTRIP`."""
    rng = np.random.default_rng(11)
    table = rng.integers(0, 1 << 64, size=case.domain_size, dtype=np.uint64)
    resident = case.ingest == "arena"
    servers = [
        PirServer(table, backend=SingleGpuBackend(), prf_name=case.prf, resident=resident)
        for _ in range(2)
    ]
    client = PirClient(case.domain_size, case.prf, rng=np.random.default_rng(13))
    indices = rng.integers(0, case.domain_size, size=case.batch).tolist()

    if case.ingest == "objects":
        keys_0, keys_1 = client.generate_keys(indices)

        def work() -> np.ndarray:
            return (
                servers[0].answer_shares(keys_0) + servers[1].answer_shares(keys_1)
            ).astype(np.uint64)

    elif case.ingest in ("wire", "arena"):

        def work() -> np.ndarray:
            batch = client.query(indices)
            return client.reconstruct(
                batch,
                servers[0].handle(batch.requests[0]),
                servers[1].handle(batch.requests[1]),
            )

    else:
        raise ValueError(f"unknown ingest mode {case.ingest!r}; use {INGEST_MODES}")

    verified = False
    if verify:
        if not np.array_equal(work(), table[np.array(indices)]):
            raise ValueError(f"PIR round trip diverged from the table for {case}")
        verified = True
    return _result(case, _time_work(case, work), 0, 0, verified)


def _run_serving_case(case: BenchCase, verify: bool) -> BenchResult:
    """Run asyncio serving sessions; see :data:`SERVING`.

    Each session is ``case.batch`` independent single-query clients
    against two aggregation loops on :class:`SingleGpuBackend`; the
    fastest of ``case.repeats`` sessions is reported (after ``warmup``
    untimed sessions), with that session's latency percentiles and
    control-plane counters.  ``chaos="fail_once"`` wraps each party's
    backend so its first dispatch dies (the recovery cost lands in the
    row); ``qos="mixed"`` splits clients into an interactive-class and
    a batch-class tenant and reports per-class p99.

    With ``case.shards > 0`` each party serves from a
    :class:`ShardedPirServer` (``case.replicas`` backends per shard)
    and the row additionally reports the summed replica-health
    counters; ``chaos="replica_kill"`` permanently kills replica 0 of
    every shard from its first dispatch, so the row prices ejection
    plus failover rather than a transient retry.

    With ``case.plan_cache`` each party serves through a fresh
    :class:`~repro.exec.PlanCache` and the aggregation loop runs with
    ``overlap=True`` (double-buffered ingest) — the steady-state
    configuration, priced against its cold twin; the row reports the
    summed plan-cache and overlap counters.  With ``case.procs > 0``
    every shard replica is a :class:`~repro.exec.MultiProcessBackend`
    pool of that many workers (closed after each session), so the row
    prices real process-parallel serving.
    """
    if case.slo_ms <= 0:
        raise ValueError(f"serving cases need a positive slo_ms, got {case.slo_ms}")
    if case.chaos not in SERVING_CHAOS_MODES:
        raise ValueError(
            f"unknown chaos mode {case.chaos!r}; use {SERVING_CHAOS_MODES}"
        )
    if case.qos not in SERVING_QOS_MODES:
        raise ValueError(f"unknown qos mode {case.qos!r}; use {SERVING_QOS_MODES}")
    if case.shards < 0 or case.replicas < 1:
        raise ValueError(
            f"serving cases need shards >= 0 and replicas >= 1, got "
            f"shards={case.shards} replicas={case.replicas}"
        )
    if case.replicas > 1 and not case.shards:
        raise ValueError("replicas > 1 needs a sharded server (shards > 0)")
    if case.chaos == "replica_kill" and (not case.shards or case.replicas < 2):
        raise ValueError(
            "chaos='replica_kill' needs shards > 0 and replicas >= 2 "
            "(a surviving sibling to fail over to)"
        )
    if case.procs < 0:
        raise ValueError(f"procs must be >= 0, got {case.procs}")
    if case.procs and not case.shards:
        raise ValueError(
            "procs > 0 backs shard replicas with worker pools; it needs "
            "a sharded server (shards > 0)"
        )
    rng = np.random.default_rng(11)
    table = rng.integers(0, 1 << 64, size=case.domain_size, dtype=np.uint64)
    indices = rng.integers(0, case.domain_size, size=case.batch).tolist()
    resident = case.ingest == "arena"
    slo = SloConfig(
        max_batch=max(2, case.batch // 2), max_wait_s=case.slo_ms * 1e-3
    )
    # Sized so nothing sheds: the bench measures latency (including
    # chaos recovery), not the shedding policy (tests/serve/ covers
    # that) — hence the disabled drain budget.
    admission = AdmissionConfig(max_pending=max(case.batch, 1), drain_budget_s=None)
    qos_policy = None
    tenants = None
    if case.qos == "mixed":
        qos_policy = QosPolicy(
            tenants={
                "tenant-interactive": TenantSpec(qos=INTERACTIVE),
                "tenant-batch": TenantSpec(qos=BATCH),
            }
        )
        # Batch-class traffic is *released first*, interactive second —
        # the adversarial shape for priority: interactive requests must
        # overtake an already-queued batch backlog for their p99 to win,
        # so the per-class split measures the take order, not arrival
        # luck.
        half = len(indices) // 2
        tenants = [
            "tenant-batch" if i < half else "tenant-interactive"
            for i in range(len(indices))
        ]

    def backend():
        inner = SingleGpuBackend()
        if case.chaos == "fail_once":
            return FlakyBackend(inner, FaultPlan.nth(1))
        return inner

    def replica_backend(shard: int, replica: int, pools: list):
        if case.procs:
            inner = MultiProcessBackend(workers=case.procs)
            pools.append(inner)
        else:
            inner = SingleGpuBackend()
        if case.chaos == "fail_once":
            # Every replica's first dispatch dies: the set retries in
            # place, so the row prices the transient-fault recovery.
            return FlakyBackend(inner, FaultPlan.nth(1))
        if case.chaos == "replica_kill" and replica == 0:
            # Replica 0 of every shard dies for good on first dispatch:
            # the set ejects it and fails over, so the row prices the
            # permanent-loss path.
            return FlakyBackend(inner, FaultPlan.after(1))
        return inner

    def make_server(pools: list):
        if case.shards:
            return ShardedPirServer(
                table,
                shards=case.shards,
                replicas=case.replicas,
                backend_factory=lambda s, r: replica_backend(s, r, pools),
                prf_name=case.prf,
                resident=resident,
                plan_cache=PlanCache() if case.plan_cache else None,
            )
        return PirServer(
            table,
            backend=backend(),
            prf_name=case.prf,
            resident=resident,
            plan_cache=PlanCache() if case.plan_cache else None,
        )

    def session() -> tuple[LoadReport, dict]:
        pools: list[MultiProcessBackend] = []
        try:
            servers = [make_server(pools) for _ in range(2)]
            client = PirClient(
                case.domain_size, case.prf, rng=np.random.default_rng(13)
            )
            counters = {
                "plan_cache_hits": 0,
                "plan_cache_misses": 0,
                "overlap_flushes": 0,
            }
            # One registry + tracer per session, shared by both
            # parties' loops: every query's spans feed the stage.*
            # histograms the schema-10 per-stage columns are cut from.
            registry = MetricsRegistry()
            tracer = Tracer(metrics=registry)

            async def run():
                loops = [
                    AsyncPirServer(
                        server,
                        slo=slo,
                        admission=admission,
                        qos=qos_policy,
                        retry=RetryPolicy(max_attempts=3),
                        overlap=case.plan_cache,
                        tracer=tracer,
                    )
                    for server in servers
                ]
                async with loops[0], loops[1]:
                    report = await generate_load(
                        client,
                        loops,
                        indices,
                        offered_qps=case.offered_qps,
                        tenants=tenants,
                    )
                for loop in loops:
                    counters["plan_cache_hits"] += loop.stats.plan_cache_hits
                    counters["plan_cache_misses"] += loop.stats.plan_cache_misses
                    counters["overlap_flushes"] += loop.stats.overlap_flushes
                return report

            report = asyncio.run(run())
            health = {"retries": 0, "ejections": 0, "failovers": 0}
            if case.shards:
                for server in servers:
                    totals = server.stats_totals()
                    health["retries"] += totals.retries
                    health["ejections"] += totals.ejections
                    health["failovers"] += totals.failovers
            answered = [
                t for t in tracer.drain() if t.status == "answered"
            ]
            trace_info = {
                "answered_traces": len(answered),
                "trace_problems": sum(
                    len(chain_problems(t)) for t in answered
                ),
                "stage_p50_ms": {},
                "stage_p99_ms": {},
            }
            for name, hist in sorted(registry.histograms("stage.").items()):
                stage = name[len("stage."):]
                trace_info["stage_p50_ms"][stage] = hist.quantile(0.50) * 1e3
                trace_info["stage_p99_ms"][stage] = hist.quantile(0.99) * 1e3
            return report, {**health, **counters, **trace_info}
        finally:
            for pool in pools:
                pool.close()

    verified = False
    if verify:
        report, health = session()
        if report.shed:
            raise ValueError(f"serving session shed {report.shed} queries for {case}")
        if report.failed:
            raise ValueError(
                f"serving session failed {report.failed} queries for {case}"
            )
        if case.chaos == "replica_kill" and not (
            health["ejections"] and health["failovers"]
        ):
            raise ValueError(
                f"replica_kill scenario caused no ejection/failover for {case}: "
                f"{health}"
            )
        elif case.chaos and not (report.retried or health["retries"]):
            raise ValueError(
                f"chaos scenario injected no retried queries for {case}"
            )
        if not np.array_equal(report.answers, table[np.array(report.indices)]):
            raise ValueError(f"served answers diverged from the table for {case}")
        if case.plan_cache and not case.procs and not (
            health["plan_cache_hits"] + health["plan_cache_misses"]
        ):
            # procs rows evaluate through the workers' own caches, which
            # the loop-visible front-end cache never sees.
            raise ValueError(
                f"plan_cache row recorded no cache lookups for {case}"
            )
        # Chain integrity: every answered query's trace must be a
        # complete, orphan-free admit→demux span chain — through
        # fusion, chaos retries, sharded failover, the lot.
        if not health["answered_traces"]:
            raise ValueError(f"traced session recorded no finished traces for {case}")
        if health["trace_problems"]:
            raise ValueError(
                f"{health['trace_problems']} span-chain problems across "
                f"{health['answered_traces']} answered traces for {case}"
            )
        verified = True

    for _ in range(case.warmup):
        session()
    best = None
    best_health = None
    for _ in range(case.repeats):
        report, health = session()
        if best is None or report.wall_s < best.wall_s:
            best = report
            best_health = health
    return _result(
        case,
        best.wall_s,
        0,
        0,
        verified,
        p50_ms=best.p50_ms,
        p99_ms=best.p99_ms,
        shed=best.shed,
        retried=best.retried,
        failed=best.failed,
        interactive_p99_ms=(
            best.latency_percentile_ms(99, tenant="tenant-interactive")
            if case.qos == "mixed"
            else 0.0
        ),
        batch_p99_ms=(
            best.latency_percentile_ms(99, tenant="tenant-batch")
            if case.qos == "mixed"
            else 0.0
        ),
        ejections=best_health["ejections"],
        failovers=best_health["failovers"],
        plan_cache_hits=best_health["plan_cache_hits"],
        plan_cache_misses=best_health["plan_cache_misses"],
        overlap_flushes=best_health["overlap_flushes"],
        stage_p50_ms=best_health["stage_p50_ms"],
        stage_p99_ms=best_health["stage_p99_ms"],
    )


def run_case(case: BenchCase, verify: bool = True) -> BenchResult:
    """Execute one grid point and return its measurements.

    Args:
        case: The grid point.
        verify: Assert the evaluated shares are bit-identical to the
            reference evaluator (for ingest cases, that the two
            ingestion paths produce identical arenas; for PIR round
            trips, that the reconstructed values equal the table rows)
            before timing.

    Raises:
        ValueError: If verification fails — the numbers would be
            meaningless.
    """
    if case.strategy == SERVING:
        return _run_serving_case(case, verify)

    if case.strategy == PIR_ROUNDTRIP:
        return _run_pir_case(case, verify)

    if case.strategy == BACKEND_SELECT:
        return _run_backend_select_case(case, verify)

    prf = get_prf(case.prf)
    keys = _make_keys(case)

    if case.strategy == INGEST:
        return _run_ingest_case(case, keys, verify)

    if case.strategy == REFERENCE:
        if case.ingest != "objects":
            raise ValueError("the reference walk has no arena ingestion path")

        def work() -> np.ndarray:
            return np.stack([eval_full(key, prf) for key in keys])

        return _result(
            case,
            _time_work(case, work),
            _reference_blocks(case.batch, case.log_domain),
            0,
            False,
        )

    strategy = get_strategy(case.strategy)
    if case.ingest == "objects":
        def work(meter: MemoryMeter | None = None) -> np.ndarray:
            return strategy.eval_batch(keys, prf, meter)
    elif case.ingest == "wire":
        wire = pack_keys(keys)

        def work(meter: MemoryMeter | None = None) -> np.ndarray:
            return strategy.eval_batch(KeyArena.from_wire(wire), prf, meter)
    elif case.ingest == "arena":
        arena = KeyArena.from_keys(keys, prf_name=prf.name)
        workspace = ExpansionWorkspace()

        def work(meter: MemoryMeter | None = None) -> np.ndarray:
            return strategy.eval_batch(arena, prf, meter, workspace=workspace)
    else:
        raise ValueError(f"unknown ingest mode {case.ingest!r}; use {INGEST_MODES}")

    prf_blocks = strategy.cost(case.batch, case.domain_size).prf_blocks
    # One metered run of the *actual* ingest path supplies both the
    # peak working set and the output to verify.
    meter = MemoryMeter()
    got = work(meter)
    peak_mem = meter.peak
    verified = False
    if verify:
        want = np.stack([eval_full(key, prf) for key in keys])
        if not np.array_equal(got, want):
            raise ValueError(
                f"{case.strategy} output diverged from the reference for {case}"
            )
        verified = True

    return _result(case, _time_work(case, work), prf_blocks, peak_mem, verified)


def run_grid(
    cases: Iterable[BenchCase],
    verify: bool = True,
    progress: Callable[[str], None] | None = None,
) -> list[BenchResult]:
    """Run every case, reporting progress through ``progress``."""
    results = []
    for case in cases:
        if progress is not None:
            progress(case.describe())
        results.append(run_case(case, verify=verify))
    return results


def default_grid(
    prfs: Sequence[str] | None = None,
    strategies: Sequence[str] | None = None,
    batches: Sequence[int] = (1, 4),
    log_domains: Sequence[int] = (10, 14),
    repeats: int = 3,
) -> list[BenchCase]:
    """The checked-in ``BENCH_dpf.json`` grid.

    Covers every PRF and every strategy (plus the reference walk) at
    small and medium domains, and adds the headline cases — ``aes128``
    at L = 2^16, the paper's baseline PRF at a realistic table size.
    Branch-parallel is pruned above 2^12: its O(L log L) recomputation
    makes larger functional runs take minutes without adding signal.

    Two ingest-mode extensions ride on top of the base (``objects``)
    grid:

    * Every base grid point for ``memory_bounded`` / ``level_by_level``
      on ``aes128`` / ``siphash`` is repeated with ``ingest="wire"``
      and ``ingest="arena"``, so the persistent-arena serving path is
      compared against the per-call stacking path at every shape.
    * :data:`INGEST` micro-cases at batch 64 and 256 time wire->arena
      ingestion against the per-key ``from_bytes`` loop — the server's
      cost of *receiving* a batch, separated from evaluating it.
    * :data:`PIR_ROUNDTRIP` cases time the end-to-end two-server
      pipeline at the small and large table sizes, across the
      objects/wire/arena serving paths.
    * :data:`SERVING` cases run the async batch-aggregation loop at the
      small table size across a {burst, paced} x {tight, loose SLO}
      grid — QPS and p50/p99 latency vs offered load and deadline —
      plus sharded rows (2/4 shards, a 2x2 replicated set, and a
      replica-kill failover scenario) against their unsharded twin.
    * :data:`BACKEND_SELECT` cases price the CPU baseline, the V100
      model, and the cost-routed hybrid as interleaved triples across
      {1, 16, 256} queries at the small and large table sizes for
      ``aes128`` (hardware AES on both sides — the crossover case) and
      ``chacha20`` (GPU-favored everywhere) — the Figure 10 family.
    """
    prfs = list(prfs) if prfs is not None else available_prfs()
    # The INGEST micro-cases, PIR round trips, and serving sessions ride
    # along by default but honor an explicit strategy restriction (no
    # pseudo-strategy ever enters the eval product).
    include_ingest = bool(prfs) and (strategies is None or INGEST in strategies)
    include_pir = bool(prfs) and (strategies is None or PIR_ROUNDTRIP in strategies)
    include_serving = bool(prfs) and (strategies is None or SERVING in strategies)
    include_select = bool(prfs) and (
        strategies is None or BACKEND_SELECT in strategies
    )
    ingest_prf = "aes128" if "aes128" in prfs else (prfs[0] if prfs else "aes128")
    strategies = [
        s
        for s in (
            list(strategies)
            if strategies is not None
            else [REFERENCE, *available_strategies()]
        )
        if s not in (INGEST, PIR_ROUNDTRIP, SERVING, BACKEND_SELECT)
    ]
    cases = []
    for prf in prfs:
        for strategy in strategies:
            for batch in batches:
                for log_domain in log_domains:
                    if strategy == "branch_parallel" and log_domain > 12:
                        continue
                    cases.append(
                        BenchCase(prf, strategy, batch, log_domain, repeats=repeats)
                    )
    for strategy in (REFERENCE, "memory_bounded", "level_by_level"):
        if strategy in strategies:
            for prf in ("aes128", "chacha20"):
                if prf in prfs:
                    headline = BenchCase(prf, strategy, 1, 16, repeats=repeats)
                    if headline not in cases:
                        cases.append(headline)
    # Interleave each ingest-mode variant right after its ``objects``
    # twin, so twin measurements run back-to-back and host-load drift
    # across the (minutes-long) grid cannot skew the mode comparison.
    interleaved: list[BenchCase] = []
    for base in cases:
        interleaved.append(base)
        if base.strategy in ("memory_bounded", "level_by_level") and base.prf in (
            "aes128",
            "siphash",
        ):
            for mode in ("wire", "arena"):
                interleaved.append(dataclasses.replace(base, ingest=mode))
    cases = interleaved
    if include_ingest:
        for batch in (64, 256):
            for log_domain in sorted({min(log_domains), max(log_domains)}):
                for mode in ("wire", "objects"):
                    cases.append(
                        BenchCase(
                            ingest_prf,
                            INGEST,
                            batch,
                            log_domain,
                            ingest=mode,
                            repeats=repeats,
                        )
                    )
    if include_pir:
        # Small table: all three serving paths at one shape.  Large
        # table: the framed hot path against its objects twin.
        log_lo, log_hi = min(log_domains), max(log_domains)
        for mode in ("objects", "wire", "arena"):
            cases.append(
                BenchCase(
                    ingest_prf, PIR_ROUNDTRIP, 4, log_lo, ingest=mode, repeats=repeats
                )
            )
        if log_hi != log_lo:
            for mode in ("objects", "wire"):
                cases.append(
                    BenchCase(
                        ingest_prf,
                        PIR_ROUNDTRIP,
                        16,
                        log_hi,
                        ingest=mode,
                        repeats=repeats,
                    )
                )
    if include_serving:
        # 32 single-query clients at the small table: an unpaced burst
        # (maximum aggregation pressure) and a paced stream, each under
        # a tight and a loose flush deadline.  qps/p50/p99 vs offered
        # load and SLO, per the serving-loop acceptance criteria.
        # Each row is immediately followed by its plan-cache twin
        # (memoized plans + pinned workspaces + overlapped ingest), so
        # the warm-vs-cold steady-state comparison runs back-to-back in
        # the same session and host-load drift cannot skew it.
        # The twins get extra repeats: they are compared to each other
        # by ratio, and a best-of draw from two noisy session
        # distributions needs more samples than an absolute row does to
        # reach its steady-state floor.
        for offered_qps in (0.0, 512.0):
            for slo_ms in (1.0, 8.0):
                cold = BenchCase(
                    ingest_prf,
                    SERVING,
                    32,
                    min(log_domains),
                    ingest="wire",
                    repeats=max(repeats, 7),
                    offered_qps=offered_qps,
                    slo_ms=slo_ms,
                )
                cases.append(cold)
                cases.append(dataclasses.replace(cold, plan_cache=True))
        # Control-plane scenarios, each next to its healthy burst twin:
        # a mid-session backend death (recovery cost via retry/requeue)
        # and a mixed interactive/batch tenant load (per-class p99).
        for chaos, qos in (("fail_once", ""), ("", "mixed")):
            cases.append(
                BenchCase(
                    ingest_prf,
                    SERVING,
                    32,
                    min(log_domains),
                    ingest="wire",
                    repeats=repeats,
                    offered_qps=0.0,
                    slo_ms=8.0,
                    chaos=chaos,
                    qos=qos,
                )
            )
        # Sharded serving: the same burst session across shard widths
        # (sharding overhead vs the unsharded twin above), a replicated
        # set, and the replica-kill failover scenario — ejection plus
        # failover priced against its healthy 2x2 twin.  The final row
        # backs each shard replica with a 2-worker process pool (the
        # combined fast path: per-worker plan caches + resident column
        # slices), next to its in-process twin.
        for shards, replicas, chaos, procs in (
            (2, 1, "", 0),
            (4, 1, "", 0),
            (2, 2, "", 0),
            (2, 2, "replica_kill", 0),
            (2, 1, "", 2),
        ):
            cases.append(
                BenchCase(
                    ingest_prf,
                    SERVING,
                    32,
                    min(log_domains),
                    ingest="wire",
                    repeats=repeats,
                    offered_qps=0.0,
                    slo_ms=8.0,
                    chaos=chaos,
                    shards=shards,
                    replicas=replicas,
                    procs=procs,
                )
            )
    if include_select:
        # Figure 10: the CPU baseline, the V100 model, and the routed
        # hybrid priced as back-to-back triples at each shape.  aes128
        # exercises the AES-NI story (CPU wins small batches, GPU wins
        # large — a crossover inside this batch range at the small
        # table); chacha20 has no hardware assist on the CPU, so the
        # GPU side wins everywhere and the hybrid must follow it.
        select_prfs = [p for p in ("aes128", "chacha20") if p in prfs]
        for prf in select_prfs or [ingest_prf]:
            for log_domain in sorted({min(log_domains), max(log_domains)}):
                for batch in (1, 16, 256):
                    for backend in BACKEND_SELECT_BACKENDS:
                        cases.append(
                            BenchCase(
                                prf,
                                BACKEND_SELECT,
                                batch,
                                log_domain,
                                backend=backend,
                                repeats=repeats,
                            )
                        )
    return cases


def smoke_grid() -> list[BenchCase]:
    """A seconds-long grid for CI: every strategy once, two PRFs,
    plus one wire-ingest eval, one persistent-arena eval, one ingestion
    micro-case, the end-to-end PIR round trip on every serving path,
    and seven async serving sessions (healthy, plan-cache + overlap,
    fail-once chaos, mixed QoS, sharded, sharded replica-kill
    failover, and a worker-pool sharded session), so every ingest
    mode, the pipeline, the aggregation loop, the fault-tolerant
    control plane, the sharded/replicated front-end, and the
    steady-state serving paths all stay exercised.  Backend-select
    triples (cpu / gpu / hybrid at a small and a larger batch) keep
    the Figure 10 family and its bit-exactness check in CI."""
    cases = [
        BenchCase("chacha20", REFERENCE, 1, 8, repeats=1, warmup=0),
        BenchCase("aes128", "memory_bounded", 2, 8, repeats=1, warmup=0),
        BenchCase("aes128", "memory_bounded", 2, 8, ingest="wire", repeats=1, warmup=0),
        BenchCase("aes128", "memory_bounded", 2, 8, ingest="arena", repeats=1, warmup=0),
        BenchCase("aes128", INGEST, 64, 8, ingest="wire", repeats=1, warmup=0),
        BenchCase("aes128", INGEST, 64, 8, ingest="objects", repeats=1, warmup=0),
    ]
    for mode in ("objects", "wire", "arena"):
        cases.append(
            BenchCase("chacha20", PIR_ROUNDTRIP, 2, 6, ingest=mode, repeats=1, warmup=0)
        )
    cases.append(
        BenchCase(
            "chacha20",
            SERVING,
            8,
            6,
            ingest="wire",
            repeats=1,
            warmup=0,
            offered_qps=0.0,
            slo_ms=2.0,
        )
    )
    # Steady-state smoke: the same session through the plan cache with
    # overlapped ingest — cache lookups and bit-exact answers in CI.
    cases.append(
        BenchCase(
            "chacha20",
            SERVING,
            8,
            6,
            ingest="wire",
            repeats=1,
            warmup=0,
            offered_qps=0.0,
            slo_ms=2.0,
            plan_cache=True,
        )
    )
    # Control-plane smoke: a backend dying mid-session (retry/requeue
    # must keep every answer bit-exact) and a mixed-class tenant load
    # (per-class percentiles populated) stay exercised in CI.
    cases.append(
        BenchCase(
            "chacha20",
            SERVING,
            8,
            6,
            ingest="wire",
            repeats=1,
            warmup=0,
            offered_qps=0.0,
            slo_ms=2.0,
            chaos="fail_once",
        )
    )
    cases.append(
        BenchCase(
            "chacha20",
            SERVING,
            8,
            6,
            ingest="wire",
            repeats=1,
            warmup=0,
            offered_qps=0.0,
            slo_ms=2.0,
            qos="mixed",
        )
    )
    # Sharded smoke: recombination across shards stays bit-exact, and
    # a permanent replica loss still recovers via ejection + failover.
    cases.append(
        BenchCase(
            "chacha20",
            SERVING,
            8,
            6,
            ingest="wire",
            repeats=1,
            warmup=0,
            offered_qps=0.0,
            slo_ms=2.0,
            shards=2,
        )
    )
    cases.append(
        BenchCase(
            "chacha20",
            SERVING,
            8,
            6,
            ingest="wire",
            repeats=1,
            warmup=0,
            offered_qps=0.0,
            slo_ms=2.0,
            chaos="replica_kill",
            shards=2,
            replicas=2,
        )
    )
    # Worker-pool smoke: each shard replica served by a 2-process pool
    # (combined fast path + per-worker caches) stays exercised in CI.
    cases.append(
        BenchCase(
            "chacha20",
            SERVING,
            8,
            6,
            ingest="wire",
            repeats=1,
            warmup=0,
            offered_qps=0.0,
            slo_ms=2.0,
            shards=2,
            procs=2,
        )
    )
    # Backend-select smoke: every backend axis value runs (and is
    # verified bit-exact) at a batch on each side of the crossover axis.
    for batch in (2, 64):
        for backend in BACKEND_SELECT_BACKENDS:
            cases.append(
                BenchCase(
                    "aes128",
                    BACKEND_SELECT,
                    batch,
                    8,
                    backend=backend,
                    repeats=1,
                    warmup=0,
                )
            )
    for strategy in available_strategies():
        cases.append(BenchCase("siphash", strategy, 1, 8, repeats=1, warmup=0))
    return cases


def results_payload(results: Sequence[BenchResult]) -> dict:
    """The JSON document structure for a set of results."""
    return {
        "schema": SCHEMA_VERSION,
        "created_unix": time.time(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": [asdict(r) for r in results],
    }


def write_results(results: Sequence[BenchResult], path: str) -> None:
    """Serialize results to ``path`` as indented JSON."""
    with open(path, "w") as fh:
        json.dump(results_payload(results), fh, indent=1, sort_keys=True)
        fh.write("\n")

"""Per-layer metrics of a traced phase, the layer ladder and calibration.

Every number is measured wall-clock or an exact count taken from
``benchmark/`` itself; the V100/CPU cost models are never consulted.
A metric of a layer that is not on the workload's path reads 0.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from benchmark.drive import Session
from benchmark.spans import LayerTotals, SpanRecord, totals_by_name
from benchmark.workloads import Inputs
from repro.crypto.prf import get_prf
from repro.dpf import eval_full
from repro.dpf.keys import unpack_keys, wire_size
from repro.exec import EvalRequest, SingleGpuBackend
from repro.gpu import ExpansionWorkspace, KeyArena, MemoryMeter, get_strategy
from repro.obs import chain_problems
from repro.obs.trace import (
    REQUIRED_STAGES,
    STAGE_ADMIT,
    STAGE_MERGE,
    STAGE_QUEUE,
    STATUS_ANSWERED,
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_SHED,
    TraceContext,
)
from repro.pir import FRAME_HEADER_BYTES, PirQuery, PirServer
from repro.serve.loop import FLUSH_ARENA_BYTES, FLUSH_DEADLINE, FLUSH_DRAIN, FLUSH_MAX_BATCH

LADDER_CALLS = 5
REFERENCE_KEYS = 8
CIPHER_CALL_SEEDS = 4096


def percentile(samples: list[float], pct: float) -> float:
    """Exact percentile of the samples (0 when there are none)."""
    return float(np.percentile(samples, pct)) if samples else 0.0


def calibrate() -> dict[str, float]:
    """Raw AES and memcpy speed of this host right now.

    Not used to normalise anything: probed before and after a traced
    run so that a loaded host shows in the result.
    """
    blocks = np.arange(4096 * 16, dtype=np.uint8).reshape(4096, 16)
    prf = get_prf("aes128")
    source = np.ones(4 << 20, dtype=np.uint64)
    target = np.empty_like(source)
    aes_s, copy_s = [], []
    for _ in range(5):
        start = time.perf_counter()
        prf.expand(blocks, 0)
        aes_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        np.copyto(target, source)
        copy_s.append(time.perf_counter() - start)
    return {
        "aes_ns_per_block": min(aes_s) / len(blocks) * 1e9,
        "memcpy_gbps": source.nbytes / min(copy_s) / 1e9,
    }


def _median_ms(call, budget_s: float) -> float:
    """Median wall time of up to ``LADDER_CALLS`` calls, in ms.

    Stops early once ``budget_s`` is spent, after at least one call.
    """
    samples = []
    spent = 0.0
    while len(samples) < LADDER_CALLS and (not samples or spent < budget_s):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
        spent += samples[-1]
    return statistics.median(samples) * 1e3


def ladder(inputs: Inputs, budget_s: float) -> dict[str, float]:
    """One party, one batch of ``ladder_batch`` keys, rung by rung.

    Each rung adds one layer over the rung below: cipher, reference
    walk, strategy kernel, backend, framed ``handle``.
    """
    spec = inputs.spec
    batch = spec.ladder_batch
    prf = get_prf(spec.prf)
    wire = b"".join(b.requests[0][FRAME_HEADER_BYTES:] for b in inputs.pool)
    wire = wire[: batch * wire_size(spec.log_domain, spec.prf)]
    arena = KeyArena.from_wire(wire)
    frame = PirQuery(request_id=0, count=batch, key_bytes=wire).to_bytes()
    backend = SingleGpuBackend()
    strategy = get_strategy(backend.plan(EvalRequest(keys=arena)).strategies[0])
    workspace = ExpansionWorkspace()
    meter = MemoryMeter()
    server = PirServer(inputs.table.copy(), prf_name=spec.prf)
    seeds = np.random.default_rng(0).integers(0, 256, size=(CIPHER_CALL_SEEDS, 16), dtype=np.uint8)
    cipher_calls = -(-batch * (spec.domain - 1) // CIPHER_CALL_SEEDS)
    reference = unpack_keys(wire)[:REFERENCE_KEYS]

    def cipher_only():
        # The walk's block count (two per inner node per key) in
        # cache-sized calls: the floor under any traversal order.
        for _ in range(cipher_calls):
            prf.expand_pair_stacked(seeds)

    def reference_walk():
        for key in reference:
            eval_full(key, prf)

    rungs = {
        "ladder.cipher_ms": _median_ms(cipher_only, budget_s),
        # Timed on the first REFERENCE_KEYS keys and scaled to the batch.
        "ladder.reference_ms": _median_ms(reference_walk, budget_s)
        * batch
        / len(reference),
        "ladder.eval_batch_ms": _median_ms(
            lambda: strategy.eval_batch(arena, prf, meter, workspace), budget_s
        ),
        "ladder.backend_run_ms": _median_ms(
            lambda: backend.run(EvalRequest(keys=wire, prf_name=spec.prf)), budget_s
        ),
        "ladder.handle_ms": _median_ms(lambda: server.handle(frame), budget_s),
        "gpu.peak_metered_bytes": float(meter.peak),
        # Computed, not measured: the (B, L) uint64 share matrix.
        "gpu.share_matrix_bytes": float(batch * spec.domain * 8),
    }
    return rungs


@dataclass
class TracedPhase:
    """What a traced phase leaves behind for :func:`layer_metrics`."""

    session: Session
    records: list[SpanRecord]
    traces: list[TraceContext]


def _window(records: list[SpanRecord], measure_from: float) -> list[SpanRecord]:
    """The spans whose root began inside the measured window."""
    kept: list[SpanRecord] = []
    index_of: dict[int, int] = {}
    for index, record in enumerate(records):
        if records[record.batch].start_s < measure_from:
            continue
        index_of[index] = len(kept)
        kept.append(
            SpanRecord(
                record.name,
                record.start_s,
                record.end_s,
                index_of.get(record.parent, -1),
                index_of[record.batch],
                record.units,
            )
        )
    return kept


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(
    phase: TracedPhase,
    untraced_qps: float,
    rungs: dict[str, float],
    calib_before: dict[str, float],
    calib_after: dict[str, float],
) -> dict[str, float]:
    """The per-layer metrics of one traced phase, by name."""
    session = phase.session
    inputs, spec, out = session.inputs, session.spec, session.outcome
    wall = out.wall_s
    queries = out.queries
    records = _window(phase.records, session.measure_from)
    totals = totals_by_name(records)

    def layer(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    cipher, answer, kernel = layer("crypto.cipher"), layer("pir.answer"), layer("gpu.eval_batch")
    run, plan, parse = layer("exec.run"), layer("exec.plan"), layer("pir.parse")
    metrics = {
        "crypto.blocks_per_query": _per(cipher.units, queries),
        "crypto.ns_per_block": _per(cipher.total_s, cipher.units, 1e9),
        "crypto.busy_share": _per(cipher.total_s, wall),
        "crypto.calls_per_batch": _per(cipher.calls, answer.calls),
        "dpf.gen_ms_per_query": _per(inputs.gen_s, inputs.keys, 1e3),
        "dpf.key_bytes": float(wire_size(spec.log_domain, spec.prf)),
        "gpu.ingest_us_per_key": _per(
            layer("gpu.from_wire").total_s, layer("gpu.from_wire").units, 1e6
        ),
        "gpu.eval_batch_calls": float(kernel.calls),
        "gpu.keys_per_call": _per(kernel.units, kernel.calls),
        "gpu.eval_batch_ms_p50": 1e3
        * percentile([r.duration_s for r in records if r.name == "gpu.eval_batch"], 50),
        "gpu.self_share": _per(kernel.self_s, wall),
        "exec.run_calls": float(run.calls),
        "exec.self_us_per_call": _per(run.self_s, run.calls, 1e6),
        "exec.plan_us_per_call": _per(plan.total_s, plan.calls, 1e6),
        "pir.parse_us_per_request": _per(
            parse.total_s + layer("pir.ingest").self_s, parse.calls, 1e6
        ),
        "pir.combine_us_per_query": _per(layer("pir.combine").total_s, queries, 1e6),
        "pir.frame_us_per_reply": _per(
            layer("pir.frame_reply").total_s, layer("pir.frame_reply").calls, 1e6
        ),
        "pir.reconstruct_us_per_request": _per(
            layer("pir.reconstruct").total_s, layer("pir.reconstruct").calls, 1e6
        ),
        "pir.answer_self_us_per_call": _per(answer.self_s, answer.calls, 1e6),
        # Blocks a walk without recomputation needs (two per inner node
        # of each key's tree) over the blocks actually computed.
        "serve.shard_work_ratio": _per(
            answer.units * 2 * (spec.domain - 1), cipher.units
        ),
        "serve.shard_busy_ms_per_batch": _per(
            layer("serve.shard_answer").total_s, answer.calls, 1e3
        ),
        "serve.update_ms_p50": 1e3 * percentile(out.updates_s, 50),
        "serve.flips": float(len(out.updates_s)),
        "serve.generator_late_p99_ms": 1e3 * percentile(out.late_s, 99),
        "serve.loop_self_share": 1.0 - answer.total_s / wall if spec.serve else 0.0,
        "serve.served_over_kernel": _per(
            queries / wall,
            spec.ladder_batch / (2 * rungs["ladder.eval_batch_ms"] / 1e3),
        ),
        "obs.trace_overhead_share": 1.0 - _per(queries / wall, untraced_qps),
        "calib.aes_ns_per_block": calib_before["aes_ns_per_block"],
        "calib.memcpy_gbps": calib_before["memcpy_gbps"],
        "calib.drift": calib_after["aes_ns_per_block"] / calib_before["aes_ns_per_block"],
        **rungs,
    }

    servers = session.stack.servers
    caches = [s.plan_cache.stats for s in servers if s.plan_cache is not None]
    metrics["exec.plan_cache_hit_ratio"] = _per(
        sum(c.hits for c in caches), sum(c.lookups for c in caches)
    )
    shard_stats = [s.stats_totals() for s in servers if hasattr(s, "stats_totals")]
    for name in ("retries", "ejections", "failovers"):
        metrics[f"serve.shard_{name}"] = float(sum(getattr(s, name) for s in shard_stats))

    metrics.update(_loop_metrics(phase))
    if not spec.serve:
        # No loop: the top rung is one party's framed handle() call.
        handle = layer("pir.handle")
        metrics["ladder.served_batch_ms"] = _per(handle.total_s, handle.calls, 1e3)
    traced_spans = sum(len(t.spans) for t in phase.traces)
    metrics["obs.spans_per_query"] = _per(len(records) + traced_spans, queries)
    return metrics


def _loop_metrics(phase: TracedPhase) -> dict[str, float]:
    """The serving loop's own view, from its ``Tracer`` (exact samples)."""
    traces = [t for t in phase.traces if t.started_s >= phase.session.measure_from]
    answered = [t for t in traces if t.status == STATUS_ANSWERED]
    stage_s: dict[str, list[float]] = {stage: [] for stage in REQUIRED_STAGES}
    flushes = dict.fromkeys(
        (FLUSH_MAX_BATCH, FLUSH_DEADLINE, FLUSH_ARENA_BYTES, FLUSH_DRAIN), 0.0
    )
    batches = 0.0
    batch_max = 0
    served_s = []
    for trace in answered:
        served = 0.0
        for span in trace.spans:
            stage_s[span.name].append(span.duration_s)
            if span.name not in (STAGE_ADMIT, STAGE_QUEUE):
                served += span.duration_s
            if span.name == STAGE_MERGE and "queries" in span.annotations:
                # Each batch's traces carry shares of it that sum to 1.
                share = trace.meta["count"] / span.annotations["queries"]
                batches += share
                flushes[span.annotations["reason"]] += share
                batch_max = max(batch_max, span.annotations["queries"])
        served_s.append(served)

    def queries_with(status: str) -> float:
        return float(sum(t.meta["count"] for t in traces if t.status == status))

    metrics = {
        "serve.batch_mean": _per(sum(t.meta["count"] for t in answered), batches),
        "serve.batch_max": float(batch_max),
        "serve.shed": queries_with(STATUS_SHED),
        "serve.failed": queries_with(STATUS_FAILED),
        "serve.cancelled": queries_with(STATUS_CANCELLED),
        "serve.retried": float(
            sum(t.meta["count"] * t.event_names().count("retry") for t in traces)
        ),
        "obs.chain_problems": float(sum(bool(chain_problems(t)) for t in answered)),
        # From a batch leaving the queue to its replies framed.
        "ladder.served_batch_ms": 1e3 * percentile(served_s, 50),
    }
    for reason, share in flushes.items():
        metrics[f"serve.flush_share.{reason}"] = _per(share, batches)
    for stage, samples in stage_s.items():
        metrics[f"serve.stage_p50_ms.{stage}"] = 1e3 * percentile(samples, 50)
        metrics[f"serve.stage_p99_ms.{stage}"] = 1e3 * percentile(samples, 99)
    return metrics

"""Run the benchmark: ``python3 benchmark/run.py --workload W --seed N``.

One process measures one workload, so ``peak_rss_mb`` is that
workload's; without ``--workload`` each of the four runs in a child
process of its own.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` splits ``--seconds`` between an untraced
reference phase, a traced phase and the layer ladder, and reports the
per-layer metrics.  Every reconstructed answer is checked; a wrong one
exits nonzero and nothing is printed or written.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # Never measure some other installed copy of the program.
    raise SystemExit(f"benchmark: the program is not under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmark.drive import Outcome, Session, WrongAnswer  # noqa: E402
from benchmark.layers import (  # noqa: E402
    TracedPhase,
    calibrate,
    ladder,
    layer_metrics,
    percentile,
)
from benchmark.spans import SpanRecorder  # noqa: E402
from benchmark.workloads import (  # noqa: E402
    SCALES,
    WORKLOADS,
    Inputs,
    Scale,
    Stack,
    Workload,
    make_inputs,
    scaled,
)
from repro.obs import Tracer  # noqa: E402

# Shares of --seconds in a traced run; the ladder and the calibration
# probes take the rest.
REFERENCE_SHARE, TRACED_SHARE, LADDER_RUNG_SHARE = 0.3, 0.5, 0.03


def contract() -> dict:
    """``BENCHMARK.json``: run length, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


async def _phase(inputs: Inputs, warmup_s: float, seconds: float, tracer=None) -> Session:
    """One fresh stack, warmed up, measured and stopped."""
    stack = Stack(inputs, tracer)
    await stack.start()
    session = Session(inputs, stack)
    try:
        await session.run(warmup_s, seconds)
    finally:
        await stack.stop()
    if not session.outcome.queries:
        raise RuntimeError(
            f"{inputs.spec.name}: no request was answered: {session.outcome.failures}"
        )
    return session


async def measure(spec: Workload, seed: int, seconds: float, scale: Scale) -> dict:
    """The end-to-end metrics of one workload, tracing off."""
    setup_s = []
    for _ in range(scale.setup_repeats):
        start = time.perf_counter()
        inputs = make_inputs(seed, spec)
        stack = Stack(inputs)
        await stack.start()
        setup_s.append(time.perf_counter() - start)
        await stack.stop()
    out = (await _phase(inputs, scale.warmup_s, seconds)).outcome
    latencies_ms = [1e3 * s for s in out.latencies_s]
    mean_ms = statistics.fmean(latencies_ms)
    return _result(
        out,
        {
            "qps": out.queries / out.wall_s,
            "mean_ms": mean_ms,
            # The tail as a ratio: the host's speed cancels out of it.
            "p95_over_mean": percentile(latencies_ms, 95) / mean_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "wire_bytes_per_query": out.wire_bytes / out.queries,
            "setup_s": statistics.median(setup_s),
        },
        "end_to_end",
    )


async def trace(
    spec: Workload, seed: int, seconds: float, scale: Scale, spans_path: Path | None
) -> dict:
    """The per-layer metrics of one workload, from a traced phase."""
    calib_before = calibrate()
    inputs = make_inputs(seed, spec)
    reference = (await _phase(inputs, scale.warmup_s, REFERENCE_SHARE * seconds)).outcome
    recorder = SpanRecorder()
    tracer = Tracer(clock=time.perf_counter)
    with recorder.installed(spec.prf):
        session = await _phase(inputs, scale.warmup_s, TRACED_SHARE * seconds, tracer)
    phase = TracedPhase(session, recorder.records(), tracer.drain())
    rungs = ladder(inputs, LADDER_RUNG_SHARE * seconds)
    metrics = layer_metrics(
        phase, reference.queries / reference.wall_s, rungs, calib_before, calibrate()
    )
    if spans_path is not None:
        with spans_path.open("w") as sink:
            for record in phase.records:
                sink.write(json.dumps(vars(record)) + "\n")
    return _result(session.outcome, metrics, "per_layer")


def _result(out: Outcome, values: dict[str, float], kind: str) -> dict:
    """The driver's result object; the metric set must match the contract."""
    declared = {m["name"]: m["unit"] for m in contract()[kind]}
    if set(values) != set(declared):
        raise AssertionError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(declared))}"
        )
    return {
        "correct": True,  # a wrong answer never gets this far
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in declared.items()
        },
    }


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, scale_name: str,
    spans_path: Path | None = None,
) -> dict:
    """Measure one workload in this process."""
    scale = SCALES[scale_name]
    spec = scaled(WORKLOADS[name], scale)
    if traced:
        return asyncio.run(trace(spec, seed, seconds, scale, spans_path))
    return asyncio.run(measure(spec, seed, seconds, scale))


def _report(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']} requests, failed {result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:38s} {entry['value']:16.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=list(SCALES), default="full")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else contract()["run_seconds"]

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in [args.workload] if args.workload else WORKLOADS:
        try:
            if args.workload:
                spans = args.out.with_suffix(".spans.jsonl") if args.out and args.trace else None
                result = run_workload(
                    name, args.seed, seconds, bool(args.trace), args.scale, spans
                )
            else:
                # A process of its own, so that peak_rss_mb is this workload's.
                child = subprocess.run(
                    [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(seconds), "--trace", str(args.trace),
                     "--scale", args.scale],
                    stdout=subprocess.PIPE, text=True, check=True,
                )
                result = json.loads(child.stdout.splitlines()[-1])
        except WrongAnswer as exc:
            print(f"benchmark: wrong answer, no metrics: {exc}", file=sys.stderr)
            return 1
        except subprocess.CalledProcessError as exc:
            print(f"benchmark: {name} exited {exc.returncode}", file=sys.stderr)
            return exc.returncode
        _report(name, result)
        results[name] = result

    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {"seed": args.seed, "seconds": seconds, "trace": args.trace,
                 "scale": args.scale, "results": results},
                indent=1,
            )
        )
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

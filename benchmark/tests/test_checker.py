"""The checker is itself checked: wrong answers abort, failures are counted."""

import asyncio
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmark import compare, run  # noqa: E402
from benchmark.drive import Session  # noqa: E402
from benchmark.workloads import (  # noqa: E402
    SCALES,
    WORKLOADS,
    Stack,
    make_inputs,
    make_table,
    scaled,
)


def test_corrupt_row_aborts_with_no_metrics(monkeypatch, tmp_path, capsys):
    class CorruptParty1(Stack):
        def __init__(self, inputs, tracer=None):
            super().__init__(inputs, tracer)
            self.servers[1].table[inputs.pool[0].indices[0]] ^= np.uint64(1)

    monkeypatch.setattr(run, "Stack", CorruptParty1)
    out = tmp_path / "result.json"
    code = run.main(
        ["--workload", "serve_sat", "--seed", "3", "--seconds", "0.3",
         "--scale", "smoke", "--out", str(out)]
    )
    assert code != 0
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "wrong answer" in captured.err


def test_retired_epoch_counts_as_failed_not_answered():
    spec = scaled(WORKLOADS["sharded_update"], SCALES["smoke"])
    inputs = make_inputs(3, spec)

    async def scenario():
        stack = Stack(inputs)
        await stack.start()
        session = Session(inputs, stack)
        try:
            for epoch in (1, 2):  # two flips retire epoch 0
                for server in stack.servers:
                    server.publish(make_table(3, spec, epoch))
            await session.request(0, time.perf_counter(), measured=True)
        finally:
            await stack.stop()
        return session.outcome

    outcome = asyncio.run(scenario())
    assert (outcome.attempted, outcome.failed, outcome.queries) == (1, 1, 0)
    assert outcome.failures == {"EpochRetired": 1}
    assert outcome.latencies_s == []


def _results(qps, failed=0):
    metric = lambda value, unit: {"value": value, "unit": unit}  # noqa: E731
    return {
        "serve_sat": [
            {"attempted": 100, "failed": failed,
             "metrics": {"qps": metric(v, "queries/s"), "p50_ms": metric(100.0, "ms")}}
            for v in qps
        ]
    }


def test_compare_verdicts(capsys):
    metrics = [
        {"name": "qps", "unit": "queries/s", "better": "higher", "bound": 0.10},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    ]
    steady = _results([500, 505, 495])
    assert compare.compare(steady, _results([480, 490, 470]), metrics) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.compare(steady, _results([400, 410, 405]), metrics) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.compare(steady, _results([400, 500, 600]), metrics) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.compare(steady, _results([500, 505, 495], failed=1), metrics) == 1
    assert "failed share rose" in capsys.readouterr().out

"""Tier-1 smoke test of the benchmark: same code paths, a fraction of the work."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmark import run  # noqa: E402
from benchmark.spans import SpanRecorder, self_times, targets  # noqa: E402
from benchmark.workloads import (  # noqa: E402
    SCALES,
    WORKLOADS,
    make_inputs,
    make_schedule,
    make_table,
    scaled,
)
from repro.pir import PirClient, PirServer  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [
        entry["name"]
        for kind in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in CONTRACT[
        "end_to_end"
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("kind, traced, seconds", [("end_to_end", False, 0.3), ("per_layer", True, 0.6)])
def test_every_declared_metric_is_emitted(workload, kind, traced, seconds):
    result = run.run_workload(workload, 7, seconds, traced, "smoke")
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in CONTRACT[kind]}
    assert {n: e["unit"] for n, e in result["metrics"].items()} == declared
    values = {n: e["value"] for n, e in result["metrics"].items()}
    assert all(np.isfinite(v) for v in values.values())
    if traced:
        assert values["obs.chain_problems"] == 0
        assert values["crypto.blocks_per_query"] > 0
    else:
        assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    spec = scaled(WORKLOADS[workload], SCALES["smoke"])
    first, again, other = make_inputs(5, spec), make_inputs(5, spec), make_inputs(6, spec)
    assert first.table.tobytes() == again.table.tobytes() != other.table.tobytes()
    for a, b in zip(first.pool, again.pool):
        assert a.indices == b.indices and a.requests == b.requests
    assert [b.requests for b in first.pool] != [b.requests for b in other.pool]
    assert make_table(5, spec, 3).tobytes() == make_table(5, spec, 3).tobytes()
    assert make_table(5, spec, 3).tobytes() != make_table(5, spec, 4).tobytes()
    if spec.rate_rps:
        schedule = make_schedule(5, spec, 0.5, 2.0)
        assert schedule.tobytes() == make_schedule(5, spec, 0.5, 2.0).tobytes()
        assert schedule.tobytes() != make_schedule(6, spec, 0.5, 2.0).tobytes()
        assert np.all(np.diff(schedule) >= 0) and len(schedule) == round(spec.rate_rps * 2.5)


def _attributes():
    return [(owner, attr, owner.__dict__.get(attr)) for owner, attr, _, _ in targets("aes128")]


def test_span_self_times_and_wrapper_restore():
    table = np.arange(1 << 8, dtype=np.uint64)
    client = PirClient(len(table), rng=np.random.default_rng(0))
    batch = client.query([3, 200])
    server = PirServer(table)
    before = _attributes()
    recorder = SpanRecorder()
    with recorder.installed("aes128"):
        assert _attributes() != before
        replies = [server.handle(frame) for frame in batch.requests]
        client.reconstruct(batch, *replies)
    assert _attributes() == before

    records = recorder.records()
    own = self_times(records)
    assert {r.name for r in records} >= {
        "pir.handle", "pir.parse", "pir.answer", "exec.run", "gpu.eval_batch",
        "crypto.cipher", "pir.combine", "pir.frame_reply", "pir.reconstruct",
    }
    assert all(t >= 0 for t in own)
    for index, root in enumerate(records):
        if root.parent == -1:
            covered = sum(t for r, t in zip(records, own) if r.batch == index)
            assert covered == pytest.approx(root.duration_s, rel=1e-9, abs=1e-12)

    with pytest.raises(RuntimeError):
        with SpanRecorder().installed("aes128"):
            raise RuntimeError("phase failed")
    assert _attributes() == before

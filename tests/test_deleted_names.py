"""Deleted names stay deleted.

Each row names what a change removed from the program, oldest first: a
regular expression (``grep -E`` syntax) and the paths it must not match
anywhere under.  Every file under a row's scope is read, whatever
its suffix, as ``grep -r`` reads it; only bytecode caches are skipped,
since they mirror the sources beside them.  A match means a deleted
seam, knob or module is back.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Deleted:
    name: str
    what: str
    pattern: str
    scope: tuple[str, ...]


ROWS = (
    Deleted(
        "process_pool",
        "a worker-pool seam",
        r"install_table|drop_table|run_combined|MultiProcessBackend",
        ("src",),
    ),
    Deleted(
        "one_backend",
        "a backend-routing name",
        r"FleetScheduler|HybridBackend|select_backend|CpuBackend|flaky_fleet"
        r"|backend_label|device_class",
        ("src", "scripts"),
    ),
    Deleted(
        "loop_probes_no_attributes",
        "an attribute probe in the serving loop",
        r"getattr\(|hasattr\(",
        ("src/repro/serve/loop.py",),
    ),
    Deleted(
        "one_device_per_plan",
        "a multi-GPU name",
        r"MultiGpu|multigpu|merged_cost|ShardReport|_single_shard_stats",
        ("src", "scripts"),
    ),
    Deleted(
        "admission_is_measured",
        "modeled admission or the overlap dispatch thread",
        r"DrainTimeModel|drain_budget_s|model_latency_s|overlap_flushes"
        r"|_DISPATCH_EXECUTORS|SHED_DRAIN|overlap=True",
        ("src/repro/serve", "src/repro/exec"),
    ),
    Deleted(
        "one_fifo_queue",
        "a tenant, token-bucket or priority-class name",
        r"QosPolicy|TenantSpec|TokenBucket|TenantRateLimited|SHED_RATE_LIMIT"
        r"|QOS_CLASSES|starvation_s|shed_reasons",
        ("src", "scripts"),
    ),
    Deleted(
        "one_retry_site",
        "a second retry site (retry policy, retry pen or probation)",
        r"RetryPolicy|backoff_s|backoff_budget_s|_retrying|_promote_retries"
        r"|PROBATION|probation|_ReplicaExhausted|ShardUnavailable|shard_retry"
        r"|serve\.control",
        ("src", "scripts"),
    ),
    Deleted(
        "ships_only_what_serves",
        "a load generator, smoke script, snapshot timer or fault injector",
        r"generate_load|LoadReport|serve_smoke|snapshot_every_s|_maybe_snapshot"
        r"|repro\.serve\.chaos|repro\.serve\.load|FaultPlan\.always",
        ("src", "scripts"),
    ),
    Deleted(
        "leaf_window",
        "a separate leaf window",
        r"def window\(self, batch|self\._window|workspace\.window\(",
        ("src", "scripts"),
    ),
    Deleted(
        "three_integer_loop",
        "a loop config object, linger, byte budget, clock or plan-cache mirror",
        r"SloConfig|AdmissionConfig|max_wait_s|max_arena_bytes|_queued_arena_bytes"
        r"|_wait_timeout|plan_cache_stats|plan_cache_hits|enqueued_at",
        ("src", "scripts"),
    ),
    Deleted(
        "thread_workspace",
        "a per-backend or per-plan walk workspace, or the AES table index array",
        r"self\._workspace|entry\.workspace|workspace=ExpansionWorkspace\(\)"
        r"|np\.arange\(65536\)",
        ("src/repro/exec", "src/repro/crypto"),
    ),
    Deleted(
        "request_hints",
        "a pricing hint, a backend knob, EvalResult or an uncalled accessor",
        r"EvalResult|slo_latency_s|meets_slo|resident=|\.resident\b|_schedulers\b"
        r"|alloc_arrays?\b|free_arrays?\b|def shard_count|def replica_count",
        (
            "src/repro/exec",
            "src/repro/pir",
            "src/repro/serve",
            "src/repro/gpu/memory.py",
        ),
    ),
    Deleted(
        "metrics_registry",
        "the metrics registry, a view of it, or the plan cache's padding",
        r"MetricsRegistry|repro\.obs\.metrics|metrics_record|KIND_METRICS"
        r"|_register_views|_observe_stage|LATENCY_BUCKETS|latency_buckets"
        r"|def as_dict|\.padded\(|def padded|pad_to\b",
        ("src", "scripts"),
    ),
    Deleted(
        "loop_knows_no_shards",
        "a sharded-server import in the serving loop",
        r"from repro\.serve\.shard import|ShardedPirServer",
        ("src/repro/serve/loop.py",),
    ),
    # Matched 9 lines of src/ when it was written: six in exec/backend.py,
    # two in exec/plan_cache.py and one in exec/request.py.
    Deleted(
        "plan_leaves_the_path",
        "a run-under-a-plan entry point, or the reference oracle in the program",
        r"run_with_plan|class SimulatedBackend|def reduced\(",
        ("src", "scripts"),
    ),
)


def _files(scope: tuple[str, ...]):
    for entry in scope:
        path = ROOT / entry
        if path.is_file():
            yield path
            continue
        assert path.is_dir(), f"{entry} is neither a file nor a directory"
        for child in sorted(path.rglob("*")):
            if child.is_file() and "__pycache__" not in child.parts:
                yield child


def _matches(pattern: str, scope: tuple[str, ...]) -> list[str]:
    regex = re.compile(pattern.encode())
    hits = []
    for path in _files(scope):
        for number, line in enumerate(path.read_bytes().splitlines(), 1):
            if regex.search(line):
                text = line.decode(errors="replace").strip()
                hits.append(f"{path.relative_to(ROOT)}:{number}: {text}")
    return hits


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_deleted_names_stay_deleted(row):
    hits = _matches(row.pattern, row.scope)
    assert not hits, f"{row.what} is back:\n" + "\n".join(hits)


CAUGHT = (
    ("metrics_registry", "from repro.obs.metrics import MetricsRegistry"),
    ("metrics_registry", "from .export import metrics_record, read_jsonl"),
    ("metrics_registry", 'KIND_METRICS = "metrics"'),
    ("metrics_registry", "    def _register_views(self, metrics) -> None:"),
    ("metrics_registry", "        self._tracer._observe_stage(span.name, took)"),
    ("metrics_registry", "DEFAULT_LATENCY_BUCKETS = default_latency_buckets()"),
    ("metrics_registry", "    def as_dict(self) -> dict:"),
    ("metrics_registry", "plan = backend.plan(request.padded(batch_bucket(b)))"),
    ("metrics_registry", '    def pad_to(self, total: int) -> "KeyArena":'),
    ("loop_knows_no_shards", "from repro.serve.shard import ShardedPirServer"),
    ("loop_knows_no_shards", "        if isinstance(self.server, ShardedPirServer):"),
    ("plan_leaves_the_path", "        return backend.run_with_plan(request, plan)"),
    ("plan_leaves_the_path", "class SimulatedBackend(ExecutionBackend):"),
    ("plan_leaves_the_path", "    def reduced(self, shares: np.ndarray) -> np.ndarray:"),
)


@pytest.mark.parametrize("name,line", CAUGHT)
def test_a_row_catches_the_line_it_was_written_for(name, line):
    """Each alternative of a row's pattern matches a line the deleted
    code held, so no alternative is vacuous."""
    (row,) = [row for row in ROWS if row.name == name]
    assert re.search(row.pattern, line)


def test_the_scan_finds_what_is_there():
    """The scanner is not vacuous: it finds a name that is present, in
    a single-file scope and under a directory."""
    for scope in (("src/repro/serve/loop.py",), ("src",)):
        (hit,) = _matches(r"^class AsyncPirServer\b", scope)
        assert hit.startswith("src/repro/serve/loop.py:")
        assert hit.endswith(": class AsyncPirServer:")

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


def test_the_scan_finds_what_is_there():
    """The scanner is not vacuous: it finds a name that is present, in
    a single-file scope and under a directory."""
    for scope in (("src/repro/serve/loop.py",), ("src",)):
        (hit,) = _matches(r"^class AsyncPirServer\b", scope)
        assert hit.startswith("src/repro/serve/loop.py:")
        assert hit.endswith(": class AsyncPirServer:")

"""JSONL export for finished traces.

One record per line, each tagged ``{"kind": "trace", ...}``.
``scripts/obs_report.py`` renders these files; :func:`read_jsonl` is
the matching loader.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from .trace import TraceContext

KIND_TRACE = "trace"


def trace_record(trace: TraceContext | dict) -> dict:
    """The JSONL line payload for one finished trace."""
    body = trace.to_dict() if isinstance(trace, TraceContext) else dict(trace)
    return {"kind": KIND_TRACE, **body}


def write_jsonl(path_or_handle, traces: Iterable[TraceContext | dict]) -> int:
    """Write traces as JSONL; returns the record count."""
    records = [trace_record(t) for t in traces]
    if hasattr(path_or_handle, "write"):
        _write_records(path_or_handle, records)
    else:
        with open(path_or_handle, "w", encoding="utf-8") as handle:
            _write_records(handle, records)
    return len(records)


def read_jsonl(path_or_handle) -> list[dict]:
    """Load a JSONL export; returns its traces as dicts.

    Records of any other ``kind`` are skipped, so older exports that
    also carry ``metrics`` lines still load; a malformed line raises —
    a truncated export should fail loudly, not silently drop the tail.
    """
    if hasattr(path_or_handle, "read"):
        lines = path_or_handle.read().splitlines()
    else:
        with open(path_or_handle, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    traces: list[dict] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSONL at line {lineno}: {exc}") from exc
        if record.get("kind") == KIND_TRACE:
            record.pop("kind")
            traces.append(record)
    return traces


def _write_records(handle: IO[str], records: list[dict]) -> None:
    for record in records:
        handle.write(json.dumps(record, sort_keys=True))
        handle.write("\n")

"""Render per-stage latency breakdowns and slowest-trace tables.

The analysis half of the tracing pipeline: given the trace dicts from
a JSONL export (or live :class:`~repro.obs.trace.TraceContext`
objects), compute where time went per pipeline stage and which
individual queries were slowest — the two questions a latency
investigation starts with.  ``scripts/obs_report.py`` is the CLI
wrapper around :func:`render_report`.
"""

from __future__ import annotations

from .trace import REQUIRED_STAGES, TraceContext, chain_problems


def _as_dicts(traces) -> list[dict]:
    return [t.to_dict() if isinstance(t, TraceContext) else t for t in traces]


def stage_breakdown(traces) -> dict[str, dict]:
    """Per-stage duration stats across all spans of all traces.

    Returns ``{stage: {count, total_s, mean_s, max_s, share}}`` where
    ``share`` is the stage's fraction of summed span time — the
    "where did the time go" answer.  Stages appear in pipeline order
    first, then any extra span names alphabetically.
    """
    sums: dict[str, list] = {}
    for trace in _as_dicts(traces):
        for span in trace["spans"]:
            if span["end_s"] is None:
                continue
            bucket = sums.setdefault(span["name"], [0, 0.0, 0.0])
            duration = span["end_s"] - span["start_s"]
            bucket[0] += 1
            bucket[1] += duration
            bucket[2] = max(bucket[2], duration)
    grand_total = sum(bucket[1] for bucket in sums.values())
    ordered = [s for s in REQUIRED_STAGES if s in sums]
    ordered += sorted(set(sums) - set(REQUIRED_STAGES))
    return {
        stage: {
            "count": sums[stage][0],
            "total_s": sums[stage][1],
            "mean_s": sums[stage][1] / sums[stage][0],
            "max_s": sums[stage][2],
            "share": (sums[stage][1] / grand_total) if grand_total else 0.0,
        }
        for stage in ordered
    }


def slowest_traces(traces, top: int = 10) -> list[dict]:
    """The ``top`` longest closed traces, slowest first.

    Each row carries the trace identity, total duration, per-stage
    durations (summed across retry rounds), and its event names — the
    detail view for one slow query.
    """
    rows = []
    for trace in _as_dicts(traces):
        if trace["ended_s"] is None:
            continue
        stages: dict[str, float] = {}
        for span in trace["spans"]:
            if span["end_s"] is not None:
                stages[span["name"]] = (
                    stages.get(span["name"], 0.0) + span["end_s"] - span["start_s"]
                )
        rows.append(
            {
                "trace_id": trace["trace_id"],
                "meta": trace["meta"],
                "status": trace["status"],
                "duration_s": trace["ended_s"] - trace["started_s"],
                "stages_s": stages,
                "events": [event["name"] for event in trace["events"]],
            }
        )
    rows.sort(key=lambda row: row["duration_s"], reverse=True)
    return rows[:top]


def render_report(traces, top: int = 10) -> str:
    """The human-readable session report as one string.

    Sections: trace census (statuses + chain-integrity check),
    per-stage breakdown table and the top-N slowest traces.
    """
    traces = _as_dicts(traces)
    lines: list[str] = []
    statuses: dict[str, int] = {}
    for trace in traces:
        statuses[trace["status"]] = statuses.get(trace["status"], 0) + 1
    broken = sum(
        1
        for trace in traces
        if trace["status"] == "answered" and chain_problems(trace)
    )
    census = ", ".join(f"{count} {status}" for status, count in sorted(statuses.items()))
    lines.append(f"traces: {len(traces)} ({census or 'none'})")
    lines.append(
        "chain integrity: "
        + ("OK (all answered traces complete)" if not broken else f"{broken} BROKEN")
    )
    lines.append("")

    breakdown = stage_breakdown(traces)
    if breakdown:
        lines.append("per-stage latency breakdown:")
        lines.append(
            f"  {'stage':<10} {'count':>7} {'mean_ms':>9} {'max_ms':>9} {'share':>7}"
        )
        for stage, row in breakdown.items():
            lines.append(
                f"  {stage:<10} {row['count']:>7} {row['mean_s'] * 1e3:>9.4f} "
                f"{row['max_s'] * 1e3:>9.4f} {row['share'] * 100:>6.1f}%"
            )
        lines.append("")

    slow = slowest_traces(traces, top=top)
    if slow:
        lines.append(f"top {len(slow)} slowest traces:")
        for row in slow:
            stages = " ".join(
                f"{stage}={duration * 1e3:.4f}ms"
                for stage, duration in row["stages_s"].items()
            )
            events = f" events=[{','.join(row['events'])}]" if row["events"] else ""
            meta = ",".join(f"{k}={v}" for k, v in row["meta"].items())
            lines.append(
                f"  #{row['trace_id']} {row['duration_s'] * 1e3:.4f}ms "
                f"[{row['status']}] ({meta}) {stages}{events}"
            )
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"

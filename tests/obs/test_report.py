"""The report renderer: breakdowns and slowest-trace tables.

Driven entirely by fake-clock traces so every number in the rendered
output is pinned, and by the same dict forms `read_jsonl` returns so
the renderer provably works on reloaded exports.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.obs import (
    RETRY_STAGES,
    STAGE_ADMIT,
    STAGE_DEMUX,
    STAGE_DISPATCH,
    STAGE_PLAN,
    Tracer,
    read_jsonl,
    render_report,
    slowest_traces,
    stage_breakdown,
    write_jsonl,
)

from tests.obs.test_trace import FakeClock, _complete_chain

_OBS_REPORT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "obs_report.py"


def _session(trace_count=3):
    """Traces with strictly increasing durations (steps 1s, 2s, 3s...)."""
    traces = []
    for i in range(trace_count):
        tracer = Tracer(clock=FakeClock(step=float(i + 1)))
        traces.append(_complete_chain(tracer))
    return traces


class TestStageBreakdown:
    def test_pipeline_stages_come_first_in_order(self):
        tracer = Tracer(clock=FakeClock())
        ctx = _complete_chain(tracer)
        # An extra non-pipeline span name sorts after the pipeline.
        extra = tracer.trace()
        extra.end(extra.begin("zz_custom"))
        extra.end(extra.begin(STAGE_ADMIT))
        extra.close("answered")
        breakdown = stage_breakdown([ctx, extra])
        names = list(breakdown)
        assert names[0] == STAGE_ADMIT
        assert names[-1] == "zz_custom"
        assert set(RETRY_STAGES) < set(names)

    def test_shares_sum_to_one_and_stats_are_exact(self):
        breakdown = stage_breakdown(_session())
        assert sum(row["share"] for row in breakdown.values()) == pytest.approx(
            1.0
        )
        # Every span in a FakeClock(step=s) chain lasts exactly s.
        admit = breakdown[STAGE_ADMIT]
        assert admit["count"] == 3
        assert admit["total_s"] == pytest.approx(1.0 + 2.0 + 3.0)
        assert admit["max_s"] == pytest.approx(3.0)
        assert admit["mean_s"] == pytest.approx(2.0)

    def test_open_spans_are_excluded(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.trace()
        ctx.begin(STAGE_DISPATCH)  # never ended
        assert stage_breakdown([ctx]) == {}

    def test_empty_input(self):
        assert stage_breakdown([]) == {}


class TestSlowestTraces:
    def test_sorted_slowest_first_and_truncated(self):
        traces = _session(trace_count=4)
        rows = slowest_traces(traces, top=2)
        assert len(rows) == 2
        assert rows[0]["duration_s"] > rows[1]["duration_s"]
        assert rows[0]["trace_id"] == traces[-1].trace_id

    def test_stage_durations_sum_across_retry_rounds(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        ctx = _complete_chain(tracer, rounds=2)
        (row,) = slowest_traces([ctx])
        # Two rounds of 1s-per-span queue spans: summed, not latest.
        assert row["stages_s"]["queue"] == pytest.approx(2.0)
        assert row["stages_s"][STAGE_ADMIT] == pytest.approx(1.0)

    def test_open_traces_are_excluded(self):
        tracer = Tracer(clock=FakeClock())
        open_trace = tracer.trace()
        assert slowest_traces([open_trace]) == []

    def test_events_are_listed_by_name(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.trace()
        ctx.event("retry", attempt=1)
        ctx.close("failed")
        (row,) = slowest_traces([ctx])
        assert row["events"] == ["retry"]
        assert row["status"] == "failed"


class TestRenderReport:
    def test_healthy_session_renders_every_section(self):
        traces = _session()
        report = render_report(traces, top=2)
        assert "traces: 3 (3 answered)" in report
        assert "chain integrity: OK" in report
        assert "per-stage latency breakdown:" in report
        assert "top 2 slowest traces:" in report
        assert "histograms" not in report

    def test_broken_chain_is_called_out(self):
        tracer = Tracer(clock=FakeClock())
        broken = tracer.trace()
        broken.end(broken.begin(STAGE_ADMIT))
        broken.begin(STAGE_DEMUX)  # orphan
        broken.close("answered")
        report = render_report([broken])
        assert "1 BROKEN" in report

    def test_renders_reloaded_dict_forms(self):
        traces = [t.to_dict() for t in _session()]
        report = render_report(traces)
        assert "chain integrity: OK" in report

    def test_empty_session(self):
        assert "traces: 0 (none)" in render_report([])


def _obs_report_cli():
    spec = importlib.util.spec_from_file_location("obs_report_cli", _OBS_REPORT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _drop_span(trace, name):
    """The trace dict without its last ``name`` span."""
    last = max(i for i, span in enumerate(trace["spans"]) if span["name"] == name)
    return {**trace, "spans": trace["spans"][:last] + trace["spans"][last + 1 :]}


def _orphan(trace):
    spans = [dict(span) for span in trace["spans"]]
    spans[-1]["end_s"] = None
    return {**trace, "spans": spans}


BREAKS = {
    "orphaned span": _orphan,
    "missing stage": lambda trace: _drop_span(trace, STAGE_PLAN),
    "unbalanced retry rounds": lambda trace: _drop_span(trace, STAGE_DISPATCH),
}


class TestObsReportScript:
    """``scripts/obs_report.py`` on exports written by ``write_jsonl``."""

    @pytest.mark.parametrize("problem", sorted(BREAKS))
    def test_strict_fails_and_names_the_broken_trace(self, problem, tmp_path, capsys):
        tracer = Tracer(clock=FakeClock())
        whole = _complete_chain(tracer).to_dict()
        rounds = 2 if problem == "unbalanced retry rounds" else 1
        broken = BREAKS[problem](_complete_chain(tracer, rounds=rounds).to_dict())
        path = tmp_path / "session.jsonl"
        write_jsonl(path, traces=[whole, broken])
        assert _obs_report_cli().main([str(path), "--strict"]) == 1
        captured = capsys.readouterr()
        assert "1 BROKEN" in captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith(f"BROKEN trace #{broken['trace_id']}: ")
        assert problem in line

    def test_without_strict_a_broken_chain_still_exits_zero(self, tmp_path, capsys):
        broken = _orphan(_complete_chain(Tracer(clock=FakeClock())).to_dict())
        path = tmp_path / "session.jsonl"
        write_jsonl(path, traces=[broken])
        assert _obs_report_cli().main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "1 BROKEN" in captured.out and captured.err == ""

    def test_out_writes_the_printed_text(self, tmp_path, capsys):
        path = tmp_path / "session.jsonl"
        write_jsonl(path, traces=_session())
        out = tmp_path / "report.txt"
        assert _obs_report_cli().main([str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == printed
        assert printed == render_report(read_jsonl(path))

    @pytest.mark.parametrize("top", [1, 2, 3])
    def test_top_truncates_the_slowest_table(self, top, tmp_path, capsys):
        traces = _session(trace_count=4)
        path = tmp_path / "session.jsonl"
        write_jsonl(path, traces=traces)
        assert _obs_report_cli().main([str(path), "--top", str(top)]) == 0
        printed = capsys.readouterr().out
        assert f"top {top} slowest traces:" in printed
        listed = [line for line in printed.splitlines() if line.startswith("  #")]
        # The slowest traces are the last ones, slowest first.
        expected = [t.trace_id for t in reversed(traces)][:top]
        assert [int(line[3:].split()[0]) for line in listed] == expected

    def test_an_export_with_metrics_lines_renders_its_traces(self, tmp_path, capsys):
        traces = _session()
        lines = [json.dumps({"kind": "trace", **t.to_dict()}) for t in traces]
        lines.append(json.dumps({"kind": "metrics", "snapshot": {"histograms": {}}}))
        path = tmp_path / "older.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert _obs_report_cli().main([str(path), "--strict"]) == 0
        assert capsys.readouterr().out == render_report(traces)

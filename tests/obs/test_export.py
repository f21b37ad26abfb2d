"""JSONL export/import: the round trip is lossless and fails loudly.

An export is the session's evidence — `scripts/obs_report.py` and the
CI chain checks both read it back, so a trace must survive write/read
byte-identically (as its dict form) and a truncated or corrupted file
must raise, never silently drop the tail.
"""

import io
import json

import pytest

from repro.obs import (
    STAGE_ADMIT,
    STAGE_DEMUX,
    Tracer,
    chain_problems,
    read_jsonl,
    write_jsonl,
)

from tests.obs.test_trace import FakeClock, _complete_chain


class TestRoundTrip:
    def test_traces_round_trip(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        finished = [_complete_chain(tracer) for _ in range(3)]
        path = tmp_path / "session.jsonl"
        count = write_jsonl(path, traces=tracer.drain())
        assert count == 3
        traces = read_jsonl(path)
        assert [t["trace_id"] for t in traces] == [c.trace_id for c in finished]
        assert traces == [c.to_dict() for c in finished]

    def test_chain_checker_runs_on_reloaded_dicts(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        whole = _complete_chain(tracer)
        broken = tracer.trace()
        broken.end(broken.begin(STAGE_ADMIT))
        broken.begin(STAGE_DEMUX)  # orphan
        broken.close("answered")
        path = tmp_path / "session.jsonl"
        write_jsonl(path, traces=tracer.drain())
        traces = read_jsonl(path)
        assert chain_problems(traces[0]) == []
        assert whole.trace_id == traces[0]["trace_id"]
        assert chain_problems(traces[1])  # the orphan survives the trip

    def test_write_and_read_accept_open_handles(self):
        tracer = Tracer(clock=FakeClock())
        _complete_chain(tracer)
        buffer = io.StringIO()
        write_jsonl(buffer, traces=tracer.drain())
        buffer.seek(0)
        assert len(read_jsonl(buffer)) == 1

    def test_trace_dicts_pass_through_unchanged(self, tmp_path):
        trace = _complete_chain(Tracer(clock=FakeClock())).to_dict()
        path = tmp_path / "session.jsonl"
        write_jsonl(path, traces=[trace])
        assert read_jsonl(path) == [trace]


class TestFailureModes:
    def test_malformed_line_raises_with_its_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "trace", "trace_id": 0}\n{truncated')
        with pytest.raises(ValueError, match="line 2"):
            read_jsonl(path)

    def test_unknown_kinds_are_skipped_for_forward_compat(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text('{"kind": "profile", "data": 1}\n')
        assert read_jsonl(path) == []

    def test_blank_lines_are_ignored(self, tmp_path):
        trace = _complete_chain(Tracer(clock=FakeClock())).to_dict()
        path = tmp_path / "gaps.jsonl"
        path.write_text("\n" + json.dumps({"kind": "trace", **trace}) + "\n\n")
        assert read_jsonl(path) == [trace]

    def test_an_export_with_metrics_lines_loads_its_traces(self, tmp_path):
        # Exports once interleaved registry snapshots with the traces;
        # such a file still loads, its metrics lines skipped.
        tracer = Tracer(clock=FakeClock())
        finished = [_complete_chain(tracer) for _ in range(2)]
        snapshot = {"counters": {}, "gauges": {}, "histograms": {}, "views": {}}
        lines = [json.dumps({"kind": "trace", **finished[0].to_dict()})]
        lines.append(json.dumps({"kind": "metrics", "snapshot": snapshot}))
        lines.append(json.dumps({"kind": "trace", **finished[1].to_dict()}))
        lines.append(json.dumps({"kind": "metrics", "snapshot": snapshot}))
        path = tmp_path / "older.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert read_jsonl(path) == [c.to_dict() for c in finished]

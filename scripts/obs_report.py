#!/usr/bin/env python
"""Render an observability report from a JSONL trace export.

Usage:
    python scripts/obs_report.py EXPORT.jsonl [--top N] [--out FILE] [--strict]

Reads the export written by ``repro.obs.export.write_jsonl`` (for
example by a traced serving session) and prints the session's
per-stage latency breakdown, chain-integrity census and top-N slowest
traces.  With ``--out`` the same rendering is additionally written to a
file.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs import chain_problems, read_jsonl, render_report  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("export", help="JSONL file from repro.obs.export")
    parser.add_argument(
        "--top", type=int, default=10, help="slowest traces to show (default 10)"
    )
    parser.add_argument(
        "--out", default=None, help="also write the rendered report to this file"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when any answered trace has an incomplete span chain",
    )
    args = parser.parse_args(argv)

    traces = read_jsonl(args.export)
    report = render_report(traces, top=args.top)
    print(report, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
    if args.strict:
        broken = [
            (trace["trace_id"], problems)
            for trace in traces
            if trace["status"] == "answered"
            and (problems := chain_problems(trace))
        ]
        if broken:
            for trace_id, problems in broken:
                print(f"BROKEN trace #{trace_id}: {problems}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare two sets of benchmark results against the bounds.

    python3 benchmark/compare.py BASE.json NEW.json
    python3 benchmark/compare.py --base A1.json A2.json A3.json --new B1.json B2.json B3.json

Each file is what ``run.py --out`` wrote.  One row per (end-to-end
metric, workload): each side's median and quartiles, new over base, and
a verdict against the metric's bound in ``BENCHMARK.json``:

* ``regressed``: the new median is worse than the base median by more
  than the bound;
* ``unresolved``: it is not, but one side's own spread (distance between
  its quartiles over its median) is wider than the bound, so "no
  change" cannot be told from noise;
* ``ok`` otherwise.

Exits 1 on any ``regressed`` row, or when a workload's failed share of
attempted requests is higher on the new side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[Path]) -> dict[str, list[dict]]:
    """``workload -> [result, ...]`` over one side's files."""
    side: dict[str, list[dict]] = {}
    for path in paths:
        for workload, result in json.loads(path.read_text())["results"].items():
            side.setdefault(workload, []).append(result)
    return side


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile (one value: all three)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, new median over base median)`` for one row."""
    (b1, b2, b3), (n1, n2, n3) = quartiles(base), quartiles(new)
    worse_by = (b2 - n2) / b2 if better == "higher" else (n2 - b2) / b2
    if worse_by > bound:
        return "regressed", n2 / b2
    if max((b3 - b1) / b2, (n3 - n1) / n2) > bound:
        return "unresolved", n2 / b2
    return "ok", n2 / b2


def failed_share(results: list[dict]) -> float:
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def compare(base: dict[str, list[dict]], new: dict[str, list[dict]], metrics: list[dict]) -> int:
    """Print the rows; return the exit code."""
    bad = 0
    print(f"{'workload':16s} {'metric':22s} {'base [q1..q3]':>34s} {'new [q1..q3]':>34s} {'new/base':>9s}  verdict")
    for workload in base:
        if workload not in new:
            continue
        for metric in metrics:
            name = metric["name"]
            sides = [
                [r["metrics"][name]["value"] for r in side[workload] if name in r["metrics"]]
                for side in (base, new)
            ]
            if not all(sides):
                continue
            word, ratio = verdict(*sides, metric["better"], metric["bound"])
            bad += word == "regressed"
            cells = [
                "{1:.5g} [{0:.5g}..{2:.5g}]".format(*quartiles(values)) for values in sides
            ]
            print(f"{workload:16s} {name:22s} {cells[0]:>34s} {cells[1]:>34s} {ratio:9.4f}  {word}")
        shares = failed_share(base[workload]), failed_share(new[workload])
        if shares[1] > shares[0]:
            bad += 1
            print(f"{workload:16s} failed share rose from {shares[0]:.4g} to {shares[1]:.4g}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pair", nargs="*", type=Path, help="BASE.json NEW.json")
    parser.add_argument("--base", nargs="+", type=Path, default=[])
    parser.add_argument("--new", nargs="+", type=Path, default=[])
    args = parser.parse_args(argv)
    if len(args.pair) == 2 and not args.base and not args.new:
        args.base, args.new = args.pair[:1], args.pair[1:]
    elif args.pair or not args.base or not args.new:
        parser.error("give BASE.json NEW.json, or --base FILES --new FILES")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return compare(load(args.base), load(args.new), metrics)


if __name__ == "__main__":
    sys.exit(main())

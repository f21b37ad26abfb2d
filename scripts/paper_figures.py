#!/usr/bin/env python
"""Print the paper's modeled figures and tables as plain text tables.

Every number below is *modeled*: kernel plans (``Strategy.plan``) are
priced on the calibrated V100 model (``GpuSimulator``, through
``select_strategy`` / ``Scheduler``) and the AES-NI CPU baseline
(``CpuCostModel``).  Nothing is timed and no artifact is read, so two
runs print byte-identical output.  Measured, wall-clock numbers come
from ``benchmark/run.py`` only; the two never share a column.

Each block names the paper figure or table it reproduces, and each
anchor line prints the modeled value beside the paper's.

Usage:
    PYTHONPATH=src python scripts/paper_figures.py
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.baselines import CpuCostModel  # noqa: E402
from repro.gpu import (  # noqa: E402
    V100, GpuSimulator, Scheduler, available_strategies, get_strategy, select_strategy,
)

MILLION = 1 << 20
MIB = float(1 << 20)

# Table 4: V100, AES-128, 1M-entry table, batch 512.
PAPER_TABLE4_QPS = 1358.0
# Table 5: V100 throughput per PRF at the same shape.
PAPER_TABLE5_QPS = {
    "aes128": 965.0, "sha256": 921.0, "chacha20": 3640.0, "highwayhash": 1973.0, "siphash": 7447.0,
}


@dataclass(frozen=True)
class Anchor:
    """One modeled number beside the paper value it reproduces."""

    label: str
    modeled: float
    paper: float | str


@dataclass(frozen=True)
class Figure:
    """One printed block: a titled table plus its paper anchors."""

    title: str
    columns: tuple[str, ...]
    rows: list[tuple]
    anchors: tuple[Anchor, ...] = ()


def table4() -> Figure:
    """Table 4: every strategy priced at the calibration shape."""
    selection = select_strategy(512, MILLION, prf_name="aes128", device=V100)
    return Figure(
        title="Table 4: V100, aes128, 2^20 rows, B=512",
        columns=("strategy", "modeled_feasible", "modeled_qps"),
        rows=[(name, "yes" if stats.feasible else "no", stats.throughput_qps)
              for name, stats in selection.rankings],
        anchors=(Anchor(f"QPS of the selected {selection.strategy}",
                        selection.stats.throughput_qps, PAPER_TABLE4_QPS),),
    )


def table5() -> Figure:
    """Table 5: the per-PRF ordering, as throughput ratios to AES."""
    scheduler = Scheduler(V100)
    selections = {prf: scheduler.select(512, MILLION, prf) for prf in PAPER_TABLE5_QPS}
    qps = {prf: s.stats.throughput_qps for prf, s in selections.items()}
    return Figure(
        title="Table 5: V100, 2^20 rows, B=512, per PRF",
        columns=("prf", "strategy", "modeled_qps", "modeled_over_aes128"),
        rows=[(prf, selections[prf].strategy, qps[prf], qps[prf] / qps["aes128"])
              for prf in PAPER_TABLE5_QPS],
        anchors=tuple(
            Anchor(f"{prf} / aes128 QPS", qps[prf] / qps["aes128"],
                   paper / PAPER_TABLE5_QPS["aes128"])
            for prf, paper in PAPER_TABLE5_QPS.items()
            if prf != "aes128"
        ),
    )


def figure6() -> Figure:
    """Figure 6: device peak memory of each strategy's kernel plan."""
    shapes = ((64, 16), (512, 16), (512, 20))
    peak = {(name, batch, log_rows): get_strategy(name).plan(batch, 1 << log_rows).peak_mem_bytes
            for name in available_strategies() for batch, log_rows in shapes}
    return Figure(
        title="Figure 6: peak device memory per strategy (aes128)",
        columns=("strategy", "batch", "rows", "modeled_peak_mib"),
        rows=[(name, batch, f"2^{log_rows}", bytes_ / MIB)
              for (name, batch, log_rows), bytes_ in peak.items()],
        anchors=(Anchor("level_by_level / memory_bounded peak at B=512, 2^20 rows",
                        peak["level_by_level", 512, 20] / peak["memory_bounded", 512, 20],
                        "O(B*L) against O(B*K*log L)"),),
    )


def figures8_9() -> Figure:
    """Figures 8/9: QPS against batch, sequential and pipelined ingest."""
    scheduler, sim = Scheduler(V100), GpuSimulator(V100)
    rows = []
    for log_rows in (12, 20):
        for batch in (1, 4, 16, 64, 256, 1024, 4096):
            selection = scheduler.select(batch, 1 << log_rows)
            sequential = sim.pipelined_latency_s(selection.plan, overlap=False)
            pipelined = sim.pipelined_latency_s(selection.plan, overlap=True)
            rows.append((f"2^{log_rows}", batch, selection.strategy,
                         selection.stats.utilization, batch / sequential, batch / pipelined))
    return Figure(
        title="Figures 8/9: V100 QPS against batch (aes128)",
        columns=("rows", "batch", "strategy", "modeled_utilization",
                 "modeled_qps", "modeled_pipelined_qps"),
        rows=rows,
    )


def figure10() -> Figure:
    """Figure 10: CPU baseline against the V100, and the cheaper one."""
    cpu, gpu = CpuCostModel(), Scheduler(V100)
    rows = []
    for log_rows in (8, 10, 14, 20):
        for batch in (1, 16, 256, 1024):
            cpu_s = cpu.latency_s(batch, 1 << log_rows)
            gpu_s = gpu.latency_s(batch, 1 << log_rows)
            rows.append((f"2^{log_rows}", batch, cpu_s * 1e3, gpu_s * 1e3,
                         min(cpu_s, gpu_s) * 1e3, "cpu" if cpu_s < gpu_s else "gpu",
                         cpu_s / gpu_s))
    lead = cpu.latency_s(1024, MILLION) / gpu.latency_s(1024, MILLION)
    return Figure(
        title="Figure 10: CPU (AES-NI) against V100 batch latency (aes128)",
        columns=("rows", "batch", "modeled_cpu_ms", "modeled_gpu_ms",
                 "modeled_best_ms", "modeled_winner", "modeled_cpu_over_gpu"),
        rows=rows,
        anchors=(Anchor("GPU lead at 2^20 rows, B=1024", lead, "more than 10x"),),
    )


def figures13_14() -> Figure:
    """Figures 13/14: QPS against table size."""
    scheduler = Scheduler(V100)
    batches = (64, 512, 4096)
    return Figure(
        title="Figures 13/14: V100 QPS against table size (aes128)",
        columns=("rows",) + tuple(f"modeled_qps_b{batch}" for batch in batches),
        rows=[
            (f"2^{log_rows}",)
            + tuple(scheduler.throughput_qps(batch, 1 << log_rows) for batch in batches)
            for log_rows in range(12, 27, 2)
        ],
    )


FIGURES = (table4, table5, figure6, figures8_9, figure10, figures13_14)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:#.4g}"


def _anchor_line(anchor: Anchor) -> str:
    line = f"  anchor: {anchor.label}: modeled {_fmt(anchor.modeled)}, paper "
    if isinstance(anchor.paper, str):
        return line + anchor.paper
    delta = (anchor.modeled / anchor.paper - 1.0) * 100.0
    return line + f"{_fmt(anchor.paper)} ({delta:+.1f} %)"


def render(figure: Figure) -> str:
    """The figure as an aligned plain-text table, anchors underneath."""
    cells = [figure.columns] + [tuple(_fmt(v) for v in row) for row in figure.rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(figure.columns))]
    lines = [figure.title, "-" * len(figure.title)]
    lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
    lines += [_anchor_line(anchor) for anchor in figure.anchors]
    return "\n".join(lines)


def main() -> int:
    print("\n\n".join(render(build()) for build in FIGURES))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

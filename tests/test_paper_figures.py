"""scripts/paper_figures.py: the paper's modeled figures and their anchors.

Claims: Table 4 lands within 1 % of the paper's 1,358 QPS; every
Table 5 throughput ratio to AES lies within 10 % of the paper's; the
Figure 10 GPU lead at 2^20 rows is 12-15x while the CPU still wins
single-query batches on small tables; every block prints with every
computed column headed ``modeled``; and two runs print byte-identical
output.  Every printed row is the modeled API it names, shared points
agree across figures, and each figure's trend holds.
"""

import importlib.util
import itertools
import pathlib
import subprocess
import sys

import pytest

from repro.baselines import CpuCostModel
from repro.gpu import V100, GpuSimulator, Scheduler, get_strategy

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "paper_figures.py"


@pytest.fixture(scope="module")
def paper_figures():
    spec = importlib.util.spec_from_file_location("paper_figures_cli", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["paper_figures_cli"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("paper_figures_cli", None)


def _rows(figure):
    return [dict(zip(figure.columns, row)) for row in figure.rows]


def _only(figure, **match):
    (row,) = [r for r in _rows(figure) if all(r[k] == v for k, v in match.items())]
    return row


def _column(figure, column, **match):
    return [r[column] for r in _rows(figure) if all(r[k] == v for k, v in match.items())]


def _rising(values):
    return all(a <= b for a, b in zip(values, values[1:]))


def test_table4_is_within_one_percent_of_the_paper(paper_figures):
    (anchor,) = paper_figures.table4().anchors
    assert anchor.paper == 1358.0
    assert abs(anchor.modeled / anchor.paper - 1.0) < 0.01
    assert "memory_bounded" in anchor.label


def test_table5_ratios_are_within_ten_percent_of_the_paper(paper_figures):
    anchors = paper_figures.table5().anchors
    assert [a.label.split()[0] for a in anchors] == ["sha256", "chacha20", "highwayhash", "siphash"]
    for anchor in anchors:
        assert abs(anchor.modeled / anchor.paper - 1.0) < 0.10, anchor


def test_figure10_gpu_lead_at_2_20_rows(paper_figures):
    (anchor,) = paper_figures.figure10().anchors
    assert 12.0 <= anchor.modeled <= 15.0


@pytest.mark.parametrize("rows", ["2^8", "2^10"])
def test_figure10_cpu_wins_single_query_batches(paper_figures, rows):
    row = _only(paper_figures.figure10(), rows=rows, batch=1)
    assert row["modeled_winner"] == "cpu"
    assert row["modeled_cpu_ms"] == row["modeled_best_ms"] < row["modeled_gpu_ms"]


def test_every_block_prints_with_modeled_headers(paper_figures, capsys):
    assert paper_figures.main() == 0
    lines = capsys.readouterr().out.splitlines()
    titles = ["Table 4", "Table 5", "Figure 6", "Figures 8/9", "Figure 10", "Figures 13/14"]
    for build, title in zip(paper_figures.FIGURES, titles, strict=True):
        figure = build()
        assert figure.title.startswith(title)
        header = lines[lines.index(figure.title) + 2]
        assert header.split() == list(figure.columns)
        for i, column in enumerate(figure.columns):
            if any(isinstance(row[i], float) for row in figure.rows):
                assert column.startswith("modeled"), (title, column)


def test_same_output_twice(paper_figures, capsys):
    paper_figures.main()
    first = capsys.readouterr().out
    paper_figures.main()
    assert capsys.readouterr().out == first


STRATEGIES = ("branch_parallel", "cooperative_groups", "level_by_level", "memory_bounded")
PRFS_BY_PAPER_QPS = ("sha256", "aes128", "highwayhash", "chacha20", "siphash")
FIG6_SHAPES = ((64, 16), (512, 16), (512, 20))
FIG8_9_BATCHES = (1, 4, 16, 64, 256, 1024, 4096)
FIG10_BATCHES = (1, 16, 256, 1024)
FIG13_14_BATCHES = (64, 512, 4096)
NAMES = ("table4", "table5", "figure6", "figures8_9", "figure10", "figures13_14")


@pytest.fixture(scope="module")
def figures(paper_figures):
    return {build.__name__: build() for build in paper_figures.FIGURES}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_table4_row_is_the_simulated_plan(figures, strategy):
    stats = GpuSimulator(V100).simulate(get_strategy(strategy).plan(512, 1 << 20))
    row = _only(figures["table4"], strategy=strategy)
    assert row["modeled_qps"] == stats.throughput_qps
    assert row["modeled_feasible"] == ("yes" if stats.feasible else "no")


def test_table4_ranks_the_selected_strategy_first(figures):
    rows = _rows(figures["table4"])
    assert rows[0]["strategy"] == "memory_bounded"
    assert sorted(r["strategy"] for r in rows) == list(STRATEGIES)
    feasible = [r["modeled_qps"] for r in rows if r["modeled_feasible"] == "yes"]
    assert feasible == sorted(feasible, reverse=True)
    (anchor,) = figures["table4"].anchors
    assert anchor.modeled == _only(figures["figures13_14"], rows="2^20")["modeled_qps_b512"]


@pytest.mark.parametrize("prf", PRFS_BY_PAPER_QPS)
def test_table5_row_is_the_scheduler_price(figures, prf):
    scheduler, row = Scheduler(V100), _only(figures["table5"], prf=prf)
    assert row["strategy"] == scheduler.select(512, 1 << 20, prf).strategy
    assert row["modeled_qps"] == scheduler.throughput_qps(512, 1 << 20, prf)
    aes = scheduler.throughput_qps(512, 1 << 20, "aes128")
    assert row["modeled_over_aes128"] == row["modeled_qps"] / aes


@pytest.mark.parametrize("slower, faster", itertools.combinations(PRFS_BY_PAPER_QPS, 2))
def test_table5_pairwise_order_matches_the_paper(paper_figures, figures, slower, faster):
    assert paper_figures.PAPER_TABLE5_QPS[slower] < paper_figures.PAPER_TABLE5_QPS[faster]
    qps = {r["prf"]: r["modeled_qps"] for r in _rows(figures["table5"])}
    assert qps[slower] < qps[faster]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("batch, log_rows", FIG6_SHAPES)
def test_figure6_row_is_the_plan_peak(figures, strategy, batch, log_rows):
    row = _only(figures["figure6"], strategy=strategy, batch=batch, rows=f"2^{log_rows}")
    peak = get_strategy(strategy).plan(batch, 1 << log_rows).peak_mem_bytes
    assert row["modeled_peak_mib"] == peak / float(1 << 20)


@pytest.mark.parametrize("batch, log_rows", FIG6_SHAPES)
def test_figure6_peak_order_at_each_shape(figures, batch, log_rows):
    shape = {"batch": batch, "rows": f"2^{log_rows}"}
    peak = {s: _only(figures["figure6"], strategy=s, **shape)["modeled_peak_mib"]
            for s in STRATEGIES}
    order = ("branch_parallel", "cooperative_groups", "memory_bounded", "level_by_level")
    assert [peak[s] for s in order] == sorted(set(peak.values()))


def test_figure6_level_by_level_grows_with_batch_times_rows(figures):
    peak = {(r["batch"], r["rows"]): r["modeled_peak_mib"] for r in _rows(figures["figure6"])
            if r["strategy"] == "level_by_level"}
    assert peak[512, "2^16"] == pytest.approx(8 * peak[64, "2^16"])
    assert peak[512, "2^20"] == pytest.approx(16 * peak[512, "2^16"])
    (anchor,) = figures["figure6"].anchors
    small = _only(figures["figure6"], strategy="memory_bounded", batch=512, rows="2^20")
    assert anchor.modeled == pytest.approx(peak[512, "2^20"] / small["modeled_peak_mib"])


@pytest.mark.parametrize("batch", FIG8_9_BATCHES)
@pytest.mark.parametrize("log_rows", (12, 20))
def test_figures8_9_row_prices_the_selected_plan(figures, log_rows, batch):
    selection = Scheduler(V100).select(batch, 1 << log_rows)
    sequential = GpuSimulator(V100).pipelined_latency_s(selection.plan, overlap=False)
    row = _only(figures["figures8_9"], rows=f"2^{log_rows}", batch=batch)
    assert row["strategy"] == selection.strategy
    assert 0.0 < row["modeled_utilization"] <= 1.0
    assert row["modeled_qps"] == batch / sequential
    assert row["modeled_pipelined_qps"] >= row["modeled_qps"]


@pytest.mark.parametrize("log_rows", (12, 20))
def test_figures8_9_qps_and_utilization_rise_with_batch(figures, log_rows):
    figure, rows = figures["figures8_9"], f"2^{log_rows}"
    assert _column(figure, "batch", rows=rows) == list(FIG8_9_BATCHES)
    for column in ("modeled_qps", "modeled_pipelined_qps", "modeled_utilization"):
        assert _rising(_column(figure, column, rows=rows)), column
    # Wire keys always cost a parse stage, and pipelining always hides it.
    big = _only(figure, rows=rows, batch=4096)
    assert big["modeled_pipelined_qps"] > big["modeled_qps"]


@pytest.mark.parametrize("batch", FIG10_BATCHES)
@pytest.mark.parametrize("log_rows", (8, 10, 14, 20))
def test_figure10_row_picks_the_cheaper_model(figures, log_rows, batch):
    row = _only(figures["figure10"], rows=f"2^{log_rows}", batch=batch)
    cpu, gpu = row["modeled_cpu_ms"], row["modeled_gpu_ms"]
    assert cpu == CpuCostModel().latency_s(batch, 1 << log_rows) * 1e3
    assert gpu == Scheduler(V100).latency_s(batch, 1 << log_rows) * 1e3
    assert row["modeled_best_ms"] == min(cpu, gpu)
    assert row["modeled_winner"] == ("cpu" if cpu < gpu else "gpu")
    assert row["modeled_cpu_over_gpu"] == pytest.approx(cpu / gpu)


@pytest.mark.parametrize("log_rows", (8, 10, 14, 20))
def test_figure10_gpu_lead_grows_with_batch(figures, log_rows):
    figure, rows = figures["figure10"], f"2^{log_rows}"
    assert _column(figure, "batch", rows=rows) == list(FIG10_BATCHES)
    assert _rising(_column(figure, "modeled_cpu_over_gpu", rows=rows))
    winners = {"2^8": "cccc", "2^10": "ccgg", "2^14": "cggg", "2^20": "gggg"}[rows]
    assert "".join(w[0] for w in _column(figure, "modeled_winner", rows=rows)) == winners


@pytest.mark.parametrize("batch", FIG13_14_BATCHES)
def test_figures13_14_qps_falls_as_the_table_grows(figures, batch):
    qps = _column(figures["figures13_14"], f"modeled_qps_b{batch}")
    assert len(qps) == 8 and all(a > b for a, b in zip(qps, qps[1:]))


@pytest.mark.parametrize("log_rows", range(12, 27, 2))
def test_figures13_14_larger_batches_never_lose_throughput(figures, log_rows):
    row = _only(figures["figures13_14"], rows=f"2^{log_rows}")
    assert _rising([row[f"modeled_qps_b{batch}"] for batch in FIG13_14_BATCHES])


@pytest.mark.parametrize("batch", (64, 4096))
@pytest.mark.parametrize("log_rows", (12, 20))
def test_figures13_14_agree_with_the_pipelined_batch_sweep(figures, log_rows, batch):
    # Where the kernel outlasts the parse both sweeps price the kernel alone.
    table = _only(figures["figures13_14"], rows=f"2^{log_rows}")[f"modeled_qps_b{batch}"]
    sweep = _only(figures["figures8_9"], rows=f"2^{log_rows}", batch=batch)
    assert table == pytest.approx(sweep["modeled_pipelined_qps"])


@pytest.mark.parametrize("name", NAMES)
def test_render_is_an_aligned_table_then_its_anchors(paper_figures, figures, name):
    figure = figures[name]
    lines = paper_figures.render(figure).splitlines()
    assert lines[:2] == [figure.title, "-" * len(figure.title)]
    assert len({len(line) for line in lines[2 : 3 + len(figure.rows)]}) == 1
    anchors = lines[3 + len(figure.rows) :]
    assert len(anchors) == len(figure.anchors)
    assert all(line.startswith("  anchor: ") for line in anchors)


@pytest.mark.parametrize("value, text", [("yes", "yes"), (3, "3"), (4096, "4,096"),
                                         (1370.4, "1,370"), (13.6123, "13.61"),
                                         (0.95478, "0.9548"), (1.0, "1.000")])
def test_number_format(paper_figures, value, text):
    assert paper_figures._fmt(value) == text


def test_script_prints_main_output_with_no_arguments(paper_figures, capsys):
    paper_figures.main()
    expected = capsys.readouterr().out
    run = subprocess.run([sys.executable, str(_SCRIPT)], capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout == expected

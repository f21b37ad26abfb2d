"""The performance model against the paper's published V100 numbers.

The headline assertion is the Table 4 calibration point — ~1,358 QPS
for AES-128 over a 1M-entry table — plus the sanity properties any
roofline model must satisfy: monotonicity in bandwidth and compute
rate, OOM and unlaunchable block shapes reported infeasible,
utilization that grows with batch size (Figures 8b/9), batch- and
table-size-aware strategy selection (Section 3.2.5).
"""

import dataclasses

import numpy as np
import pytest

from repro.crypto import get_prf
from repro.dpf import gen
from repro.exec import EvalRequest, SingleGpuBackend
from repro.gpu import (
    GpuSimulator,
    Scheduler,
    V100,
    get_strategy,
    select_strategy,
)

PAPER_QPS_AES_1M_V100 = 1358.0  # Table 4
MILLION = 1 << 20


class TestCalibration:
    def test_v100_aes128_1m_entries_matches_table4(self):
        selection = select_strategy(512, MILLION, prf_name="aes128", device=V100)
        assert selection.stats.feasible
        qps = selection.stats.throughput_qps
        assert abs(qps - PAPER_QPS_AES_1M_V100) / PAPER_QPS_AES_1M_V100 < 0.10
        # The paper's winning kernel at this shape is the fused
        # memory-bounded traversal.
        assert selection.strategy == "memory_bounded"
        assert selection.plan.fused

    def test_cheaper_prfs_are_faster_at_the_calibration_point(self):
        aes = select_strategy(512, MILLION, prf_name="aes128").stats.throughput_qps
        for name in ("chacha20", "siphash", "highwayhash"):
            assert select_strategy(512, MILLION, prf_name=name).stats.throughput_qps > aes
        # SHA-256 is the one PRF slower than AES on GPU (Table 5).
        assert select_strategy(512, MILLION, prf_name="sha256").stats.throughput_qps < aes


class TestRooflineSanity:
    @pytest.mark.parametrize("name", ["level_by_level", "memory_bounded"])
    def test_more_bandwidth_is_never_slower(self, name):
        plan = get_strategy(name).plan(512, MILLION)
        base = GpuSimulator(V100).simulate(plan)
        boosted = dataclasses.replace(V100, mem_bandwidth=4 * V100.mem_bandwidth)
        assert GpuSimulator(boosted).simulate(plan).latency_s <= base.latency_s

    def test_more_compute_is_never_slower(self):
        plan = get_strategy("memory_bounded").plan(512, MILLION)
        base = GpuSimulator(V100).simulate(plan)
        boosted = dataclasses.replace(V100, aes_rate=2 * V100.aes_rate)
        assert GpuSimulator(boosted).simulate(plan).latency_s < base.latency_s

    def test_oom_plans_are_infeasible(self):
        # 4096 queries x 1M-entry frontier needs ~100 GiB; a 16 GiB V100
        # must reject it but still report an (upper-bound) latency.
        plan = get_strategy("level_by_level").plan(4096, MILLION)
        stats = GpuSimulator(V100).simulate(plan)
        assert not stats.feasible
        assert plan.peak_mem_bytes > V100.global_mem_bytes
        assert stats.latency_s > 0
        # The scheduler routes around the OOM with a bounded-memory kernel.
        selection = select_strategy(4096, MILLION, device=V100)
        assert selection.stats.feasible
        assert selection.strategy in ("memory_bounded", "cooperative_groups")

    def test_unlaunchable_block_shape_is_infeasible(self):
        plan = get_strategy("memory_bounded").plan(64, 4096)
        bad_phase = dataclasses.replace(
            plan.phases[-1], threads_per_block=4 * V100.max_threads_per_block
        )
        bad_plan = dataclasses.replace(plan, phases=[bad_phase])
        assert not GpuSimulator(V100).simulate(bad_plan).feasible

    def test_utilization_grows_with_batch(self):
        """Figure 8b: small batches cannot fill the device."""
        strategy = get_strategy("memory_bounded")
        sim = GpuSimulator(V100)
        utils = [
            sim.simulate(strategy.plan(batch, MILLION)).utilization
            for batch in (8, 64, 512)
        ]
        assert utils[0] < utils[1] < utils[2]
        assert utils[2] > 0.95

    def test_best_throughput_is_monotone_in_batch(self):
        scheduler = Scheduler(V100)
        qps = [scheduler.throughput_qps(b, MILLION) for b in (32, 128, 512, 2048)]
        assert all(a <= b * 1.001 for a, b in zip(qps, qps[1:]))


class TestSchedulerSelection:
    def test_selection_is_table_size_aware(self):
        small = select_strategy(4, 256, device=V100)
        large = select_strategy(512, MILLION, device=V100)
        assert small.strategy != large.strategy
        # Tiny trees: a single fused launch wins because per-level
        # launch/sync overheads dominate the PRF work.
        assert small.strategy in ("branch_parallel", "cooperative_groups")
        assert large.strategy == "memory_bounded"

    def test_rankings_cover_all_candidates_feasible_first(self):
        selection = select_strategy(512, MILLION, device=V100)
        names = [name for name, _ in selection.rankings]
        assert sorted(names) == sorted(
            ["branch_parallel", "cooperative_groups", "level_by_level", "memory_bounded"]
        )
        feasibility = [stats.feasible for _, stats in selection.rankings]
        assert feasibility.index(True) == 0
        feasible_qps = [s.throughput_qps for _, s in selection.rankings if s.feasible]
        assert feasible_qps == sorted(feasible_qps, reverse=True)

    def test_scheduler_caches_decisions(self):
        scheduler = Scheduler(V100)
        first = scheduler.select(64, 1 << 16)
        assert scheduler.select(64, 1 << 16) is first

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            select_strategy(0, MILLION)
        with pytest.raises(ValueError):
            select_strategy(16, 0)

    def test_residency_never_shares_a_memoized_selection(self):
        # Regression: the memo key must carry residency — a resident
        # request served a streaming selection (or vice versa) would
        # misprice every batch at that shape for the session.
        scheduler = Scheduler(V100)
        for batch, table in ((64, 1 << 16), (512, MILLION)):
            streaming = scheduler.select(batch, table)
            resident = scheduler.select(batch, table, resident_keys=True)
            assert streaming is not resident
            assert streaming.plan.host_bytes_in > 0
            assert resident.plan.host_bytes_in == 0

    def test_entry_bytes_never_shares_a_memoized_selection(self):
        # Regression: entry_bytes is an instance attribute, but the
        # memo key carries it so a caller mutating it between decisions
        # can never be served a stale selection priced for the old
        # entry width.
        scheduler = Scheduler(V100, entry_bytes=8)
        narrow = scheduler.select(512, MILLION)
        scheduler.entry_bytes = 256
        wide = scheduler.select(512, MILLION)
        assert narrow is not wide
        assert wide.stats.latency_s > narrow.stats.latency_s


class TestHostParseOverlap:
    """The double-buffered ingest model: parse N+1 under kernel N."""

    def _plans(self):
        streaming = select_strategy(512, MILLION, device=V100).plan
        resident = select_strategy(
            512, MILLION, device=V100, resident_keys=True
        ).plan
        return streaming, resident

    def test_host_parse_time_scales_with_wire_bytes(self):
        sim = GpuSimulator(V100)
        streaming, resident = self._plans()
        assert sim.host_parse_s(streaming) == pytest.approx(
            streaming.host_bytes_in / 2.0e9
        )
        # Resident plans ship no key bytes per batch: nothing to parse.
        assert sim.host_parse_s(resident) == 0.0

    def test_pipelined_latency_is_max_not_sum(self):
        sim = GpuSimulator(V100)
        streaming, _ = self._plans()
        kernel = sim.simulate(streaming).latency_s
        parse = sim.host_parse_s(streaming)
        assert parse > 0.0
        assert sim.pipelined_latency_s(streaming, overlap=True) == pytest.approx(
            max(kernel, parse)
        )
        assert sim.pipelined_latency_s(streaming, overlap=False) == pytest.approx(
            kernel + parse
        )

    def test_overlap_never_slower(self):
        sim = GpuSimulator(V100)
        for batch in (32, 256, 2048):
            plan = select_strategy(batch, MILLION, device=V100).plan
            assert sim.pipelined_latency_s(plan, overlap=True) <= sim.pipelined_latency_s(
                plan, overlap=False
            )


class TestThroughputQps:
    """`Scheduler.throughput_qps` is exactly the winning plan's rate."""

    @pytest.mark.parametrize("resident", [False, True])
    def test_equals_the_selected_plans_throughput(self, resident):
        scheduler = Scheduler(V100)
        for batch, table in ((1, 256), (64, 1 << 16), (512, MILLION)):
            qps = scheduler.throughput_qps(
                batch, table, resident_keys=resident
            )
            selection = scheduler.select(batch, table, resident_keys=resident)
            assert qps == selection.stats.throughput_qps > 0

    def test_matches_uncached_select_strategy(self):
        """The memoized wrapper must not drift from the raw decision."""
        scheduler = Scheduler(V100)
        direct = select_strategy(128, 1 << 18, device=V100)
        assert scheduler.throughput_qps(128, 1 << 18) == direct.stats.throughput_qps

    def test_prf_axis_orders_like_table5(self):
        scheduler = Scheduler(V100)
        aes = scheduler.throughput_qps(512, MILLION, prf_name="aes128")
        assert scheduler.throughput_qps(512, MILLION, prf_name="chacha20") > aes
        assert scheduler.throughput_qps(512, MILLION, prf_name="sha256") < aes

    def test_resident_mode_is_never_slower(self):
        scheduler = Scheduler(V100)
        for batch, table in ((8, 1 << 12), (64, 1 << 16), (512, MILLION)):
            streaming = scheduler.throughput_qps(batch, table)
            resident = scheduler.throughput_qps(batch, table, resident_keys=True)
            assert resident >= streaming


class TestResidentKeys:
    """Serving from an already-uploaded key arena (host_bytes_in = 0)."""

    def test_resident_plans_amortize_host_transfer(self):
        from repro.dpf import key_size_bytes
        from repro.gpu import available_strategies

        batch, table = 512, MILLION
        for name in available_strategies():
            strategy = get_strategy(name)
            plan = strategy.plan(batch, table)
            resident = strategy.plan(batch, table, resident_keys=True)
            assert plan.host_bytes_in == batch * key_size_bytes(table)
            assert not plan.resident_keys and plan.resident_bytes == 0
            assert resident.host_bytes_in == 0
            assert resident.resident_keys
            assert resident.resident_bytes == batch * key_size_bytes(table)
            # Nothing else about the recipe changes.
            assert resident.phases == plan.phases
            assert resident.peak_mem_bytes == plan.peak_mem_bytes

    def test_resident_arena_counts_against_capacity(self):
        strategy = get_strategy("memory_bounded")
        plan = strategy.plan(512, MILLION)
        resident = strategy.plan(512, MILLION, resident_keys=True)
        sim = GpuSimulator(V100)
        assert (
            sim.free_mem_bytes(resident)
            == sim.free_mem_bytes(plan) - resident.resident_bytes
        )

    def test_resident_qps_strictly_higher_when_pcie_on_critical_path(self):
        """Every feasible shape with a nonzero key upload must simulate
        strictly faster once the upload is amortized away."""
        sim = GpuSimulator(V100)
        for name in ("memory_bounded", "level_by_level", "branch_parallel"):
            for batch, table in ((64, 1 << 14), (512, MILLION)):
                strategy = get_strategy(name)
                base = sim.simulate(strategy.plan(batch, table))
                resident = sim.simulate(
                    strategy.plan(batch, table, resident_keys=True)
                )
                assert resident.throughput_qps > base.throughput_qps, (name, batch)
                assert resident.latency_s < base.latency_s

    def test_scheduler_caches_resident_mode_separately(self):
        scheduler = Scheduler(V100)
        base = scheduler.select(512, MILLION)
        resident = scheduler.select(512, MILLION, resident_keys=True)
        assert base is not resident
        assert resident is scheduler.select(512, MILLION, resident_keys=True)
        assert resident.plan.host_bytes_in == 0
        assert resident.stats.throughput_qps > base.stats.throughput_qps


class TestSchedulerCostHook:
    def test_latency_s_is_the_winning_plans_latency(self):
        scheduler = Scheduler(V100)
        for batch, table in ((1, 1 << 10), (64, 1 << 14), (256, 1 << 16)):
            selection = scheduler.select(batch, table)
            assert scheduler.latency_s(batch, table) == selection.stats.latency_s > 0

    def test_single_gpu_plan_prices_through_the_hook(self):
        """A backend's plan latency IS the scheduler hook's number, so
        drain-time admission and the strategy scheduler share one model."""
        prf = get_prf("siphash")
        rng = np.random.default_rng(0)
        keys = [gen(int(rng.integers(0, 128)), 128, prf, rng)[0] for _ in range(8)]
        plan = SingleGpuBackend().plan(EvalRequest(keys=keys, prf_name="siphash"))
        hook = Scheduler(V100).latency_s(8, 128, prf_name="siphash")
        assert plan.selection.stats.latency_s == hook

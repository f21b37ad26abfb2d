"""The AES-NI CPU baseline: cost model calibration.

Claims: the model prices *every* shape, its terms order the PRFs by
their ``cpu_cost`` metadata, and its calibration reproduces the paper's
Figure 10 anchors against the V100 model (GPU wins large batch by
roughly an order of magnitude; CPU wins single-query batches at small
tables; the cheaper side flips once, from CPU to GPU, as batches grow).
"""

import numpy as np
import pytest

from repro.baselines import CpuCostModel
from repro.gpu import Scheduler, V100


class TestCpuCostModel:
    def test_prices_every_shape(self):
        """No None, no ValueError — even shapes the GPU model rejects."""
        model = CpuCostModel()
        for batch in (1, 7, 256, 1 << 14):
            for table in (1, 200, 1 << 10, 1 << 20):
                latency = model.latency_s(batch, table)
                assert latency > 0 and np.isfinite(latency)

    def test_latency_monotone_in_batch(self):
        model = CpuCostModel()
        latencies = [model.latency_s(b, 1 << 12) for b in (1, 2, 8, 64, 512)]
        assert latencies == sorted(latencies)
        assert latencies[0] < latencies[-1]

    def test_prf_cpu_cost_orders_the_model(self):
        """ChaCha20 (no hardware assist, cpu_cost 4.0) must cost more
        CPU time than AES-NI-backed aes128 at the same shape."""
        model = CpuCostModel()
        aes = model.latency_s(16, 1 << 12, "aes128")
        chacha = model.latency_s(16, 1 << 12, "chacha20")
        siphash = model.latency_s(16, 1 << 12, "siphash")
        assert chacha > aes > siphash

    def test_resident_amortizes_the_parse(self):
        model = CpuCostModel()
        streaming = model.select(32, 1 << 10, "aes128", resident=False)
        resident = model.select(32, 1 << 10, "aes128", resident=True)
        assert streaming.plan.host_bytes_in > 0
        assert streaming.plan.resident_bytes == 0
        assert resident.plan.host_bytes_in == 0
        assert resident.plan.resident_bytes == streaming.plan.host_bytes_in
        assert resident.stats.latency_s < streaming.stats.latency_s

    def test_stats_terms_sum_to_latency(self):
        stats = CpuCostModel().select(8, 1 << 12, "aes128").stats
        assert stats.latency_s == pytest.approx(
            stats.compute_time_s + stats.memory_time_s + stats.overhead_time_s
        )
        assert stats.feasible
        assert stats.prf_blocks == 8 * 2 * ((1 << 12) - 1)


class TestFigure10Calibration:
    """The two anchors of the paper's CPU-vs-GPU crossover argument."""

    def test_gpu_wins_large_batch_by_an_order_of_magnitude(self):
        """At the 2^20-entry aes128 large-batch point the V100 model
        must lead the CPU baseline by the paper's roughly 13-14x."""
        batch, table = 1024, 1 << 20
        cpu = CpuCostModel().latency_s(batch, table, "aes128")
        gpu = Scheduler(V100).latency_s(batch, table, "aes128")
        ratio = cpu / gpu
        assert 8.0 < ratio < 20.0

    def test_cpu_wins_single_query_batches_at_small_tables(self):
        for table in (1 << 8, 1 << 10):
            cpu = CpuCostModel().latency_s(1, table, "aes128")
            gpu = Scheduler(V100).latency_s(1, table, "aes128")
            assert cpu < gpu

    def test_crossover_exists_in_between(self):
        """At 2^10 entries the lead flips from CPU to GPU somewhere
        inside the bench grid's batch range."""
        model, scheduler = CpuCostModel(), Scheduler(V100)
        wins = [
            model.latency_s(b, 1 << 10, "aes128")
            < scheduler.latency_s(b, 1 << 10, "aes128")
            for b in (1, 4, 16, 64, 256)
        ]
        assert wins[0] and not wins[-1]

    @pytest.mark.parametrize("prf_name", ["aes128", "sha256"])
    @pytest.mark.parametrize("log_domain", [8, 10, 14])
    def test_once_gpu_always_gpu(self, prf_name, log_domain):
        """Scanning pow2 batches of one shape, the cheaper side is a
        step function: CPU below the crossover, GPU at and above it."""
        cpu, gpu = CpuCostModel(), Scheduler(V100)
        table = 1 << log_domain
        flipped = False
        for batch in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            gpu_s = gpu.latency_s(batch, table, prf_name)
            gpu_wins = gpu_s <= cpu.latency_s(batch, table, prf_name)
            if flipped:
                assert gpu_wins, (
                    f"the CPU won back batch {batch} "
                    f"for {prf_name} @ 2^{log_domain}"
                )
            flipped = flipped or gpu_wins

"""AES-NI-aware CPU baseline: the cost model behind Figure 10.

The paper's Figure 10 argument is that the GPU's win is *conditional*:
at large batch the fused expansion amortizes launch overheads and the
GPU's raw AES rate dominates, but at small batch a server-class CPU
with AES-NI answers a query in a few tree walks' worth of hardware AES
and never pays a kernel launch.  The argument is modeled, not
executed: :class:`CpuCostModel` gives the analytic latency of one
batch on a modeled socket (:class:`CpuSpec`).  Three terms mirror the
simulator's compute/memory/overhead split: PRF work at the socket's
AES-NI block rate scaled by the PRF's ``cpu_cost`` (AES-128 via AES-NI
= 1.0, so ChaCha20's pure-software 4.0 is where the GPU's lead is
largest), a memory-bandwidth term for streaming the expanded shares
through the table dot product, and fixed per-batch + per-query
dispatch overheads.  Streaming batches additionally pay the wire-key
parse; resident arenas amortize it to zero, exactly like the GPU
plans.  Unlike the GPU model, the CPU prices *every* shape: host
memory is ample and there is no occupancy cliff.

Calibration: :data:`CPU_BASELINE`'s AES-NI block rate is set so the
aes128 / 2^20-entry large-batch point lands at the paper's roughly
13-14x GPU-over-CPU throughput ratio against the calibrated V100
model, while a single-query batch still beats the V100's modeled
per-batch overheads on 2^8- and 2^10-entry tables — the two anchors
of the Figure 10 crossover (``scripts/paper_figures.py`` prints both).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.prf import get_prf
from repro.dpf.ggm import log2_ceil
from repro.dpf.keys import key_size_bytes
from repro.gpu.kernel import KernelPhase, KernelPlan, KernelStats
from repro.gpu.scheduler import Selection

CPU_STRATEGY = "cpu_reference"
"""Strategy name CPU plans report.  Not a :mod:`repro.gpu.strategies`
registry entry — the CPU has exactly one traversal (the reference
walk), so there is no selection to make and nothing to look up."""


@dataclass(frozen=True)
class CpuSpec:
    """Modeled parameters of one server-class CPU socket.

    Attributes:
        name: Human-readable model name.
        aes_rate: Socket-wide AES-128 block evaluations/s with AES-NI,
            all cores engaged.  Per-PRF rates divide this by the PRF's
            ``cpu_cost`` (the CPU-side analogue of
            :attr:`~repro.gpu.device.DeviceSpec.aes_rate` +
            ``gpu_cost``).
        mem_bandwidth: Sustained memory bandwidth, bytes/s — prices
            streaming the expanded share matrix through the table dot
            product.
        parse_bandwidth: Wire-key parse rate, bytes/s (the host-side
            ingest cost streaming batches pay and resident arenas
            amortize away).
        batch_overhead_s: Fixed per-batch dispatch cost (thread-pool
            wake, NUMA placement) — the CPU's entire analogue of a
            kernel launch, and why it wins small batches.
        per_query_overhead_s: Fixed per-query bookkeeping cost.
        threads: Hardware thread contexts (caps exposed parallelism in
            the reported utilization).
    """

    name: str
    aes_rate: float
    mem_bandwidth: float
    parse_bandwidth: float
    batch_overhead_s: float
    per_query_overhead_s: float
    threads: int


CPU_BASELINE = CpuSpec(
    name="xeon-aesni",
    # ~13.5x below the V100's calibrated 2.9e9: the Figure 10 / Table 4
    # large-batch aes128 throughput gap at 2^20 entries.
    aes_rate=2.15e8,
    mem_bandwidth=100e9,  # six DDR4 channels, sustained
    parse_bandwidth=2.0e9,  # matches repro.gpu.sim.HOST_PARSE_BANDWIDTH
    batch_overhead_s=30e-6,
    per_query_overhead_s=1e-6,
    threads=32,
)
"""The calibrated default socket (see module docstring)."""


class CpuCostModel:
    """Analytic batch latency on a :class:`CpuSpec`.

    Emits the same :class:`~repro.gpu.kernel.KernelPlan` /
    :class:`~repro.gpu.kernel.KernelStats` vocabulary the GPU simulator
    does, so plans from both sides compare field-for-field in
    ``scripts/paper_figures.py``.

    Args:
        spec: Socket to price against.
        entry_bytes: Bytes per table entry.
    """

    def __init__(self, spec: CpuSpec = CPU_BASELINE, entry_bytes: int = 8):
        self.spec = spec
        self.entry_bytes = entry_bytes
        self._memo: dict[tuple[int, int, str, bool], Selection] = {}

    def _build(
        self, batch_size: int, table_entries: int, prf_name: str, resident: bool
    ) -> Selection:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        depth = log2_ceil(table_entries)
        padded_domain = 1 << depth
        # The reference walk expands every level of the GGM tree: the
        # frontier doubles per level, so total PRF blocks per key are
        # 2 + 4 + ... + 2^depth = 2 * (padded_domain - 1).
        prf_blocks = batch_size * 2 * max(padded_domain - 1, 1)
        key_bytes = batch_size * key_size_bytes(table_entries, prf_name)
        share_bytes = batch_size * table_entries * self.entry_bytes
        plan = KernelPlan(
            strategy=CPU_STRATEGY,
            batch_size=batch_size,
            table_entries=table_entries,
            entry_bytes=self.entry_bytes,
            fused=False,
            phases=[
                KernelPhase(
                    label="expand+dot",
                    prf_blocks=prf_blocks,
                    parallel_width=min(batch_size, self.spec.threads),
                    # Expanded shares are written once and read back
                    # through the dot product; the table streams once.
                    bytes_read=share_bytes + table_entries * self.entry_bytes,
                    bytes_written=share_bytes,
                    mac_ops=batch_size * table_entries,
                    launches=0,
                )
            ],
            # Frontier ping-pong buffers plus the expanded share rows.
            peak_mem_bytes=2 * padded_domain * 16 + share_bytes,
            host_bytes_in=0 if resident else key_bytes,
            host_bytes_out=batch_size * self.entry_bytes,
            resident_bytes=key_bytes if resident else 0,
            prf_name=prf_name,
            prf_cost=get_prf(prf_name).cpu_cost,
        )
        rate = self.spec.aes_rate / plan.prf_cost
        compute = prf_blocks / rate
        phase = plan.phases[0]
        memory = (phase.bytes_read + phase.bytes_written) / self.spec.mem_bandwidth
        overhead = (
            self.spec.batch_overhead_s
            + batch_size * self.spec.per_query_overhead_s
            + plan.host_bytes_in / self.spec.parse_bandwidth
        )
        latency = compute + memory + overhead
        stats = KernelStats(
            latency_s=latency,
            throughput_qps=batch_size / latency,
            utilization=min(1.0, batch_size / self.spec.threads),
            peak_mem_bytes=plan.peak_mem_bytes,
            prf_blocks=prf_blocks,
            compute_time_s=compute,
            memory_time_s=memory,
            overhead_time_s=overhead,
            feasible=True,  # host memory is ample; every shape prices
        )
        return Selection(
            strategy=CPU_STRATEGY,
            plan=plan,
            stats=stats,
            rankings=((CPU_STRATEGY, stats),),
        )

    def select(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident: bool = False,
    ) -> Selection:
        """The (single) CPU plan for a workload shape, memoized."""
        key = (batch_size, table_entries, prf_name, resident)
        selection = self._memo.get(key)
        if selection is None:
            selection = self._build(batch_size, table_entries, prf_name, resident)
            self._memo[key] = selection
        return selection

    def latency_s(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident: bool = False,
    ) -> float:
        """Modeled batch latency; defined for every shape."""
        return self.select(batch_size, table_entries, prf_name, resident).stats.latency_s

"""Multi-GPU batch sharding (the paper's scale-out discussion, Fig. 15).

Two-server PIR parallelizes trivially across devices: the table is
replicated on every GPU and a batch of B queries is split into
per-device shards that run independently — there is no cross-device
communication, so batch latency is the *slowest* shard and throughput
adds up.  :class:`MultiGpuExecutor` models exactly that: it sizes
shards proportionally to each device's simulated best-strategy
throughput (so heterogeneous fleets stay balanced), runs the
:mod:`repro.gpu.scheduler` decision per shard, and can also execute the
sharded evaluation *functionally* against real DPF keys for end-to-end
testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.prf import Prf
from repro.gpu.arena import ExpansionWorkspace, KeyArena, KeySource
from repro.gpu.device import DeviceSpec
from repro.gpu.scheduler import Scheduler, Selection
from repro.gpu.strategies import Reducer, get_strategy


@dataclass(frozen=True)
class ShardReport:
    """One device's slice of a multi-GPU batch."""

    device_name: str
    batch_size: int
    selection: Selection


@dataclass(frozen=True)
class MultiGpuStats:
    """Aggregate outcome of one sharded batch.

    Attributes:
        batch_size: Total queries across all shards.
        table_entries: Table size L (replicated per device).
        prf_name: PRF the plans assume.
        latency_s: Max shard latency (shards run concurrently).
        throughput_qps: ``batch_size / latency_s``.
        shards: Per-device reports for the non-empty shards.
    """

    batch_size: int
    table_entries: int
    prf_name: str
    latency_s: float
    throughput_qps: float
    shards: tuple[ShardReport, ...]

    @property
    def total_prf_blocks(self) -> int:
        return sum(s.selection.stats.prf_blocks for s in self.shards)


def _largest_remainder(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` into integer shares proportional to ``weights``."""
    weight_sum = sum(weights)
    if weight_sum <= 0:
        weights = [1.0] * len(weights)
        weight_sum = float(len(weights))
    exact = [total * w / weight_sum for w in weights]
    shares = [int(x) for x in exact]
    shortfall = total - sum(shares)
    by_remainder = sorted(
        range(len(weights)), key=lambda i: exact[i] - shares[i], reverse=True
    )
    for i in by_remainder[:shortfall]:
        shares[i] += 1
    return shares


class MultiGpuExecutor:
    """Shards query batches across a fleet of (possibly mixed) devices.

    Args:
        devices: One :class:`DeviceSpec` per GPU; pass the same spec N
            times for a homogeneous N-GPU node.
        entry_bytes: Bytes per table entry.
    """

    def __init__(self, devices: list[DeviceSpec] | DeviceSpec, entry_bytes: int = 8):
        if isinstance(devices, DeviceSpec):
            devices = [devices]
        if not devices:
            raise ValueError("need at least one device")
        self.devices = list(devices)
        self.schedulers = [Scheduler(d, entry_bytes=entry_bytes) for d in self.devices]
        # One persistent scratch workspace per device: repeated
        # eval_batch calls reuse the ping-pong frontier buffers instead
        # of reallocating them per shard per batch.
        self.workspaces = [ExpansionWorkspace() for _ in self.devices]

    def _shard_sizes(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str,
        resident_keys: bool = False,
    ) -> list[int]:
        """Throughput-proportional shard sizes (largest-remainder)."""
        probe = max(1, batch_size // len(self.devices))
        weights = [
            sched.throughput_qps(probe, table_entries, prf_name, resident_keys)
            for sched in self.schedulers
        ]
        return _largest_remainder(batch_size, weights)

    def execute(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident_keys: bool = False,
    ) -> MultiGpuStats:
        """Simulate one sharded batch; see :class:`MultiGpuStats`.

        With ``resident_keys=True`` every shard is priced as serving
        from an arena already uploaded to its device (no per-batch PCIe
        key transfer).
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        shares = self._shard_sizes(batch_size, table_entries, prf_name, resident_keys)
        shards = []
        for device, scheduler, share in zip(self.devices, self.schedulers, shares):
            if share == 0:
                continue
            selection = scheduler.select(share, table_entries, prf_name, resident_keys)
            shards.append(
                ShardReport(device_name=device.name, batch_size=share, selection=selection)
            )
        latency = max(s.selection.stats.latency_s for s in shards)
        return MultiGpuStats(
            batch_size=batch_size,
            table_entries=table_entries,
            prf_name=prf_name,
            latency_s=latency,
            throughput_qps=batch_size / latency if latency > 0 else 0.0,
            shards=tuple(shards),
        )

    def eval_batch(
        self,
        keys: KeySource,
        prf: Prf,
        resident_keys: bool = False,
        eval_range: tuple[int, int] | None = None,
        reduce: Reducer | None = None,
    ) -> np.ndarray:
        """Functionally evaluate a key batch with the per-shard winners.

        Shards the keys exactly as :meth:`execute` would shard the
        batch, runs each shard through its scheduler-selected strategy
        (over rows ``eval_range`` only, when given — see
        :meth:`Strategy.eval_batch <repro.gpu.strategies.Strategy.eval_batch>`),
        and concatenates the ``(B, hi - lo)`` share matrix in input order
        (with ``reduce``, each shard's reduced answers instead).

        ``keys`` is anything :meth:`KeyArena.ingest` accepts (arena,
        key objects, or wire bytes); each device's shard is a zero-copy
        slice of the resulting arena, and each device reuses its
        persistent :class:`ExpansionWorkspace`, so no key material is
        restacked per shard.  ``resident_keys`` only affects the
        simulated shard selection; the functional result is
        bit-identical either way.
        """
        arena = KeyArena.ingest(keys, prf_name=prf.name)
        table_entries = arena.domain_size
        shares = self._shard_sizes(len(arena), table_entries, prf.name, resident_keys)
        outputs = []
        start = 0
        for scheduler, workspace, share in zip(
            self.schedulers, self.workspaces, shares
        ):
            if share == 0:
                continue
            shard = arena[start : start + share]
            start += share
            selection = scheduler.select(share, table_entries, prf.name, resident_keys)
            strategy = get_strategy(selection.strategy)
            outputs.append(
                strategy.eval_batch(
                    shard,
                    prf,
                    workspace=workspace,
                    eval_range=eval_range,
                    reduce=reduce,
                )
            )
        return np.concatenate(outputs, axis=0)

"""Batch- and table-size-aware strategy selection (paper Section 3.2.5).

No single parallelization strategy wins everywhere: branch-parallel's
recomputation is cheap insurance on small trees where per-level
launches dominate, the breadth-first strategies go out of memory as
``batch * table`` grows, and the fused memory-bounded traversal wins
the paper's large-table regime.  :func:`select_strategy` reproduces the
paper's decision procedure by *simulating* every registered strategy's
kernel plan on the target device and picking the feasible plan with the
highest throughput.  :class:`Scheduler` adds memoization for serving
loops that make the same decision per (batch, table, PRF) shape.

This module is selection policy only — it is not a batch entry point.
Request-oriented execution (ingest keys, select, evaluate) lives in
:mod:`repro.exec`, whose backends call :meth:`Scheduler.select` behind
:class:`~repro.exec.EvalRequest`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec, V100
from repro.gpu.kernel import KernelPlan, KernelStats
from repro.gpu.sim import GpuSimulator
from repro.gpu.strategies import Strategy, available_strategies, get_strategy


def default_strategies() -> list[Strategy]:
    """One instance of every registered strategy, default parameters."""
    return [get_strategy(name) for name in available_strategies()]


@dataclass(frozen=True)
class Selection:
    """Outcome of one scheduling decision.

    Attributes:
        strategy: Name of the winning strategy.
        plan: The winner's kernel plan.
        stats: The winner's simulated statistics.
        rankings: Every candidate's ``(name, stats)``, feasible plans
            first in descending throughput, infeasible plans last.
    """

    strategy: str
    plan: KernelPlan
    stats: KernelStats
    rankings: tuple[tuple[str, KernelStats], ...]


def select_strategy(
    batch_size: int,
    table_entries: int,
    prf_name: str = "aes128",
    device: DeviceSpec = V100,
    entry_bytes: int = 8,
    strategies: list[Strategy] | None = None,
    resident_keys: bool = False,
) -> Selection:
    """Pick the fastest feasible strategy for a workload shape.

    Args:
        batch_size: Concurrent queries per kernel invocation.
        table_entries: Table size L.
        prf_name: Registered PRF the DPF keys use.
        device: Target device model.
        entry_bytes: Bytes per table entry.
        strategies: Candidate pool (default: every registered strategy
            with default parameters).
        resident_keys: Price the batch as served from an
            already-uploaded :class:`~repro.gpu.arena.KeyArena`
            (``host_bytes_in`` amortized to zero, arena charged against
            device capacity).

    Raises:
        ValueError: If ``batch_size``/``table_entries`` are not
            positive, or no candidate plan fits the device.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if table_entries <= 0:
        raise ValueError(f"table_entries must be positive, got {table_entries}")
    candidates = strategies if strategies is not None else default_strategies()
    if not candidates:
        raise ValueError("strategies pool is empty; nothing to select from")
    simulator = GpuSimulator(device)

    priced: list[tuple[str, KernelPlan, KernelStats]] = []
    for strategy in candidates:
        plan = strategy.plan(
            batch_size, table_entries, entry_bytes, prf_name, resident_keys
        )
        priced.append((strategy.name, plan, simulator.simulate(plan)))

    priced.sort(key=lambda item: (not item[2].feasible, -item[2].throughput_qps))
    rankings = tuple((name, stats) for name, _, stats in priced)
    best_name, best_plan, best_stats = priced[0]
    if not best_stats.feasible:
        raise ValueError(
            f"no feasible strategy for batch={batch_size}, "
            f"table={table_entries} on {device.name}"
        )
    return Selection(
        strategy=best_name, plan=best_plan, stats=best_stats, rankings=rankings
    )


class Scheduler:
    """Memoizing wrapper around :func:`select_strategy` for one device.

    Args:
        device: Target device model.
        entry_bytes: Bytes per table entry.
        strategies: Candidate pool shared across decisions (default:
            every registered strategy with default parameters).
    """

    def __init__(
        self,
        device: DeviceSpec = V100,
        entry_bytes: int = 8,
        strategies: list[Strategy] | None = None,
    ):
        self.device = device
        self.entry_bytes = entry_bytes
        self.strategies = strategies if strategies is not None else default_strategies()
        self._cache: dict[tuple[int, int, str, bool, int], Selection] = {}

    def select(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident_keys: bool = False,
    ) -> Selection:
        """Cached :func:`select_strategy` for this scheduler's device.

        The memo key carries every input that shapes the decision:
        batch, table, PRF, residency, *and* ``entry_bytes``.  Residency
        changes ``host_bytes_in`` and device-capacity pressure, and
        ``entry_bytes`` changes the output-transfer and memory phases —
        two shapes differing in either must never share a cached
        selection (``entry_bytes`` is an instance attribute, but keying
        on it keeps the cache correct even if a caller mutates it
        between decisions).
        """
        key = (batch_size, table_entries, prf_name, resident_keys, self.entry_bytes)
        if key not in self._cache:
            self._cache[key] = select_strategy(
                batch_size,
                table_entries,
                prf_name=prf_name,
                device=self.device,
                entry_bytes=self.entry_bytes,
                strategies=self.strategies,
                resident_keys=resident_keys,
            )
        return self._cache[key]

    def throughput_qps(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident_keys: bool = False,
    ) -> float:
        """Simulated best-strategy throughput for a workload shape."""
        return self.select(
            batch_size, table_entries, prf_name, resident_keys
        ).stats.throughput_qps

    def latency_s(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident_keys: bool = False,
    ) -> float:
        """Simulated best-strategy batch latency for a workload shape.

        The direct cost probe next to :meth:`throughput_qps`: the same
        number a backend's :meth:`~repro.exec.ExecutionBackend.plan`
        reports as :attr:`~repro.exec.ExecutionPlan.latency_s`, exposed
        here for callers that want to price a shape without building
        an :class:`~repro.exec.EvalRequest`.
        Memoized per shape like every ``select`` result.
        """
        return self.select(
            batch_size, table_entries, prf_name, resident_keys
        ).stats.latency_s

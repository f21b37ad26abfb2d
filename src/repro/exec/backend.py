"""Concrete execution backends behind one request-oriented protocol.

An :class:`ExecutionBackend` answers two questions about an
:class:`~repro.exec.request.EvalRequest`: *what would running it look
like* (:meth:`~ExecutionBackend.plan` — strategy selection plus modeled
timing) and *what are the answers* (:meth:`~ExecutionBackend.run` —
the functional ``(B, L)`` share matrix, or the reduced answers of a
request that carries a reducer, plus the plan and merged cost).
Three adapters reuse the existing substrate rather than duplicating it:

* :class:`SingleGpuBackend` — one device; scheduler-selected strategy,
  persistent :class:`~repro.gpu.arena.ExpansionWorkspace`.
* :class:`MultiGpuBackend` — a fleet; wraps
  :class:`~repro.gpu.multigpu.MultiGpuExecutor` (throughput-
  proportional zero-copy sharding).
* :class:`SimulatedBackend` — answers from the *reference* evaluator
  (:func:`repro.dpf.dpf.eval_full`), timing from the performance model
  only.  Slow but kernel-free: the oracle backend for end-to-end tests
  and what-if pricing of devices that are not attached.

All three produce bit-identical answers for the same keys; tests pin
that across the object/wire ingestion forms and the streaming/resident
modes.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.crypto.prf import get_prf
from repro.dpf.dpf import eval_full, eval_range
from repro.exec.request import EvalRequest, EvalResult, ExecutionPlan
from repro.gpu.arena import ExpansionWorkspace
from repro.gpu.device import DeviceSpec, V100
from repro.gpu.multigpu import MultiGpuExecutor, MultiGpuStats, ShardReport
from repro.gpu.scheduler import Scheduler, Selection
from repro.gpu.strategies import StrategyCost, get_strategy


def _single_shard_stats(
    device: DeviceSpec, selection: Selection, batch_size: int, table_entries: int,
    prf_name: str,
) -> MultiGpuStats:
    """One device's selection in the shared per-shard stats shape."""
    latency = selection.stats.latency_s
    return MultiGpuStats(
        batch_size=batch_size,
        table_entries=table_entries,
        prf_name=prf_name,
        latency_s=latency,
        throughput_qps=batch_size / latency if latency > 0 else 0.0,
        shards=(
            ShardReport(
                device_name=device.name, batch_size=batch_size, selection=selection
            ),
        ),
    )


def merged_cost(
    stats: MultiGpuStats, eval_range: tuple[int, int] | None = None
) -> StrategyCost:
    """Fold per-shard strategy costs into one batch-level cost.

    ``prf_blocks`` and ``parallel_width`` sum over shards;
    ``peak_mem_bytes`` is the fleet-wide footprint (each shard's peak
    lives on its own device, concurrently).  ``strategy`` keeps the
    shared name when every shard agrees and reports ``"mixed"``
    otherwise.

    Every shard ran the one executed walk, so a tuned candidate pool
    changes which design is named and priced, never this count.

    Args:
        stats: Per-shard selections to fold.
        eval_range: The ``[lo, hi)`` rows the run covered (``None``:
            the whole domain); every shard costs its pruned walk.
    """
    shard_costs = [
        get_strategy(shard.selection.strategy).cost(
            shard.batch_size, stats.table_entries, eval_range
        )
        for shard in stats.shards
    ]
    names = {cost.strategy for cost in shard_costs}
    return StrategyCost(
        strategy=names.pop() if len(names) == 1 else "mixed",
        batch_size=stats.batch_size,
        domain_size=stats.table_entries,
        prf_blocks=sum(cost.prf_blocks for cost in shard_costs),
        peak_mem_bytes=sum(cost.peak_mem_bytes for cost in shard_costs),
        parallel_width=sum(cost.parallel_width for cost in shard_costs),
    )


class ExecutionBackend(abc.ABC):
    """The request-oriented execution protocol.

    ``plan`` never touches key cryptography beyond ingestion metadata
    (batch size, domain, PRF); ``run`` must return answers that are
    bit-identical across backends for the same keys.  A request with an
    ``eval_range`` restriction returns the ``(B, hi - lo)`` shares of
    rows ``[lo, hi)`` — bit-identical to that column window of the full
    expansion on every backend (``tests/exec/test_backends.py``) — and
    computes it with a walk pruned to the range: ``O((hi - lo) + log L)``
    PRF blocks per key, which is what the strategy-costed backends'
    ``EvalResult.cost`` reports.  A request with a reducer returns
    ``reduce(that matrix, lo, hi)`` summed over however many windows the
    backend cut it into — again bit-identical on every backend
    (``tests/gpu/test_packed_oracle.py``); the strategy-running backends
    hand the reducer to the walk, the rest reduce their matrix once
    (:meth:`EvalRequest.reduced <repro.exec.request.EvalRequest.reduced>`).
    """

    name: str = "abstract"

    @abc.abstractmethod
    def plan(self, request: EvalRequest) -> ExecutionPlan:
        """Price the request: strategy selection plus modeled timing."""

    @abc.abstractmethod
    def run(self, request: EvalRequest) -> EvalResult:
        """Evaluate the request's keys over its ``resolved_range()``."""

    @property
    def plan_key(self) -> tuple:
        """Hashable identity for shared plan caches.

        Two backends with equal ``plan_key`` must produce
        interchangeable :class:`ExecutionPlan`/workspace pairs for the
        same request shape.  The base implementation is deliberately
        conservative — unique per instance — so an unknown backend (or
        a fault-injecting wrapper) never shares cache entries it did
        not prove it can share.  Concrete backends override this with
        their modeled-device identity.
        """
        return (self.name, id(self))

    def run_with_plan(
        self,
        request: EvalRequest,
        plan: ExecutionPlan,
        workspace: ExpansionWorkspace | None = None,
    ) -> EvalResult:
        """Evaluate under an already-priced plan, reusing ``workspace``.

        The zero-dispatch hot path a :class:`~repro.exec.plan_cache
        .PlanCache` drives: the cache supplies the memoized plan and the
        pinned scratch workspace, so the steady state skips strategy
        re-selection and workspace churn entirely.  The default
        implementation falls back to :meth:`run` (ignoring both hints),
        which keeps wrappers — fault injectors especially — correct
        without their own override: their ``run`` still sees every
        dispatch.
        """
        del plan, workspace
        return self.run(request)

    def model_latency_s(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident: bool = False,
        entry_bytes: int = 8,
    ) -> float | None:
        """Modeled batch latency for a workload *shape* — no keys needed.

        The metadata-only pricing hook drain-time admission builds on
        (:class:`repro.serve.control.DrainTimeModel`): the same number
        :meth:`plan` would report as
        :attr:`~repro.exec.request.ExecutionPlan.latency_s`, but priced
        from ``(batch, table, prf, residency)`` alone so a serving loop
        can ask "how fast would a flush of B queries drain" without
        synthesizing key material.  Returns ``None`` when the backend
        has no performance model (callers must then skip model-based
        policies rather than guess).
        """
        return None


class SingleGpuBackend(ExecutionBackend):
    """Scheduler-driven execution on one modeled device.

    Args:
        device: Target device model.
        strategies: Candidate strategy pool shared across decisions
            (default: every registered strategy, default parameters).
            It shapes :meth:`plan` only: every design runs the same
            walk, so the answers and ``EvalResult.cost`` do not move.
    """

    name = "single_gpu"

    def __init__(self, device: DeviceSpec = V100, strategies: list | None = None):
        self.device = device
        self._strategies = strategies
        self._schedulers: dict[int, Scheduler] = {}
        self._workspace = ExpansionWorkspace()

    def _scheduler(self, entry_bytes: int) -> Scheduler:
        scheduler = self._schedulers.get(entry_bytes)
        if scheduler is None:
            scheduler = Scheduler(
                self.device, entry_bytes=entry_bytes, strategies=self._strategies
            )
            self._schedulers[entry_bytes] = scheduler
        return scheduler

    def _select(self, request: EvalRequest) -> Selection:
        arena = request.arena()
        return self._scheduler(request.entry_bytes).select(
            arena.batch,
            arena.domain_size,
            prf_name=request.resolved_prf_name,
            resident_keys=request.resident,
        )

    def plan(self, request: EvalRequest) -> ExecutionPlan:
        arena = request.arena()
        selection = self._select(request)
        return ExecutionPlan(
            backend=self.name,
            resident=request.resident,
            stats=_single_shard_stats(
                self.device,
                selection,
                arena.batch,
                arena.domain_size,
                request.resolved_prf_name,
            ),
        )

    def model_latency_s(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident: bool = False,
        entry_bytes: int = 8,
    ) -> float | None:
        return self._scheduler(entry_bytes).latency_s(
            batch_size, table_entries, prf_name, resident
        )

    @property
    def plan_key(self) -> tuple:
        return (self.name, self.device.name, id(self._strategies))

    def run(self, request: EvalRequest) -> EvalResult:
        return self.run_with_plan(request, self.plan(request))

    def run_with_plan(
        self,
        request: EvalRequest,
        plan: ExecutionPlan,
        workspace: ExpansionWorkspace | None = None,
    ) -> EvalResult:
        eval_range = request.resolved_range()
        answers = get_strategy(plan.strategies[0]).eval_batch(
            request.arena(),
            get_prf(request.resolved_prf_name),
            workspace=workspace if workspace is not None else self._workspace,
            eval_range=eval_range,
            reduce=request.reduce,
        )
        return EvalResult(
            answers=answers,
            plan=plan,
            cost=merged_cost(plan.stats, eval_range),
        )


class MultiGpuBackend(ExecutionBackend):
    """Sharded execution across a (possibly mixed) device fleet.

    Args:
        devices: One :class:`DeviceSpec` per GPU; pass the same spec N
            times for a homogeneous N-GPU node.
    """

    name = "multi_gpu"

    def __init__(self, devices: list[DeviceSpec] | DeviceSpec = V100):
        if isinstance(devices, DeviceSpec):
            devices = [devices]
        if not devices:
            raise ValueError("need at least one device")
        self.devices = list(devices)
        self._executors: dict[int, MultiGpuExecutor] = {}

    def _executor(self, entry_bytes: int) -> MultiGpuExecutor:
        executor = self._executors.get(entry_bytes)
        if executor is None:
            executor = MultiGpuExecutor(self.devices, entry_bytes=entry_bytes)
            self._executors[entry_bytes] = executor
        return executor

    def plan(self, request: EvalRequest) -> ExecutionPlan:
        arena = request.arena()
        stats = self._executor(request.entry_bytes).execute(
            arena.batch,
            arena.domain_size,
            prf_name=request.resolved_prf_name,
            resident_keys=request.resident,
        )
        return ExecutionPlan(backend=self.name, resident=request.resident, stats=stats)

    def model_latency_s(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident: bool = False,
        entry_bytes: int = 8,
    ) -> float | None:
        return self._executor(entry_bytes).execute(
            batch_size,
            table_entries,
            prf_name=prf_name,
            resident_keys=resident,
        ).latency_s

    @property
    def plan_key(self) -> tuple:
        return (self.name, tuple(device.name for device in self.devices))

    def run(self, request: EvalRequest) -> EvalResult:
        return self.run_with_plan(request, self.plan(request))

    def run_with_plan(
        self,
        request: EvalRequest,
        plan: ExecutionPlan,
        workspace: ExpansionWorkspace | None = None,
    ) -> EvalResult:
        # The executor keeps one persistent workspace per device already,
        # so the cache's pinned workspace is unused here; reusing the
        # cached plan still skips the per-flush shard re-pricing.
        del workspace
        eval_range = request.resolved_range()
        answers = self._executor(request.entry_bytes).eval_batch(
            request.arena(),
            get_prf(request.resolved_prf_name),
            resident_keys=request.resident,
            eval_range=eval_range,
            reduce=request.reduce,
        )
        return EvalResult(
            answers=answers,
            plan=plan,
            cost=merged_cost(plan.stats, eval_range=eval_range),
        )


class SimulatedBackend(ExecutionBackend):
    """Model-only backend: reference answers, simulated timing.

    ``run`` evaluates every key through the reference level-by-level
    walk (:func:`repro.dpf.dpf.eval_full`) — a per-key Python loop, so
    O(B) slower than the vectorized kernels but independent of them,
    which is exactly what an end-to-end oracle wants.  ``plan`` prices
    the request on the modeled device like :class:`SingleGpuBackend`,
    so what-if pricing of unattached hardware still works.
    """

    name = "simulated"

    def __init__(self, device: DeviceSpec = V100, strategies: list | None = None):
        self.device = device
        self._single = SingleGpuBackend(device, strategies=strategies)

    def plan(self, request: EvalRequest) -> ExecutionPlan:
        plan = self._single.plan(request)
        return ExecutionPlan(backend=self.name, resident=plan.resident, stats=plan.stats)

    def model_latency_s(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident: bool = False,
        entry_bytes: int = 8,
    ) -> float | None:
        return self._single.model_latency_s(
            batch_size,
            table_entries,
            prf_name=prf_name,
            resident=resident,
            entry_bytes=entry_bytes,
        )

    @property
    def plan_key(self) -> tuple:
        return (self.name, self.device.name)

    def run(self, request: EvalRequest) -> EvalResult:
        return self.run_with_plan(request, self.plan(request))

    def run_with_plan(
        self,
        request: EvalRequest,
        plan: ExecutionPlan,
        workspace: ExpansionWorkspace | None = None,
    ) -> EvalResult:
        # The reference walk allocates per key and wants no workspace;
        # reusing the cached plan skips only the modeled re-pricing.
        del workspace
        prf = get_prf(request.resolved_prf_name)
        lo, hi = request.resolved_range()
        if (lo, hi) == (0, request.arena().domain_size):
            rows = [eval_full(key, prf) for key in request.arena().to_keys()]
        else:
            # The per-key reference of the strategies' windowed walk.
            rows = [
                eval_range(key, prf, lo, hi) for key in request.arena().to_keys()
            ]
        return EvalResult(
            answers=request.reduced(np.stack(rows)),
            plan=plan,
            cost=merged_cost(plan.stats, (lo, hi)),
        )

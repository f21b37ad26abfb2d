"""Cost-model-driven backend selection: the Figure 10 crossover, live.

The paper's CPU-vs-GPU argument is a *routing* rule, not a verdict:
below some batch size the CPU's zero-launch-overhead answer wins, above
it the GPU's fused expansion does, and the crossover moves with the
table size and the PRF's hardware support.  This module turns that
rule into executable pieces:

* :func:`select_backend` — the one-shot decision: price a request's
  shape on every candidate through
  :meth:`~repro.exec.backend.ExecutionBackend.model_latency_s` and pick
  the cheapest.  Pure pricing, no state.
* :class:`HybridBackend` — a composite backend that applies the rule
  per dispatch.  It quantizes batches to the same power-of-two buckets
  the :class:`~repro.exec.plan_cache.PlanCache` keys on, memoizes the
  per-shape *crossover bucket* (the smallest bucket at which the best
  non-CPU candidate is at least as fast as the best CPU candidate), and
  routes by threshold: below the crossover the CPU side serves, at or
  above it the GPU side does.  Threshold routing makes the crossover
  monotone by construction — once a shape flips to the GPU it stays
  flipped for every larger bucket — which keeps cached plans, drain
  pricing, and the served reality consistent with each other.

Because :class:`HybridBackend` satisfies the full duck-typed backend
contract (``plan`` / ``run`` / ``plan_key`` / ``run_with_plan`` /
``model_latency_s``) and every candidate is bit-identical, it drops
unchanged behind :class:`~repro.exec.plan_cache.PlanCache`,
:class:`~repro.serve.fleet.FleetScheduler`, the sharded/replicated
servers, and the chaos wrappers: routing moves work between devices,
never changes answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exec.backend import ExecutionBackend, backend_label
from repro.exec.plan_cache import batch_bucket
from repro.exec.request import EvalRequest, EvalResult, ExecutionPlan
from repro.gpu.arena import ExpansionWorkspace

CPU_CLASS = "cpu"
GPU_CLASS = "gpu"


def _price(
    backend: ExecutionBackend,
    batch_size: int,
    table_entries: int,
    prf_name: str,
    resident: bool,
    entry_bytes: int,
) -> float | None:
    """A candidate's modeled latency, or ``None`` when it cannot serve.

    ``ValueError`` from the model means the shape is genuinely
    infeasible there (e.g. no feasible GPU strategy at this batch);
    ``None`` means the backend has no model.  Either way the candidate
    drops out of this decision.
    """
    try:
        latency = backend.model_latency_s(
            batch_size,
            table_entries,
            prf_name=prf_name,
            resident=resident,
            entry_bytes=entry_bytes,
        )
    except ValueError:
        return None
    if latency is None or latency <= 0:
        return None
    return latency


@dataclass(frozen=True)
class BackendChoice:
    """Outcome of one :func:`select_backend` decision.

    Attributes:
        index: Position of the winner in the candidate sequence.
        backend: The winning candidate.
        label: The winner's display name.
        latency_s: The winner's modeled latency for the request shape.
        priced: Every candidate's ``(label, latency)`` in candidate
            order; ``None`` latency marks a candidate that could not
            price the shape.
    """

    index: int
    backend: ExecutionBackend
    label: str
    latency_s: float
    priced: tuple[tuple[str, float | None], ...]


def select_backend(
    request: EvalRequest, candidates: Sequence[ExecutionBackend]
) -> BackendChoice:
    """Pick the cheapest candidate for one request by modeled latency.

    Prices the request's exact shape (batch, domain, PRF, residency,
    entry width) on every candidate and returns the minimum, ties
    broken by candidate order.  Candidates whose model cannot price the
    shape (no model, or a ``ValueError``-raising infeasible plan) are
    skipped.

    Raises:
        ValueError: On an empty candidate sequence, or when no
            candidate can price the shape.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate backend")
    arena = request.arena()
    priced = tuple(
        (
            backend_label(backend, i),
            _price(
                backend,
                arena.batch,
                arena.domain_size,
                request.resolved_prf_name,
                request.resident,
                request.entry_bytes,
            ),
        )
        for i, backend in enumerate(candidates)
    )
    feasible = [
        (latency, i) for i, (_, latency) in enumerate(priced) if latency is not None
    ]
    if not feasible:
        raise ValueError(
            "no candidate backend can price the request shape "
            f"(batch={arena.batch}, domain={arena.domain_size}, "
            f"prf={request.resolved_prf_name!r})"
        )
    latency, index = min(feasible)
    return BackendChoice(
        index=index,
        backend=candidates[index],
        label=priced[index][0],
        latency_s=latency,
        priced=priced,
    )


class HybridBackend(ExecutionBackend):
    """Threshold-routes each request to the CPU or GPU side of the fleet.

    Candidates split by their ``device_class`` attribute (``"cpu"`` for
    :class:`~repro.baselines.cpu.CpuBackend`, ``"gpu"`` for everything
    else).  When both classes are present, routing is by the memoized
    per-shape crossover bucket (see module docstring); with a single
    class present it degenerates to cheapest-candidate selection per
    bucket.

    Args:
        candidates: Non-empty pool of bit-identical backends.
        max_crossover_bucket: Largest power-of-two bucket probed when
            searching for a shape's crossover; shapes that never flip
            within the cap route to the CPU side at every size.

    Attributes:
        route_counts: Dispatches routed to each candidate, by index
            (``plan`` alone never counts — only executed work does).
    """

    name = "hybrid"

    def __init__(
        self,
        candidates: Sequence[ExecutionBackend],
        max_crossover_bucket: int = 1 << 20,
    ):
        candidates = list(candidates)
        if not candidates:
            raise ValueError("need at least one candidate backend")
        if max_crossover_bucket < 1:
            raise ValueError(
                f"max_crossover_bucket must be >= 1, got {max_crossover_bucket}"
            )
        self.candidates = candidates
        self.max_crossover_bucket = max_crossover_bucket
        self.labels = [backend_label(b, i) for i, b in enumerate(candidates)]
        self.classes = [
            getattr(b, "device_class", GPU_CLASS) for b in candidates
        ]
        self.route_counts = [0] * len(candidates)
        self._crossovers: dict[tuple, int | None] = {}

    # -- pricing -------------------------------------------------------

    def _cheapest(
        self,
        device_class: str | None,
        batch_size: int,
        table_entries: int,
        prf_name: str,
        resident: bool,
        entry_bytes: int,
    ) -> tuple[int, float] | None:
        """Cheapest candidate of one class (or any, for ``None``)."""
        best: tuple[float, int] | None = None
        for i, backend in enumerate(self.candidates):
            if device_class is not None and self.classes[i] != device_class:
                continue
            latency = _price(
                backend, batch_size, table_entries, prf_name, resident, entry_bytes
            )
            if latency is None:
                continue
            if best is None or (latency, i) < best:
                best = (latency, i)
        if best is None:
            return None
        return best[1], best[0]

    def crossover_bucket(
        self,
        table_entries: int,
        prf_name: str = "aes128",
        resident: bool = False,
        entry_bytes: int = 8,
    ) -> int | None:
        """The smallest bucket at which the GPU side wins this shape.

        ``None`` when the CPU side wins at every probed bucket (small
        tables, where per-batch GPU overheads never amortize).  Memoized
        per ``(table, prf, resident, entry_bytes)`` — the decision a
        serving loop replays every flush must be a dict lookup.
        """
        key = (table_entries, prf_name, resident, entry_bytes)
        if key in self._crossovers:
            return self._crossovers[key]
        crossover: int | None = None
        bucket = 1
        while bucket <= self.max_crossover_bucket:
            cpu = self._cheapest(
                CPU_CLASS, bucket, table_entries, prf_name, resident, entry_bytes
            )
            gpu = self._cheapest(
                GPU_CLASS, bucket, table_entries, prf_name, resident, entry_bytes
            )
            if cpu is None and gpu is not None:
                crossover = bucket
                break
            if cpu is not None and gpu is not None and gpu[1] <= cpu[1]:
                crossover = bucket
                break
            bucket <<= 1
        self._crossovers[key] = crossover
        return crossover

    def _decide(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str,
        resident: bool,
        entry_bytes: int,
    ) -> int:
        """Index of the candidate this shape routes to."""
        bucket = min(batch_bucket(batch_size), self.max_crossover_bucket)
        has_cpu = CPU_CLASS in self.classes
        has_gpu = GPU_CLASS in self.classes
        if has_cpu and has_gpu:
            crossover = self.crossover_bucket(
                table_entries, prf_name, resident, entry_bytes
            )
            side = (
                GPU_CLASS
                if crossover is not None and bucket >= crossover
                else CPU_CLASS
            )
        else:
            side = None  # single-class pool: plain cheapest-per-bucket
        for probe in (side, None):
            choice = self._cheapest(
                probe, bucket, table_entries, prf_name, resident, entry_bytes
            )
            if choice is not None:
                return choice[0]
        raise ValueError(
            "no candidate backend can price the request shape "
            f"(batch={batch_size}, domain={table_entries}, prf={prf_name!r})"
        )

    def _decide_request(self, request: EvalRequest) -> int:
        arena = request.arena()
        return self._decide(
            arena.batch,
            arena.domain_size,
            request.resolved_prf_name,
            request.resident,
            request.entry_bytes,
        )

    # -- counters ------------------------------------------------------

    def routing_counts(self) -> dict[str, int]:
        """Dispatch counts keyed by candidate label."""
        return dict(zip(self.labels, self.route_counts))

    def class_counts(self) -> dict[str, int]:
        """Dispatch counts folded to the CPU/GPU sides of the pool."""
        counts: dict[str, int] = {}
        for device_class, count in zip(self.classes, self.route_counts):
            counts[device_class] = counts.get(device_class, 0) + count
        return counts

    def snapshot(self) -> dict:
        """JSON-ready routing state — the metrics-registry view shape."""
        return {"routes": self.routing_counts(), "classes": self.class_counts()}

    # -- the backend contract ------------------------------------------

    def plan(self, request: EvalRequest) -> ExecutionPlan:
        inner = self.candidates[self._decide_request(request)].plan(request)
        return ExecutionPlan(
            backend=self.name, resident=inner.resident, stats=inner.stats
        )

    def model_latency_s(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident: bool = False,
        entry_bytes: int = 8,
    ) -> float | None:
        """The routed candidate's modeled latency for the exact batch."""
        try:
            index = self._decide(
                batch_size, table_entries, prf_name, resident, entry_bytes
            )
        except ValueError:
            return None
        return self.candidates[index].model_latency_s(
            batch_size,
            table_entries,
            prf_name=prf_name,
            resident=resident,
            entry_bytes=entry_bytes,
        )

    @property
    def plan_key(self) -> tuple:
        return (self.name,) + tuple(b.plan_key for b in self.candidates)

    def run(self, request: EvalRequest) -> EvalResult:
        index = self._decide_request(request)
        result = self.candidates[index].run(request)
        self.route_counts[index] += 1
        return EvalResult(
            answers=result.answers,
            plan=ExecutionPlan(
                backend=self.name,
                resident=result.plan.resident,
                stats=result.plan.stats,
            ),
            cost=result.cost,
        )

    def run_with_plan(
        self,
        request: EvalRequest,
        plan: ExecutionPlan,
        workspace: ExpansionWorkspace | None = None,
    ) -> EvalResult:
        # The bucketed decision is deterministic and memoized, so the
        # candidate chosen here is the one whose stats the cached plan
        # carries — plan and execution never disagree.
        index = self._decide_request(request)
        self.route_counts[index] += 1
        return self.candidates[index].run_with_plan(request, plan, workspace)

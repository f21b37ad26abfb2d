"""Model-priced routing of merged batches across a backend fleet.

A serving deployment rarely runs one device: the paper's scale-out
story is a rack of (possibly mixed) GPUs, each wrapped in its own
:class:`~repro.exec.ExecutionBackend`.  :class:`FleetScheduler` decides
*which* backend a merged batch should run on, using the same
performance model the per-device scheduler selects strategies with:
every candidate backend prices the request through
:meth:`~repro.exec.ExecutionBackend.plan` (which bottoms out in the
memoized :meth:`repro.gpu.scheduler.Scheduler.latency_s` cost hook),
and the router picks the backend with the earliest *predicted
completion* — modeled queue drain plus the batch's modeled latency.

The queue model is a virtual clock per backend: each routed batch adds
its modeled latency to its backend's accumulated busy time, so a
stream of equal batches round-robins a homogeneous fleet and loads a
mixed V100 + A100 fleet proportionally to modeled speed.  Routing is a
pure function of the request sequence — no wall clock, no randomness —
so a replayed stream routes identically (pinned by
``tests/serve/test_fleet.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exec.backend import ExecutionBackend, backend_label
from repro.exec.request import EvalRequest, EvalResult, ExecutionPlan


@dataclass(frozen=True)
class RoutingDecision:
    """Where one merged batch was sent and why.

    Attributes:
        backend_index: Position of the chosen backend in the fleet.
        backend_label: Stable display name of the chosen backend.
        plan: The chosen backend's :class:`ExecutionPlan` for the batch
            (the latency that priced the decision).
        predicted_start_s: Modeled queue-drain time on the chosen
            backend when the batch was routed (virtual clock).
        predicted_finish_s: ``predicted_start_s`` plus the plan's
            modeled latency — what the router minimized.
    """

    backend_index: int
    backend_label: str
    plan: ExecutionPlan
    predicted_start_s: float
    predicted_finish_s: float


class FleetScheduler:
    """Routes requests across heterogeneous backends by predicted cost.

    Args:
        backends: Non-empty candidate pool.  Every backend must produce
            bit-identical answers (all :mod:`repro.exec` backends do),
            so routing affects modeled performance only — never
            results.

    Attributes:
        route_counts: Batches routed to each backend so far, by index.
    """

    def __init__(self, backends: Sequence[ExecutionBackend]):
        if not backends:
            raise ValueError("need at least one backend")
        self.backends = list(backends)
        self.labels = [
            backend_label(backend, i) for i, backend in enumerate(self.backends)
        ]
        self.route_counts = [0] * len(self.backends)
        self._busy_s = [0.0] * len(self.backends)

    def route(self, request: EvalRequest) -> RoutingDecision:
        """Pick the backend with the earliest predicted completion.

        Every backend plans the request; the winner minimizes
        ``virtual_busy + plan.latency_s``, ties broken by fleet order
        (deterministic).  The winner's virtual clock advances by the
        batch's modeled latency, which is what spreads a stream of
        batches across the fleet instead of piling onto the single
        fastest device.

        A backend whose planner raises ``ValueError`` (no feasible
        strategy for this shape — a GPU model rejecting a batch a CPU
        entry would happily serve) simply drops out of the candidate
        set for this batch; the error propagates only when *every*
        backend rejects the shape.

        Raises:
            ValueError: When no backend in the fleet can plan the
                request.
        """
        plans: list[ExecutionPlan | None] = []
        for backend in self.backends:
            try:
                plans.append(backend.plan(request))
            except ValueError:
                plans.append(None)
        candidates = [i for i, plan in enumerate(plans) if plan is not None]
        if not candidates:
            raise ValueError(
                "no backend in the fleet can plan the request "
                f"(batch={request.arena().batch}, "
                f"domain={request.arena().domain_size})"
            )
        finishes = [
            self._busy_s[i] + plans[i].latency_s if plans[i] is not None else 0.0
            for i in range(len(plans))
        ]
        winner = min(candidates, key=lambda i: (finishes[i], i))
        decision = RoutingDecision(
            backend_index=winner,
            backend_label=self.labels[winner],
            plan=plans[winner],
            predicted_start_s=self._busy_s[winner],
            predicted_finish_s=finishes[winner],
        )
        self._busy_s[winner] = finishes[winner]
        self.route_counts[winner] += 1
        return decision

    def dispatch(self, request: EvalRequest) -> tuple[EvalResult, RoutingDecision]:
        """Route the request, then run it on the chosen backend."""
        decision = self.route(request)
        return self.backends[decision.backend_index].run(request), decision

    def snapshot(self) -> dict:
        """JSON-ready routing state — the metrics-registry view shape.

        Per-label batch counts plus each member's virtual-clock busy
        time (what the router balances), keyed by the same stable
        labels ``ServingStats.routes`` uses.
        """
        return {
            "routes": dict(zip(self.labels, self.route_counts)),
            "busy_s": dict(zip(self.labels, self._busy_s)),
        }

    def model_latency_s(
        self,
        batch_size: int,
        table_entries: int,
        prf_name: str = "aes128",
        resident: bool = False,
        entry_bytes: int = 8,
    ) -> float | None:
        """Fleet-aggregate modeled latency for one workload shape.

        The fleet serves flushes *concurrently*, so its effective
        throughput is the sum of each backend's modeled QPS; the
        returned latency is ``batch_size`` over that sum — the number
        drain-time admission divides queue depth by when a fleet is
        attached.  ``None`` when any backend lacks a model (the caller
        must then skip model-based policies).  A member whose model
        raises ``ValueError`` is genuinely infeasible for the shape and
        contributes zero QPS instead of poisoning the aggregate — a
        fleet with a CPU entry therefore prices every shape.

        Raises:
            ValueError: When every member's model rejects the shape.
        """
        total_qps = 0.0
        priced_any = False
        for backend in self.backends:
            try:
                latency = backend.model_latency_s(
                    batch_size,
                    table_entries,
                    prf_name=prf_name,
                    resident=resident,
                    entry_bytes=entry_bytes,
                )
            except ValueError:
                continue
            if latency is None or latency <= 0:
                return None
            total_qps += batch_size / latency
            priced_any = True
        if not priced_any:
            raise ValueError(
                "no backend in the fleet can price the shape "
                f"(batch={batch_size}, domain={table_entries}, "
                f"prf={prf_name!r})"
            )
        return batch_size / total_qps

"""Concrete execution backends behind one request-oriented protocol.

An :class:`ExecutionBackend` answers two questions about an
:class:`~repro.exec.request.EvalRequest`: *what would running it look
like* (:meth:`~ExecutionBackend.plan` — strategy selection plus modeled
timing on one device) and *what are the answers*
(:meth:`~ExecutionBackend.run` — the functional ``(B, L)`` share
matrix, or the reduced answers of a request that carries a reducer).
Two adapters reuse the existing substrate rather than duplicating it:

* :class:`SingleGpuBackend` — one device; scheduler-selected strategy,
  walked in the calling thread's
  :func:`~repro.gpu.arena.thread_workspace`.
* :class:`SimulatedBackend` — answers from the *reference* evaluator
  (:func:`repro.dpf.dpf.eval_full`), timing from the performance model
  only.  Slow but kernel-free: the oracle backend for end-to-end tests.

Both price on one :class:`~repro.gpu.scheduler.Scheduler` over the
calibrated V100 and every registered design, so neither takes an
argument.  Both produce bit-identical answers for the same keys; tests
pin that across the object and wire ingestion forms.
"""

from __future__ import annotations

import abc
import dataclasses

import numpy as np

from repro.crypto.prf import get_prf
from repro.dpf.dpf import eval_full, eval_range
from repro.exec.request import EvalRequest, ExecutionPlan
from repro.gpu.device import V100
from repro.gpu.scheduler import Scheduler
from repro.gpu.strategies import get_strategy


class ExecutionBackend(abc.ABC):
    """The request-oriented execution protocol.

    ``plan`` never touches key cryptography beyond ingestion metadata
    (batch size, domain, PRF); ``run`` must return answers that are
    bit-identical across backends for the same keys.  A request with an
    ``eval_range`` restriction returns the ``(B, hi - lo)`` shares of
    rows ``[lo, hi)`` — bit-identical to that column window of the full
    expansion on every backend (``tests/exec/test_backends.py``) — and
    computes it with a walk pruned to the range: ``O((hi - lo) + log L)``
    PRF blocks per key, which is what :meth:`Strategy.cost
    <repro.gpu.strategies.Strategy.cost>` counts.  A request with a reducer returns
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
    def run(self, request: EvalRequest) -> np.ndarray:
        """Evaluate the request's keys over its ``resolved_range()``.

        Returns the ``(B, hi - lo)`` uint64 share matrix, or, for a
        request with a reducer, the ``(B,)`` (or ``(B, W)``) answers.
        """

    @property
    def plan_key(self) -> tuple:
        """Hashable identity for shared plan caches.

        Two backends with equal ``plan_key`` must produce
        interchangeable :class:`ExecutionPlan` objects for the same
        request shape.  The base implementation is deliberately
        conservative — unique per instance — so an unknown backend (or
        a fault-injecting wrapper) never shares cache entries it did
        not prove it can share.  The concrete backends below price
        alike on every instance, so they override this with their name.
        """
        return (self.name, id(self))

    def run_with_plan(self, request: EvalRequest, plan: ExecutionPlan) -> np.ndarray:
        """Evaluate under an already-priced plan.

        The zero-dispatch hot path a :class:`~repro.exec.plan_cache
        .PlanCache` drives: the cache supplies the memoized plan, so the
        steady state skips strategy re-selection entirely.  The default
        implementation falls back to :meth:`run` (ignoring the plan),
        which keeps wrappers — fault injectors especially — correct
        without their own override: their ``run`` still sees every
        dispatch.
        """
        del plan
        return self.run(request)


class SingleGpuBackend(ExecutionBackend):
    """Scheduler-driven execution on the calibrated V100.

    :meth:`plan` names a design; every design runs the same walk, so the
    answers and their cost do not depend on which one it names.
    """

    name = "single_gpu"

    def __init__(self):
        self._scheduler = Scheduler(V100)

    def plan(self, request: EvalRequest) -> ExecutionPlan:
        arena = request.arena()
        selection = self._scheduler.select(
            arena.batch, arena.domain_size, prf_name=request.resolved_prf_name
        )
        return ExecutionPlan(backend=self.name, selection=selection)

    @property
    def plan_key(self) -> tuple:
        return (self.name,)

    def run(self, request: EvalRequest) -> np.ndarray:
        return self.run_with_plan(request, self.plan(request))

    def run_with_plan(self, request: EvalRequest, plan: ExecutionPlan) -> np.ndarray:
        return get_strategy(plan.selection.strategy).eval_batch(
            request.arena(),
            get_prf(request.resolved_prf_name),
            eval_range=request.resolved_range(),
            reduce=request.reduce,
        )


class SimulatedBackend(ExecutionBackend):
    """Model-only backend: reference answers, simulated timing.

    ``run`` evaluates every key through the reference level-by-level
    walk (:func:`repro.dpf.dpf.eval_full`) — a per-key Python loop, so
    O(B) slower than the vectorized kernels but independent of them,
    which is exactly what an end-to-end oracle wants.  ``plan`` prices
    the request on the modeled device like :class:`SingleGpuBackend`.
    """

    name = "simulated"

    def __init__(self):
        self._single = SingleGpuBackend()

    def plan(self, request: EvalRequest) -> ExecutionPlan:
        return dataclasses.replace(self._single.plan(request), backend=self.name)

    @property
    def plan_key(self) -> tuple:
        return (self.name,)

    def run(self, request: EvalRequest) -> np.ndarray:
        return self.run_with_plan(request, self.plan(request))

    def run_with_plan(self, request: EvalRequest, plan: ExecutionPlan) -> np.ndarray:
        # The reference walk allocates per key; reusing the cached plan
        # skips only the modeled re-pricing.
        prf = get_prf(request.resolved_prf_name)
        lo, hi = request.resolved_range()
        if (lo, hi) == (0, request.arena().domain_size):
            rows = [eval_full(key, prf) for key in request.arena().to_keys()]
        else:
            # The per-key reference of the strategies' windowed walk.
            rows = [
                eval_range(key, prf, lo, hi) for key in request.arena().to_keys()
            ]
        return request.reduced(np.stack(rows))

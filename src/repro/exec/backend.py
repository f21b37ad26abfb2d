"""The execution backend: one request-oriented protocol, one adapter.

An :class:`ExecutionBackend` answers two questions about an
:class:`~repro.exec.request.EvalRequest`: *what the modeled device
would choose for it* (:meth:`~ExecutionBackend.plan` — strategy
selection plus modeled timing on one device) and *what are the answers*
(:meth:`~ExecutionBackend.run` — the functional ``(B, L)`` share
matrix, or the reduced answers of a request that carries a reducer).
The two never meet: ``run`` walks without asking for a plan, and no
plan changes what runs.

:class:`SingleGpuBackend` is the one adapter: it prices on one
:class:`~repro.gpu.scheduler.Scheduler` over the calibrated V100 and
every registered design, so it takes no argument, and it walks in the
calling thread's :func:`~repro.gpu.arena.thread_workspace`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.crypto.prf import get_prf
from repro.exec.request import EvalRequest, ExecutionPlan
from repro.gpu.device import V100
from repro.gpu.scheduler import Scheduler
from repro.gpu.strategies import get_strategy

_WALK = get_strategy("memory_bounded")
"""The design whose ``eval_batch`` every :meth:`SingleGpuBackend.run`
calls: the paper's headline kernel.  Every design runs the same walk
(``tests/gpu/test_strategies.py::TestOneWalk``), so the instance only
labels the ``gpu.eval_batch`` span the benchmark records around the
call; it holds no state, and threads share it."""


class ExecutionBackend(abc.ABC):
    """The request-oriented execution protocol.

    ``plan`` never touches key cryptography beyond ingestion metadata
    (batch size, domain, PRF); ``run`` must return answers that are
    bit-identical across backends for the same keys, whatever ``plan``
    would say.  A request with an ``eval_range`` restriction returns the
    ``(B, hi - lo)`` shares of rows ``[lo, hi)`` — bit-identical to that
    column window of the full expansion (``tests/exec/test_backends.py``)
    — and computes it with a walk pruned to the range:
    ``O((hi - lo) + log L)`` PRF blocks per key, which is what
    :meth:`Strategy.cost <repro.gpu.strategies.Strategy.cost>` counts.
    A request with a reducer returns ``reduce(that matrix, lo, hi)``
    summed over however many windows the backend cut it into — again
    bit-identical on every backend (``tests/gpu/test_packed_oracle.py``).
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
        not prove it can share.  :class:`SingleGpuBackend` prices alike
        on every instance, so it overrides this with its name.
        """
        return (self.name, id(self))


class SingleGpuBackend(ExecutionBackend):
    """The walk, run on this host; plans priced on the calibrated V100.

    :meth:`plan` names the design the V100 scheduler would pick, and
    :meth:`run` never asks it: every design runs the same walk, so the
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
        return _WALK.eval_batch(
            request.arena(),
            get_prf(request.resolved_prf_name),
            eval_range=request.resolved_range(),
            reduce=request.reduce,
        )

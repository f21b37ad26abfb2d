"""The shared execution-backend pool for equivalence tests.

Every suite that asserts "bit-identical across backends" — the exec
layer, the PIR round trip, the serving loop — parametrizes over this
one mapping, so adding a backend extends every equivalence property at
once instead of silently missing a copy-pasted dict.  Each key is its
backend's ``name``.

* ``single_gpu`` is what serves.
* ``simulated`` is the oracle, :class:`SimulatedBackend`: answers from
  the per-key reference walk, independent of the tiled one.
* The ``single_gpu_*`` entries pin planning only: each plans what the
  V100 scheduler would not choose on the suites' small tables
  (``tests/exec/test_backends.py::TestPool`` pins that each entry plans
  what its name says), but ``run`` never asks for a plan, so their
  serving ids run ``single_gpu``'s walk again.  They go once planning
  leaves the program; deleting them first would shed tests that still
  pass.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.crypto.prf import get_prf
from repro.dpf.dpf import eval_full, eval_range
from repro.exec import EvalRequest, ExecutionBackend, ExecutionPlan, SingleGpuBackend
from repro.gpu import A100, Scheduler, get_strategy


class SimulatedBackend(ExecutionBackend):
    """Model-only backend: reference answers, simulated timing.

    ``run`` evaluates every key through the reference level-by-level
    walk (:func:`repro.dpf.dpf.eval_full`, or
    :func:`repro.dpf.dpf.eval_range` for a restricted request) — a
    per-key Python loop, so O(B) slower than the tiled walk but
    independent of it, which is exactly what an end-to-end oracle
    wants.  A reducer sees the whole matrix as one window.  ``plan``
    prices the request on the modeled device like
    :class:`SingleGpuBackend`.
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
        prf = get_prf(request.resolved_prf_name)
        lo, hi = request.resolved_range()
        keys = request.arena().to_keys()
        if (lo, hi) == (0, request.arena().domain_size):
            shares = np.stack([eval_full(key, prf) for key in keys])
        else:
            shares = np.stack([eval_range(key, prf, lo, hi) for key in keys])
        if request.reduce is None:
            return shares
        return request.reduce(shares, lo, hi)


def _repriced(name, scheduler):
    """A single-GPU backend, labelled ``name``, whose plans ``scheduler`` makes.

    The equivalence suites assert that a plan names the pool entry that
    produced it, so every key is also its backend's ``name``, and that
    name is the entry's ``plan_key``.
    """
    backend = SingleGpuBackend()
    backend.name = name
    backend._scheduler = scheduler
    return backend


def _pinned(strategy_name):
    """A single-GPU backend whose scheduler may only choose one design."""
    return _repriced(
        f"single_gpu_{strategy_name}",
        Scheduler(strategies=[get_strategy(strategy_name)]),
    )


BACKEND_FACTORIES = {
    "single_gpu": SingleGpuBackend,
    "simulated": SimulatedBackend,
    # Another device model: the scheduler prices (and may pick) a
    # different strategy; the answers come from the same walk.
    "single_gpu_a100": lambda: _repriced("single_gpu_a100", Scheduler(A100)),
    # On the suites' small tables the default pool picks
    # cooperative_groups; pinning each other design makes the plan
    # name it, while the walk stays the same.
    "single_gpu_branch_parallel": lambda: _pinned("branch_parallel"),
    "single_gpu_level_by_level": lambda: _pinned("level_by_level"),
    "single_gpu_memory_bounded": lambda: _pinned("memory_bounded"),
}

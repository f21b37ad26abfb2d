"""The shared execution-backend pool for equivalence tests.

Every suite that asserts "bit-identical across backends" — the exec
layer, the PIR round trip, the serving loop — parametrizes over this
one mapping, so adding a backend extends every equivalence property at
once instead of silently missing a copy-pasted dict.  Each key is its
backend's ``name``.  Every registered design runs the same walk
(``tests/gpu/test_strategies.py::TestOneWalk``); the ``single_gpu_*``
entries serve the same stack under the plans the V100 scheduler would
not make on the suites' small tables, so a plan can never leak into
the answers (``tests/exec/test_backends.py::TestPool`` pins that each
entry plans what its name says).
"""

from __future__ import annotations

from repro.exec import SimulatedBackend, SingleGpuBackend
from repro.gpu import A100, Scheduler, get_strategy


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
    # different strategy, and the answers must not notice.
    "single_gpu_a100": lambda: _repriced("single_gpu_a100", Scheduler(A100)),
    # On the suites' small tables the default pool picks
    # cooperative_groups; pinning each other design prices, plans and
    # serves it through the same seam, and the answers must not notice.
    "single_gpu_branch_parallel": lambda: _pinned("branch_parallel"),
    "single_gpu_level_by_level": lambda: _pinned("level_by_level"),
    "single_gpu_memory_bounded": lambda: _pinned("memory_bounded"),
}

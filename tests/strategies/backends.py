"""The shared execution-backend pool for equivalence tests.

Every suite that asserts "bit-identical across backends" — the exec
layer, the PIR round trip, the serving loop — parametrizes over this
one mapping, so adding a backend extends every equivalence property at
once instead of silently missing a copy-pasted dict.
"""

from __future__ import annotations

from repro.exec import SimulatedBackend, SingleGpuBackend
from repro.gpu import A100, get_strategy


def _named(backend, name):
    """Label a second configuration of a backend class with its pool key.

    The equivalence suites assert that a plan names the pool entry that
    produced it, so every key is also its backend's ``name``.
    """
    backend.name = name
    return backend


def _pinned(strategy_name):
    """A single-GPU backend whose scheduler may only choose one design."""
    name = f"single_gpu_{strategy_name}"
    return _named(SingleGpuBackend(strategies=[get_strategy(strategy_name)]), name)


BACKEND_FACTORIES = {
    "single_gpu": lambda: SingleGpuBackend(),
    "simulated": lambda: SimulatedBackend(),
    # Another device model: the scheduler prices (and may pick) a
    # different strategy, and the answers must not notice.
    "single_gpu_a100": lambda: _named(SingleGpuBackend(A100), "single_gpu_a100"),
    # On the suites' small tables the default pool picks
    # cooperative_groups; pinning each other design prices, plans and
    # serves it through the same seam, and the answers must not notice.
    "single_gpu_branch_parallel": lambda: _pinned("branch_parallel"),
    "single_gpu_level_by_level": lambda: _pinned("level_by_level"),
    "single_gpu_memory_bounded": lambda: _pinned("memory_bounded"),
}

"""The shared execution-backend pool for equivalence tests.

Every suite that asserts "bit-identical across backends" — the exec
layer, the PIR round trip, the serving loop — parametrizes over this
one mapping, so adding a backend extends every equivalence property at
once instead of silently missing a copy-pasted dict.
"""

from __future__ import annotations

from repro.exec import MultiGpuBackend, SimulatedBackend, SingleGpuBackend
from repro.gpu import A100, V100


def _named(backend, name):
    """Label a second configuration of a backend class with its pool key.

    The equivalence suites assert that a plan names the pool entry that
    produced it, so every key is also its backend's ``name``.
    """
    backend.name = name
    return backend


BACKEND_FACTORIES = {
    "single_gpu": lambda: SingleGpuBackend(),
    "multi_gpu": lambda: MultiGpuBackend([V100, V100]),
    "simulated": lambda: SimulatedBackend(),
    # Another device model: the scheduler prices (and may pick) a
    # different strategy, and the answers must not notice.
    "single_gpu_a100": lambda: _named(SingleGpuBackend(A100), "single_gpu_a100"),
    # A mixed fleet shards unevenly by modeled throughput; a small batch
    # can leave a device with a zero share, which eval_batch must skip.
    "multi_gpu_mixed": lambda: _named(
        MultiGpuBackend([V100, A100]), "multi_gpu_mixed"
    ),
    # Three shards: largest-remainder splits that do not divide evenly.
    "multi_gpu_3": lambda: _named(
        MultiGpuBackend([V100, V100, V100]), "multi_gpu_3"
    ),
}

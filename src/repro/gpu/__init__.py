"""GPU execution substrate for DPF-PIR (paper Section 3.2).

The paper's artifact is a set of CUDA kernels on an NVIDIA V100.  This
package substitutes that hardware with two tightly-coupled layers
(DESIGN.md, "Substitutions"):

* **One executed walk** — the four parallelization strategies
  (branch-parallel, level-by-level, memory-bounded tree traversal,
  cooperative-groups) are modeled designs; every one of them runs the
  same tiled vectorized-numpy traversal, whose PRF-call counts and peak
  live memory are metered and tested against its exact cost.
* **Performance model** — a wave-level simulator of a SIMT device
  (:mod:`repro.gpu.sim`) with occupancy, shared-memory, bandwidth, and
  launch-overhead effects, calibrated against the paper's published
  V100 numbers (Tables 4 and 5).  It prices what
  ``scripts/paper_figures.py`` prints: Tables 4 and 5 and Figures 8/9,
  10 and 13/14 (Figure 6's peak memory comes from the kernel plans
  alone).

The scheduler (:mod:`repro.gpu.scheduler`) reproduces the paper's
batch- and table-size-aware strategy selection (Section 3.2.5).

:mod:`repro.gpu.arena` holds the serving-path data layer: a persistent
:class:`KeyArena` built from key objects or straight from wire bytes
(zero per-key Python objects), zero-copy slicing, the reusable
:class:`ExpansionWorkspace` (one per thread, :func:`thread_workspace`),
and — through the plans' resident-keys mode — amortization of the
per-batch PCIe key upload.
"""

from repro.gpu.arena import ExpansionWorkspace, KeyArena, thread_workspace
from repro.gpu.device import A100, DeviceSpec, V100
from repro.gpu.kernel import KernelPhase, KernelPlan, KernelStats
from repro.gpu.memory import MemoryMeter
from repro.gpu.scheduler import Scheduler, select_strategy
from repro.gpu.sim import GpuSimulator
from repro.gpu.strategies import (
    BranchParallel,
    CooperativeGroups,
    LevelByLevel,
    MemoryBoundedTree,
    StrategyCost,
    available_strategies,
    get_strategy,
)

__all__ = [
    "DeviceSpec",
    "V100",
    "A100",
    "KeyArena",
    "ExpansionWorkspace",
    "thread_workspace",
    "MemoryMeter",
    "KernelPhase",
    "KernelPlan",
    "KernelStats",
    "GpuSimulator",
    "BranchParallel",
    "LevelByLevel",
    "MemoryBoundedTree",
    "CooperativeGroups",
    "StrategyCost",
    "available_strategies",
    "get_strategy",
    "Scheduler",
    "select_strategy",
]

"""Non-GPU baseline cost models (the paper's comparison points).

The reproduction's main substrate models GPUs (:mod:`repro.gpu`); this
package holds the baselines those numbers are compared *against*.
Today that is the AES-NI-aware CPU baseline (:mod:`repro.baselines
.cpu`) behind Figure 10's GPU-vs-CPU crossover argument: a
:class:`~repro.baselines.cpu.CpuCostModel` priced from the PRFs'
``cpu_cost`` metadata.  The comparison is modeled only; every served
answer comes from the GPU substrate's one executed walk.
"""

from repro.baselines.cpu import CPU_BASELINE, CpuCostModel, CpuSpec

__all__ = [
    "CPU_BASELINE",
    "CpuCostModel",
    "CpuSpec",
]

"""GPU-accelerated DPF-PIR reproduction.

Layers, bottom to top:

* :mod:`repro.crypto` — numpy-vectorized PRFs (AES-128, SHA-256,
  ChaCha20, SipHash, HighwayHash) behind one interface, with the
  paper's Table 5 cost metadata.
* :mod:`repro.dpf` — the Boyle--Gilboa--Ishai distributed point
  function: key generation, full-domain evaluation, serialization.
* :mod:`repro.gpu` — the paper's acceleration story: parallelization
  strategies, a calibrated V100 performance model, and batch/table-aware
  strategy scheduling.
* :mod:`repro.exec` — the unified execution layer: one request-oriented
  :class:`~repro.exec.ExecutionBackend` protocol over the substrate,
  whose ``run`` walks without asking the model for a plan.
* :mod:`repro.pir` — the end-to-end two-server PIR pipeline: client
  query generation, wire framing, and table serving through any
  execution backend.
* :mod:`repro.serve` — the async serving layer: work-conserving batch
  aggregation, bounded-queue admission control, retries, and sharded
  replicated serving.

See ``docs/architecture.md`` for the layer diagram and a PIR
quickstart.
"""

from repro import crypto, dpf, exec, gpu, pir, serve

__version__ = "1.0.0"

__all__ = [
    "crypto",
    "dpf",
    "exec",
    "gpu",
    "pir",
    "serve",
]

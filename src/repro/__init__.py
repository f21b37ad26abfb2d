"""GPU-accelerated DPF-PIR reproduction.

Layers, bottom to top:

* :mod:`repro.crypto` — numpy-vectorized PRFs (AES-128, SHA-256,
  ChaCha20, SipHash, HighwayHash) behind one interface, with the
  paper's Table 5 cost metadata.
* :mod:`repro.dpf` — the Boyle--Gilboa--Ishai distributed point
  function: key generation, full-domain evaluation, serialization.
* :mod:`repro.gpu` — the paper's acceleration story: parallelization
  strategies, a calibrated V100 performance model, batch/table-aware
  strategy scheduling, and multi-GPU sharding.
* :mod:`repro.exec` — the unified execution layer: one request-oriented
  :class:`~repro.exec.ExecutionBackend` protocol over the substrate
  (single-GPU, multi-GPU, simulated oracle).
* :mod:`repro.pir` — the end-to-end two-server PIR pipeline: client
  query generation, wire framing, and table serving through any
  execution backend.
* :mod:`repro.serve` — the SLO-aware async serving layer: batch
  aggregation under latency deadlines, bounded-queue admission
  control, retries, and sharded replicated serving.

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

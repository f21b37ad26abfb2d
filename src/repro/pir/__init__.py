"""End-to-end two-server PIR: the paper's headline artifact.

This package connects the substrate into the protocol of Figure 2:

* :mod:`repro.pir.client` — query generation (``O(log L)`` per index
  via :func:`repro.dpf.dpf.gen`) and answer reconstruction (additive
  share combine in Z_{2^64}).
* :mod:`repro.pir.server` — a replicated uint64 table served through
  any :class:`~repro.exec.ExecutionBackend`; wire batches ingest
  straight into a :class:`~repro.gpu.arena.KeyArena`.
* :mod:`repro.pir.wire` — versioned query/reply framing on top of the
  DPF key wire format.

The round trip is bit-exact: for any table and any index set,
``client -> wire -> two servers -> reconstruct`` returns exactly the
table rows, under object and wire ingestion, on every backend
(``tests/pir/test_roundtrip.py``).
"""

from repro.pir.client import PirClient, QueryBatch
from repro.pir.server import PirServer
from repro.pir.wire import (
    FRAME_HEADER_BYTES,
    KIND_QUERY,
    KIND_REPLY,
    WIRE_VERSION,
    PirQuery,
    PirReply,
)

__all__ = [
    "PirClient",
    "QueryBatch",
    "PirServer",
    "PirQuery",
    "PirReply",
    "WIRE_VERSION",
    "KIND_QUERY",
    "KIND_REPLY",
    "FRAME_HEADER_BYTES",
]

"""The PIR server: a replicated table answered through any backend.

One :class:`PirServer` plays one of the two non-colluding parties in
the paper's protocol.  It holds the table (8-byte entries, uint64 rows)
and answers key batches in two forms:

* :meth:`PirServer.answer_shares` — key material in any
  :data:`~repro.gpu.arena.KeySource` form, returning raw uint64 answer
  shares.  The wire form hands the bytes straight to
  :meth:`KeyArena.from_wire` — no per-key Python objects on the hot
  path.
* :meth:`PirServer.handle` — the full framed protocol:
  :class:`~repro.pir.wire.PirQuery` bytes in,
  :class:`~repro.pir.wire.PirReply` bytes out.

Evaluation flows through whatever :class:`ExecutionBackend` the server
was built with — single-GPU or the simulated oracle — so
the serving code is identical across deployment shapes; only the
backend object changes.  The answer share for key ``k`` is the table
dot product ``sum_i share_k[i] * table[i] (mod 2^64)``: the O(L) pass
over every row that keeps the query oblivious.  The server never sees
the ``(B, L)`` share matrix: it sends :meth:`PirServer.combine` down
with the request as its reducer, and the backend's walk feeds it the
shares a window at a time (``docs/architecture.md``, "Reducing as you
go").
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.exec import (
    EvalRequest,
    ExecutionBackend,
    PlanCache,
    SingleGpuBackend,
)
from repro.gpu.arena import KeySource
from repro.pir.wire import PirQuery, PirReply


class PirServer:
    """One party's server: table, backend, and the serving entry points.

    Args:
        table: The database — ``(L,)`` uint64 values (anything
            ``np.asarray`` can coerce; values are taken mod 2^64).
        backend: Execution backend to serve through (default: a
            :class:`SingleGpuBackend` on the calibrated V100).
        prf_name: PRF the clients' keys must have been generated for;
            mismatching batches are rejected at ingestion.
        max_batch: Upper bound on keys per request (``None`` =
            unlimited).  An oversized batch is rejected at ingestion,
            before any O(B*L) evaluation — the synchronous counterpart
            of the serving loop's admission control.
        plan_cache: Optional :class:`~repro.exec.PlanCache`.  When set,
            :meth:`answer_request` evaluates through it — memoized
            plans, pow2 batch bucketing — instead of re-planning per
            batch.  Answers are bit-identical either
            way; steady-state serving skips all Python-side re-setup.
    """

    def __init__(
        self,
        table: np.ndarray | Sequence[int],
        backend: ExecutionBackend | None = None,
        prf_name: str = "aes128",
        max_batch: int | None = None,
        plan_cache: "PlanCache | None" = None,
    ):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.uint64))
        if table.ndim != 1 or table.size == 0:
            raise ValueError("table must be a non-empty 1-D array of uint64 entries")
        if max_batch is not None and max_batch <= 0:
            raise ValueError(f"max_batch must be positive or None, got {max_batch}")
        self.table = table
        self.backend = backend if backend is not None else SingleGpuBackend()
        self.prf_name = prf_name
        self.max_batch = max_batch
        self.plan_cache = plan_cache
        self.epoch = 0
        """The single table epoch this server serves.  An unversioned
        server never updates its table, so every query must be pinned to
        this epoch; :class:`~repro.serve.shard.ShardedPirServer`
        overrides :meth:`check_epoch` with real multi-version
        semantics."""

    @property
    def table_entries(self) -> int:
        return int(self.table.size)

    def build_request(self, keys: KeySource) -> EvalRequest:
        """Wrap a key batch in a request, validating it against the table.

        The serving-loop adapter hook: :class:`~repro.serve.AsyncPirServer`
        validates every arriving query through this method (so
        malformed batches fail at submission) and later merges the
        per-query requests into one fused :class:`EvalRequest`.

        Raises:
            ValueError: On malformed keys, a domain/table mismatch, a
                PRF mismatch, or a batch larger than ``max_batch``.
        """
        request = EvalRequest(keys=keys, prf_name=self.prf_name)
        if request.arena().domain_size != self.table_entries:
            raise ValueError(
                f"query keys address a domain of {request.arena().domain_size} "
                f"entries but this server's table has {self.table_entries}"
            )
        if self.max_batch is not None and request.arena().batch > self.max_batch:
            raise ValueError(
                f"query batch of {request.arena().batch} keys exceeds this "
                f"server's max_batch of {self.max_batch}"
            )
        return request

    def combine(
        self, shares: np.ndarray, lo: int = 0, hi: int | None = None
    ) -> np.ndarray:
        """The dot product of rows ``[lo, hi)`` mod 2^64 — uint64
        wrap-around is the ring.  The one place the combine lives, and
        the server's :data:`~repro.gpu.strategies.Reducer`: ``shares``
        is the ``(B, hi - lo)`` shares of those rows (the whole table by
        default); matmul reduces without materializing the product
        array."""
        return shares @ self.table[lo:hi]

    def answer_shares(self, keys: KeySource) -> np.ndarray:
        """Answer one key batch; ``(B,)`` uint64 shares in key order.

        ``keys`` may be an arena, key objects, or concatenated wire
        bytes; the wire form is the serving hot path (one vectorized
        parse, zero per-key objects).  Answered against the current
        epoch through :meth:`answer_request`, the one dispatch path, so
        a sharded server fans out and fails over here too.
        """
        return self.answer_request(self.build_request(keys), epoch=self.epoch)

    def ingest_query(self, query: PirQuery) -> EvalRequest:
        """Ingest and validate one parsed query's key payload.

        The expensive half of query validation (arena ingestion plus
        domain/PRF/count checks), separated from the cheap frame parse
        so the async serving loop can admission-check on the frame
        header *before* paying for ingestion of a query it may shed.

        Raises:
            ValueError: On malformed keys, a key batch that does not
                match the frame's declared count, a domain/table
                mismatch, a PRF mismatch, or an oversized batch.
        """
        request = self.build_request(query.key_bytes)
        # Reject a lying count before paying for the O(B*L) evaluation.
        if request.arena().batch != query.count:
            raise ValueError(
                f"query frame declares {query.count} keys but the payload "
                f"carries {request.arena().batch}"
            )
        return request

    def parse_query(self, request_bytes: bytes) -> tuple[PirQuery, EvalRequest]:
        """Validate one framed query end to end, without evaluating it.

        Raises:
            ValueError: On a malformed frame, a key batch that does not
                match the frame's declared count, a domain/table
                mismatch, a PRF mismatch, or an oversized batch.
        """
        query = PirQuery.from_bytes(request_bytes)
        return query, self.ingest_query(query)

    def check_epoch(self, epoch: int) -> None:
        """Validate that this server can answer a query pinned to ``epoch``.

        The unversioned server holds exactly one table version, so any
        other epoch is unanswerable — answering it from the only table
        would silently violate the pin the epoch field exists to
        enforce.  :class:`~repro.serve.shard.ShardedPirServer` overrides
        this with registry semantics (retained window, typed
        :class:`~repro.serve.shard.EpochRetired`).

        Raises:
            ValueError: If ``epoch`` is not the epoch this server serves.
        """
        if epoch != self.epoch:
            raise ValueError(
                f"query is pinned to table epoch {epoch} but this server "
                f"serves only epoch {self.epoch}"
            )

    def answer_request(
        self,
        request: EvalRequest,
        epoch: int = 0,
        sizes: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Answer one validated request against ``epoch``'s table.

        The batch-level serving hook both :meth:`handle` and the async
        loop's fused flush dispatch through — the *one* overridable
        seam, so a :class:`~repro.serve.shard.ShardedPirServer` slots
        under either entry point by overriding this method alone.

        Args:
            request: A request this server validated
                (:meth:`build_request` / :meth:`ingest_query`).
            epoch: The table epoch the querying client pinned.
            sizes: When ``request`` is a fused merge, its constituents'
                batch sizes (what :meth:`~repro.exec.EvalRequest.merge`
                returned).  Ignored here — a single backend runs the
                fused batch whole — but the sharded override uses it as
                the failover granularity (un-merge on replica death, so
                survivors keep seniority).

        Returns:
            ``(B,)`` uint64 answer shares in request key order.
        """
        self.check_epoch(epoch)
        # Looked up per dispatch, not at construction: a subclass or an
        # instrumenting wrapper that replaces ``combine`` is honoured.
        request = replace(request, reduce=self.combine)
        if self.plan_cache is not None:
            return self.plan_cache.run(self.backend, request)
        return self.backend.run(request)

    def handle(self, request_bytes: bytes) -> bytes:
        """Serve one framed request: query frame in, reply frame out.

        The reply echoes the query's epoch: the client's reconstruction
        cross-checks that both servers answered from the table version
        the query was generated against.

        Raises:
            ValueError: On a malformed frame, a key batch that does not
                match the frame's declared count, a domain/table
                mismatch, a PRF mismatch, an oversized batch, or an
                epoch this server does not serve.
        """
        query, request = self.parse_query(request_bytes)
        answers = self.answer_request(request, epoch=query.epoch)
        return PirReply(
            request_id=query.request_id, answers=answers, epoch=query.epoch
        ).to_bytes()

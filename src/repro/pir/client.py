"""The PIR client: query generation and answer reconstruction.

The client side of the paper's protocol is cheap by construction
(Figure 3): a key costs ``O(log L)`` PRF blocks, and reconstruction is
one ring addition per query.  :class:`PirClient` batches both.  All the
indices of a call walk the GGM tree together
(:func:`repro.dpf.dpf.gen_batch` through
:meth:`repro.gpu.arena.KeyArena.generate`): one PRF call per tree level
however many keys there are, and the keys go from arrays to wire bytes
without a per-key object.  One :meth:`~PirClient.query` call turns a
set of secret indices into the two framed request buffers (one per
non-colluding server), :meth:`~PirClient.query_many` cuts many requests
out of one walk, and :meth:`~PirClient.reconstruct` combines the two
reply frames into the retrieved table entries —
``share_0 + share_1 (mod 2^64)``, which telescopes to ``table[alpha]``
because the servers' expansion shares sum to the one-hot vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.crypto.prf import Prf, get_prf
from repro.dpf.keys import DpfKey
from repro.gpu.arena import KeyArena
from repro.pir.wire import PirQuery, PirReply


def _as_index_list(indices: Sequence[int] | int | np.ndarray) -> list[int]:
    """One normalization point for every accepted index form."""
    if isinstance(indices, (int, np.integer)):
        return [int(indices)]
    index_list = [int(i) for i in indices]
    if not index_list:
        raise ValueError("need at least one query index")
    return index_list


@dataclass(frozen=True)
class QueryBatch:
    """One issued query batch: what to send and how to match replies.

    Attributes:
        request_id: Correlation id embedded in both request frames.
        indices: The secret indices, in answer order (client-side only;
            never serialized).
        requests: The two framed request buffers — ``requests[p]`` goes
            to server ``p``.
        epoch: Table epoch both frames are pinned to;
            :meth:`PirClient.reconstruct` rejects replies answered from
            any other epoch.
    """

    request_id: int
    indices: tuple[int, ...]
    requests: tuple[bytes, bytes]
    epoch: int = 0

    @property
    def batch_size(self) -> int:
        return len(self.indices)


class PirClient:
    """Issues private queries against a replicated two-server table.

    Args:
        table_entries: Table size L both servers hold.
        prf: PRF (instance or registry name) shared with the servers.
        rng: Source of key-generation randomness (default: a fresh
            OS-seeded generator; pass a seeded one for reproducibility).
        epoch: Table epoch to pin queries to (the version the client
            last learned the servers publish).  A server mid-update
            answers from exactly this version or fails typed —
            reconstruction never mixes table versions.  Mutable: bump
            it when the serving side announces a flip.
    """

    def __init__(
        self,
        table_entries: int,
        prf: Prf | str = "aes128",
        rng: np.random.Generator | None = None,
        epoch: int = 0,
    ):
        if table_entries <= 0:
            raise ValueError(f"table_entries must be positive, got {table_entries}")
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        self.table_entries = table_entries
        self.prf = get_prf(prf) if isinstance(prf, str) else prf
        self.rng = rng if rng is not None else np.random.default_rng()
        self.epoch = epoch
        self._next_request_id = 0

    def _generate(self, index_list: list[int]) -> tuple[KeyArena, KeyArena]:
        """One tree walk for every index; raises before ``rng`` is drawn from."""
        return KeyArena.generate(index_list, self.table_entries, self.prf, self.rng)

    def _frame(self, indices: list[int], wires: tuple[bytes, bytes]) -> QueryBatch:
        """Frame one request's two key buffers under the next request id."""
        request_id = self._next_request_id
        self._next_request_id += 1
        requests = tuple(
            PirQuery(
                request_id=request_id,
                count=len(indices),
                key_bytes=wire,
                epoch=self.epoch,
            ).to_bytes()
            for wire in wires
        )
        return QueryBatch(
            request_id=request_id,
            indices=tuple(indices),
            requests=requests,
            epoch=self.epoch,
        )

    def generate_keys(
        self, indices: Sequence[int] | int | np.ndarray
    ) -> tuple[list[DpfKey], list[DpfKey]]:
        """The raw key pairs for a batch of secret indices.

        Returns:
            ``(keys_0, keys_1)`` — key ``i`` of each list encodes
            ``f(indices[i]) = 1``; list ``p`` goes to server ``p``.
            This is the object-ingest form; :meth:`query` frames the
            same keys for the wire without building the objects.
        """
        arena_0, arena_1 = self._generate(_as_index_list(indices))
        return arena_0.to_keys(), arena_1.to_keys()

    def query(self, indices: Sequence[int] | int | np.ndarray) -> QueryBatch:
        """Build the two framed request buffers for a batch of indices.

        Both frames are pinned to the client's current :attr:`epoch`.
        A bad index raises before any randomness or request id is used.
        """
        indices = _as_index_list(indices)
        arenas = self._generate(indices)
        return self._frame(indices, tuple(arena.to_wire() for arena in arenas))

    def query_many(
        self,
        indices: Sequence[int] | np.ndarray,
        queries_per_request: int = 1,
    ) -> list[QueryBatch]:
        """Build many independent framed request pairs in one call.

        Where :meth:`query` models one client sending one batch,
        ``query_many`` models a *population* of concurrent clients:
        each group of ``queries_per_request`` consecutive indices
        becomes its own :class:`QueryBatch` with its own correlation id
        and wire frames (a trailing short group keeps the remainder).
        This is what the serving load generator fires at the async
        batch-aggregation loop.

        Every index's keys come out of one tree walk, and the requests
        are cut from its wire buffer; the frames are byte-identical to
        calling :meth:`query` once per group.

        Args:
            indices: Secret indices, split into per-request groups in
                order.
            queries_per_request: Indices per generated request (>= 1).

        Raises:
            ValueError: On an empty index list, an out-of-range index or
                a non-positive group size — in every case before any
                randomness or request id is used.
        """
        index_list = _as_index_list(indices)
        if queries_per_request <= 0:
            raise ValueError(
                f"queries_per_request must be positive, got {queries_per_request}"
            )
        wires = [arena.to_wire() for arena in self._generate(index_list)]
        record = len(wires[0]) // len(index_list)
        batches = []
        for start in range(0, len(index_list), queries_per_request):
            stop = start + queries_per_request
            batches.append(
                self._frame(
                    index_list[start:stop],
                    tuple(wire[start * record : stop * record] for wire in wires),
                )
            )
        return batches

    def reconstruct(
        self,
        batch: QueryBatch,
        reply_0: bytes | PirReply,
        reply_1: bytes | PirReply,
    ) -> np.ndarray:
        """Combine the two servers' replies into the table entries.

        Returns:
            ``(B,)`` uint64 — ``result[i] == table[batch.indices[i]]``.

        Raises:
            ValueError: On a malformed reply frame, a correlation-id
                mismatch, a reply answered from a different table epoch
                than the batch was pinned to, or replies whose answer
                counts disagree with the batch.
        """
        replies = []
        for raw in (reply_0, reply_1):
            reply = PirReply.from_bytes(raw) if isinstance(raw, bytes) else raw
            if reply.request_id != batch.request_id:
                raise ValueError(
                    f"reply correlates to request {reply.request_id}, "
                    f"expected {batch.request_id}"
                )
            if reply.epoch != batch.epoch:
                raise ValueError(
                    f"reply was answered from table epoch {reply.epoch} but "
                    f"the query was pinned to epoch {batch.epoch}; shares "
                    f"from different table versions must not be combined"
                )
            if reply.answers.shape != (batch.batch_size,):
                raise ValueError(
                    f"reply carries {reply.answers.size} answers for a batch "
                    f"of {batch.batch_size} queries"
                )
            replies.append(reply)
        # Additive share combine in Z_{2^64}; uint64 wrap-around is the ring.
        return (replies[0].answers + replies[1].answers).astype(np.uint64)

"""Request-oriented types shared by every execution backend.

* :class:`EvalRequest` — what a caller wants evaluated: key material in
  any accepted form (:data:`~repro.gpu.arena.KeySource`), an optional
  row range and an optional reducer.  A backend's ``run`` returns its
  answers as one array: the ``(B, hi - lo)`` share matrix, or, for a
  request that carries a reducer, the ``(B,)`` reduced answers.
* :class:`ExecutionPlan` — what a backend would do for the request and
  what the performance model predicts for it: one device's scheduler
  :class:`~repro.gpu.scheduler.Selection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.gpu.arena import KeyArena, KeySource
from repro.gpu.scheduler import Selection
from repro.gpu.strategies import Reducer, resolve_range


@dataclass
class EvalRequest:
    """One batch-evaluation request against a replicated table.

    Attributes:
        keys: Key material — an already-built :class:`KeyArena`, a
            sequence of :class:`~repro.dpf.keys.DpfKey` objects, or
            concatenated wire bytes (:func:`repro.dpf.keys.pack_keys`
            output).  Ingestion happens once, on first use, through
            :meth:`KeyArena.ingest`.
        prf_name: PRF the evaluator must use.  ``None`` means "whatever
            the keys were generated for"; a non-``None`` value that
            mismatches the keys raises at ingestion.
        eval_range: Optional ``(lo, hi)`` sub-domain restriction — the
            sharded-serving hook.  When set, ``run`` returns a
            ``(B, hi - lo)`` share matrix covering table rows
            ``[lo, hi)`` only, bit-identical to columns ``lo:hi`` of
            the unrestricted expansion; a shard server holding rows
            ``[lo, hi)`` dots that directly with its table slice.
            Every backend computes it with a walk pruned to the range
            (:meth:`Strategy.eval_batch <repro.gpu.strategies.Strategy
            .eval_batch>`'s node window, or the per-key reference
            :func:`repro.dpf.dpf.eval_range`), whose work
            :meth:`Strategy.cost <repro.gpu.strategies.Strategy.cost>`
            counts.  ``plan`` — strategy selection and the modeled
            ``KernelPlan`` latency — still prices the full tree: a
            range-aware device model is future work.
        reduce: Optional reducer (:data:`~repro.gpu.strategies.Reducer`,
            ``reduce(shares, lo, hi)`` — for a PIR server
            ``shares @ table[lo:hi]``).  When set, ``run`` hands it the
            shares of rows ``[lo, hi)`` window by window and returns
            the sum mod 2^64 of what it returned, ``(B,)`` or
            ``(B, W)``, instead of the matrix; see
            :meth:`Strategy.eval_batch <repro.gpu.strategies.Strategy
            .eval_batch>` for who reduces when.  Its presence is the
            only switch: planning and pricing do not look at it.  Row
            indices are the table's, so :meth:`restrict`,
            :meth:`merge` and :meth:`unmerge` carry it along unchanged.
            Excluded from ``repr``/comparison, like ``traces``.
        traces: Optional per-constituent trace contexts
            (:class:`repro.obs.trace.TraceContext`), one slot per
            merge constituent — ``None`` (the default, and the
            disabled-tracing fast path) means untraced.  A request
            fresh from a client carries one slot; :meth:`merge`
            concatenates the constituents' slots so deep layers
            (shard fan-out, replica failover) can annotate exactly
            the queries they acted on via
            :func:`repro.obs.trace.annotate_request`, and
            :meth:`unmerge` hands each slice its own slot back.
            Excluded from ``repr``/comparison — tracing never changes
            what a request *is*.
    """

    keys: KeySource
    prf_name: str | None = None
    eval_range: tuple[int, int] | None = None
    reduce: Reducer | None = field(default=None, repr=False, compare=False)
    traces: tuple | None = field(default=None, repr=False, compare=False)
    _arena: KeyArena | None = field(default=None, repr=False, compare=False)

    def arena(self) -> KeyArena:
        """The request's keys as a :class:`KeyArena`, ingested once.

        Repeated calls (``plan`` then ``run``, or several backends
        planning the same request) reuse the first ingestion — the wire
        parse or object stacking is never repeated.
        """
        if self._arena is None:
            self._arena = KeyArena.ingest(self.keys, prf_name=self.prf_name)
        return self._arena

    @property
    def resolved_prf_name(self) -> str:
        """The PRF evaluation will use (explicit hint or the keys')."""
        return self.prf_name if self.prf_name is not None else self.arena().prf_name

    def resolved_range(self) -> tuple[int, int]:
        """The ``[lo, hi)`` rows evaluation covers, validated.

        ``eval_range=None`` resolves to the full domain.

        Raises:
            ValueError: If the range is empty, inverted, or falls
                outside the keys' domain.
        """
        return resolve_range(self.arena().domain_size, self.eval_range)

    def reduced(self, shares: np.ndarray) -> np.ndarray:
        """``shares`` as this request's answers: reduced once, if asked.

        For the backends that materialise the whole ``(B, hi - lo)``
        matrix of :meth:`resolved_range` whatever the request says (the
        reference walks): the reducer sees it as one window.
        """
        if self.reduce is None:
            return shares
        return self.reduce(shares, *self.resolved_range())

    def restrict(self, lo: int, hi: int) -> "EvalRequest":
        """A copy of this request restricted to table rows ``[lo, hi)``.

        The copy shares the ingested arena (zero-copy — ingestion is
        never repeated), so a sharded front-end can fan one merged
        request out to N shard replicas as N restricted requests for
        the cost of N small objects.
        """
        request = EvalRequest(
            keys=self.arena(),
            prf_name=self.prf_name,
            eval_range=(lo, hi),
            reduce=self.reduce,
            traces=self.traces,
            _arena=self.arena(),
        )
        request.resolved_range()
        return request

    @classmethod
    def merge(
        cls, requests: Sequence["EvalRequest"]
    ) -> tuple["EvalRequest", tuple[int, ...]]:
        """Fuse several requests into one kernel-sized batch request.

        This is what turns N concurrent clients' queries into the one
        fused expansion the paper's serving throughput comes from: the
        requests' arenas concatenate in order
        (:meth:`KeyArena.concat`), so row ranges of the merged answers
        map back to the original requests by offset.

        Args:
            requests: Non-empty sequence of requests over the same
                domain, PRF, ``eval_range`` and reducer.

        Returns:
            ``(merged, sizes)`` — the fused request plus each
            constituent's batch size, in order (``sizes[i]`` rows of the
            merged answers belong to ``requests[i]``).

        Raises:
            ValueError: On an empty sequence, mismatched
                PRF/``eval_range``/``reduce`` settings, or arenas whose
                domains disagree.
        """
        if not requests:
            raise ValueError("need at least one request to merge")
        first = requests[0]
        for request in requests[1:]:
            if request.resolved_prf_name != first.resolved_prf_name:
                raise ValueError(
                    "cannot merge requests with different PRFs "
                    f"({request.resolved_prf_name!r} vs {first.resolved_prf_name!r})"
                )
            if request.eval_range != first.eval_range:
                raise ValueError(
                    "cannot merge requests with different eval_range "
                    f"restrictions ({request.eval_range} vs {first.eval_range})"
                )
            if request.reduce != first.reduce:
                raise ValueError("cannot merge requests with different reducers")
        arenas = [request.arena() for request in requests]
        # One trace slot per constituent: a single-query request
        # contributes its context, anything else (untraced, or itself
        # already merged) contributes None — never misattributed.
        trace_slots = tuple(
            request.traces[0]
            if request.traces is not None and len(request.traces) == 1
            else None
            for request in requests
        )
        merged = cls(
            keys=KeyArena.concat(arenas),
            prf_name=first.prf_name,
            eval_range=first.eval_range,
            reduce=first.reduce,
            traces=trace_slots if any(t is not None for t in trace_slots) else None,
        )
        return merged, tuple(arena.batch for arena in arenas)

    @classmethod
    def unmerge(
        cls, merged: "EvalRequest", sizes: Sequence[int]
    ) -> list["EvalRequest"]:
        """Split a fused request back into its constituent requests.

        The inverse of :meth:`merge`, and the retry path's workhorse: a
        backend failure poisons the *fused* batch, but each constituent
        is individually retryable, so the serving loop un-merges the
        batch and requeues the survivors.  Each returned request wraps
        a zero-copy slice of the merged arena (ingestion is never
        repeated) and inherits the merged PRF, range and reducer —
        re-merging the pieces reproduces the original batch bit for bit.

        Args:
            merged: A request produced by :meth:`merge` (or any request
                whose arena covers ``sum(sizes)`` keys).
            sizes: The per-constituent batch sizes :meth:`merge`
                returned, in order.

        Raises:
            ValueError: If ``sizes`` is empty, contains a non-positive
                size, or does not sum to the merged arena's batch.
        """
        arena = merged.arena()
        if not sizes:
            raise ValueError("need at least one slice size")
        if any(size <= 0 for size in sizes):
            raise ValueError(f"slice sizes must be positive, got {tuple(sizes)}")
        if sum(sizes) != arena.batch:
            raise ValueError(
                f"slice sizes sum to {sum(sizes)} but the merged arena "
                f"carries {arena.batch} keys"
            )
        # Hand each slice its own trace slot back — but only when the
        # merged slots align 1:1 with the requested slices (they always
        # do on the serving loop's unmerge path; any other split gets
        # untraced slices rather than misattributed contexts).
        slots: Sequence = (
            merged.traces
            if merged.traces is not None and len(merged.traces) == len(sizes)
            else (None,) * len(sizes)
        )
        requests = []
        offset = 0
        for size, slot in zip(sizes, slots):
            requests.append(
                cls(
                    keys=arena[offset : offset + size],
                    prf_name=merged.prf_name,
                    eval_range=merged.eval_range,
                    reduce=merged.reduce,
                    traces=(slot,) if slot is not None else None,
                )
            )
            offset += size
        return requests


@dataclass(frozen=True)
class ExecutionPlan:
    """A backend's priced decision for one :class:`EvalRequest`.

    Attributes:
        backend: Name of the backend that produced the plan.
        selection: The device scheduler's decision — the winning
            strategy, its kernel plan and its simulated statistics.
    """

    backend: str
    selection: Selection

    @property
    def strategies(self) -> tuple[str]:
        """The winning strategy's name, as a one-tuple."""
        return (self.selection.strategy,)

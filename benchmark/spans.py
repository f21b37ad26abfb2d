"""Spans recorded from outside the program, around calls into each layer.

For the length of a traced phase the layers' public callables are
replaced, on the concrete class, by wrappers that time the call and note
which wrapped call enclosed it.  Nothing under ``src/`` changes; every
attribute is put back in ``finally``, also when the phase raises.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.crypto.prf import get_prf
from repro.exec import EvalRequest, PlanCache, SingleGpuBackend
from repro.gpu import KeyArena, available_strategies, get_strategy
from repro.pir import PirClient, PirQuery, PirReply, PirServer
from repro.serve import ReplicaSet, ShardedPirServer

_MISSING = object()


@dataclass(frozen=True)
class SpanRecord:
    """One wrapped call.

    ``parent`` is the index of the enclosing open span on the same
    thread (-1 for a root) and ``batch`` the index of its root, which
    all spans of one dispatched batch or one ``handle`` call share.
    ``units`` is the work the call did, in the unit its target names
    (cipher blocks, keys), and 0 where no unit applies.
    """

    name: str
    start_s: float
    end_s: float
    parent: int
    batch: int
    units: int

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def _blocks_pair(args, result) -> int:
    return 2 * int(args[1].shape[0])


def _blocks_single(args, result) -> int:
    return int(args[1].shape[0])


def _keys_parsed(args, result) -> int:
    return int(result.batch)


def _rows(args, result) -> int:
    return int(result.shape[0])


def targets(prf_name: str) -> list[tuple[type, str, str, Callable | None]]:
    """``(class, attribute, span name, units)`` for every wrapped callable."""
    prf_class = type(get_prf(prf_name))
    wrapped = [
        (PirQuery, "from_bytes", "pir.parse", None),
        (PirServer, "ingest_query", "pir.ingest", None),
        (KeyArena, "from_wire", "gpu.from_wire", _keys_parsed),
        (EvalRequest, "merge", "exec.merge", None),
        (PirServer, "handle", "pir.handle", None),
        (PirServer, "answer_request", "pir.answer", _rows),
        (ShardedPirServer, "answer_request", "pir.answer", _rows),
        (ReplicaSet, "answer", "serve.shard_answer", None),
        (SingleGpuBackend, "run", "exec.run", None),
        (SingleGpuBackend, "plan", "exec.plan", None),
        (PlanCache, "run", "exec.plan_cache_run", None),
        (prf_class, "expand_pair_stacked", "crypto.cipher", _blocks_pair),
        (prf_class, "expand", "crypto.cipher", _blocks_single),
        (PirServer, "combine", "pir.combine", None),
        (PirReply, "to_bytes", "pir.frame_reply", None),
        (PirClient, "reconstruct", "pir.reconstruct", None),
    ]
    for name in available_strategies():
        wrapped.append(
            (type(get_strategy(name)), "eval_batch", "gpu.eval_batch", _rows)
        )
    return wrapped


class SpanRecorder:
    """Installs the wrappers and keeps what they record, in memory."""

    def __init__(self):
        self._raw: list[tuple | None] = []
        self._local = threading.local()

    def _wrap(self, fn: Callable, name: str, units: Callable | None) -> Callable:
        raw = self._raw
        local = self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(raw)
            raw.append(None)  # a child must find its parent's index taken
            parent = stack[-1] if stack else -1
            stack.append(index)
            done = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    done = units(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                raw[index] = (name, start, end, parent, done)

        return wrapper

    @contextmanager
    def installed(self, prf_name: str) -> Iterator["SpanRecorder"]:
        """Wrap every target; restore every attribute on the way out."""
        saved: list[tuple[type, str, object]] = []
        try:
            for owner, attr, name, units in targets(prf_name):
                original = owner.__dict__.get(attr, _MISSING)
                saved.append((owner, attr, original))
                inherited = getattr(owner, attr)
                if isinstance(original, classmethod):
                    replacement = classmethod(
                        self._wrap(original.__func__, name, units)
                    )
                else:
                    replacement = self._wrap(inherited, name, units)
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def records(self) -> list[SpanRecord]:
        """Finished spans in begin order, parents before children."""
        records: list[SpanRecord] = []
        for index, raw in enumerate(self._raw):
            name, start, end, parent, units = raw
            batch = records[parent].batch if parent >= 0 else index
            records.append(SpanRecord(name, start, end, parent, batch, units))
        return records


@dataclass
class LayerTotals:
    """One span name's totals over a phase."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0


def self_times(records: list[SpanRecord]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Calls on one thread nest and never overlap, so the children's
    coverage is the sum of their durations.
    """
    own = [record.duration_s for record in records]
    for record in records:
        if record.parent >= 0:
            own[record.parent] -= record.duration_s
    return own


def totals_by_name(records: list[SpanRecord]) -> dict[str, LayerTotals]:
    """Per-name call counts, inclusive time, self time and work units.

    A span nested in a span of its own name (a PRF whose fused pass
    falls back on two single passes) adds self time only, so inclusive
    time, calls and units count the outermost call once.
    """
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for record, own in zip(records, self_times(records)):
        entry = totals[record.name]
        entry.self_s += own
        if record.parent >= 0 and records[record.parent].name == record.name:
            continue
        entry.calls += 1
        entry.total_s += record.duration_s
        entry.units += record.units
    return totals

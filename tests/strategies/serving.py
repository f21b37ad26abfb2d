"""Hypothesis strategies for serving-loop operations.

The stateful tests drive one :class:`~repro.serve.AsyncPirServer`
through submit, cancel, clock-advance and stop rules on an injected
clock, and one :class:`~repro.serve.ReplicaSet` through dispatches
under drawn faults.  These strategies draw each rule's arguments:
which rows a request asks for, how many event-loop turns a caller lets
pass before it cancels, which waiting caller a cancel hits, how far
the clock moves, and which replicas fault during one dispatch.
"""

from __future__ import annotations

from hypothesis import strategies as st


def request_indices(domain: int, max_keys: int = 3) -> st.SearchStrategy[list[int]]:
    """The rows one request asks for: 1 to ``max_keys`` indices."""
    return st.lists(st.integers(0, domain - 1), min_size=1, max_size=max_keys)


def cancel_turns() -> st.SearchStrategy[int | None]:
    """Event-loop turns a caller waits before cancelling (``None``: it
    never does).  Zero cancels before the submission ever runs; small
    values race the loop's wake-up, yield and flush."""
    return st.none() | st.integers(0, 6)


def picks() -> st.SearchStrategy[int]:
    """An index into whatever list a rule chooses from (taken modulo its
    length, so it shrinks toward the first entry)."""
    return st.integers(0, 63)


def clock_steps() -> st.SearchStrategy[float]:
    """How far one rule moves the injected clock.  The serving loop
    waits on nothing timed, so no step may change what it does."""
    return st.sampled_from((0.0, 0.002, 0.01, 0.02))


def fault_patterns(replicas: int) -> st.SearchStrategy[tuple[int | None, ...]]:
    """One dispatch's faults, one entry per replica: ``None`` (it
    answers) or the run of this dispatch from which it faults (1: its
    first run; 2 or 3: after answering one or two constituents of a
    failed-over batch)."""
    return st.tuples(*[st.none() | st.integers(1, 3)] * replicas)

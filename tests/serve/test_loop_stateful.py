"""Stateful test of one serving loop: submit, cancel, advance, stop.

A Hypothesis :class:`RuleBasedStateMachine` drives one
:class:`~repro.serve.AsyncPirServer` through random interleavings of
four rules — submit a request (optionally cancelling it a few
event-loop turns later), cancel a waiting caller, advance the clock,
and stop (drain) then restart — under the default work-conserving
``SloConfig()`` and under a lingering configuration.

Time is one injected clock shared by the loop, its tracer *and* the
event loop itself (:class:`_ManualClockLoop`), so a linger deadline is
a timer on that clock: nothing fires until a rule advances it, and a
failing interleaving replays exactly from its seed.

After every step:

* every finished caller holds a reply bit-identical to the reference
  walk (``eval_full`` of each key dotted with the table), a typed
  failure, or the cancellation the machine itself issued;
* no flush fused more than ``max_batch`` queries;
* the loop's counters balance: every admitted query is answered,
  cancelled, failed or still pending, exactly once.

After each drain, no query is pending, every caller whose submission
ran has finished, and every trace is closed with no span left open.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.crypto import get_prf
from repro.dpf import DpfKey, eval_full, split_wire
from repro.obs import Tracer
from repro.obs.trace import STAGE_MERGE, STATUS_ANSWERED, chain_problems
from repro.pir import PirClient, PirQuery, PirReply, PirServer
from repro.serve import AsyncPirServer, PirServerOverloaded
from tests.strategies import (
    SLO_CONFIGS,
    STATEFUL_SETTINGS,
    cancel_turns,
    clock_steps,
    picks,
    request_indices,
)

DOMAIN = 32
PRF = "siphash"
TURNS = 12
"""Event-loop turns each rule lets run: enough for a submission to be
admitted, fused, dispatched and delivered to its caller."""


class _ManualClock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _ManualClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose timers run on the manual clock, so a linger
    deadline fires exactly when a rule advances past it."""

    def __init__(self, clock: _ManualClock):
        super().__init__()
        self._manual_clock = clock

    def time(self) -> float:
        return self._manual_clock()


def _reference_answers(table: np.ndarray, frame: bytes) -> np.ndarray:
    """One party's answer shares by the reference walk: each key's full
    ``eval_full`` expansion dotted with the table."""
    prf = get_prf(PRF)
    keys = [
        DpfKey.from_bytes(record)
        for record in split_wire(PirQuery.from_bytes(frame).key_bytes)
    ]
    return np.array(
        [np.sum(eval_full(key, prf) * table, dtype=np.uint64) for key in keys],
        dtype=np.uint64,
    )


class _Caller:
    """One submitted request and what became of it."""

    def __init__(self, frame: bytes, keys: int):
        self.frame = frame
        self.keys = keys
        self.started = False
        self.cancel_requested = False
        self.outcomes: list[tuple[str, object]] = []
        self.task: asyncio.Task | None = None


class ServingLoopMachine(RuleBasedStateMachine):
    """One serving loop on a manual clock; subclasses pick the SLO."""

    slo_name = "zero_linger"

    def __init__(self):
        super().__init__()
        self.clock = _ManualClock()
        self.loop = _ManualClockLoop(self.clock)
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 1 << 64, size=DOMAIN, dtype=np.uint64)
        self.client = PirClient(DOMAIN, PRF, rng=np.random.default_rng(1))
        self.slo = SLO_CONFIGS[self.slo_name]
        self.tracer = Tracer(clock=self.clock)
        self.server = AsyncPirServer(
            PirServer(self.table, prf_name=PRF),
            slo=self.slo,
            clock=self.clock,
            tracer=self.tracer,
        )
        self.callers: list[_Caller] = []
        self.cancellers: list[asyncio.Task] = []
        self.traces = []

    # -- driving -------------------------------------------------------

    def _turns(self, count: int = TURNS) -> None:
        async def spin():
            for _ in range(count):
                await asyncio.sleep(0)

        self.loop.run_until_complete(spin())

    async def _call(self, caller: _Caller) -> None:
        caller.started = True
        try:
            reply = await self.server.submit(caller.frame)
        except asyncio.CancelledError:
            caller.outcomes.append(("cancelled", None))
            raise
        except (PirServerOverloaded, ValueError) as exc:
            caller.outcomes.append(("failed", exc))
        else:
            caller.outcomes.append(("answered", reply))

    async def _cancel_after(self, caller: _Caller, turns: int) -> None:
        for _ in range(turns):
            await asyncio.sleep(0)
        caller.cancel_requested = True
        caller.task.cancel()

    def _waiting(self) -> list[_Caller]:
        return [c for c in self.callers if not c.task.done()]

    # -- rules ---------------------------------------------------------

    @initialize()
    def start(self):
        self.loop.run_until_complete(self.server.start())

    @rule(indices=request_indices(DOMAIN), cancel_after=cancel_turns())
    def submit(self, indices, cancel_after):
        batch = self.client.query(indices)
        caller = _Caller(batch.requests[0], len(indices))
        caller.task = self.loop.create_task(self._call(caller))
        self.callers.append(caller)
        if cancel_after is not None:
            self.cancellers.append(
                self.loop.create_task(self._cancel_after(caller, cancel_after))
            )
        self._turns()

    @precondition(lambda self: self._waiting())
    @rule(pick=picks())
    def cancel(self, pick):
        waiting = self._waiting()
        caller = waiting[pick % len(waiting)]
        caller.cancel_requested = True
        caller.task.cancel()
        self._turns()

    @rule(step=clock_steps())
    def advance(self, step):
        self.clock.now += step
        self._turns()

    @rule()
    def stop_and_restart(self):
        self._drain()
        self.loop.run_until_complete(self.server.start())

    def _drain(self) -> None:
        self.loop.run_until_complete(self.server.stop())
        self._turns()
        assert self.server.pending_queries == 0
        for caller in self.callers:
            if caller.started:
                assert caller.task.done(), "a submitted caller outlived the drain"
        for canceller in self.cancellers:
            assert canceller.done() and canceller.exception() is None
        self.traces.extend(self.tracer.drain())
        started = sum(caller.started for caller in self.callers)
        assert len(self.traces) == started, "a submitted query left its trace open"
        for trace in self.traces:
            assert trace.open_spans() == []
            if trace.status == STATUS_ANSWERED:
                assert chain_problems(trace) == []

    def teardown(self):
        try:
            self._drain()
            self._check_callers()
            self._check_counters()
        finally:
            self.loop.close()

    # -- invariants ----------------------------------------------------

    @invariant()
    def replies_are_bit_exact_or_typed_exactly_once(self):
        self._check_callers()

    def _check_callers(self):
        for caller in self.callers:
            assert len(caller.outcomes) <= 1, caller.outcomes
            if not caller.task.done():
                continue
            if not caller.started:
                # Cancelled before its submission ever ran.
                assert caller.cancel_requested and caller.outcomes == []
                continue
            assert len(caller.outcomes) == 1
            kind, value = caller.outcomes[0]
            if kind == "answered":
                answers = PirReply.from_bytes(value).answers
                assert np.array_equal(
                    answers, _reference_answers(self.table, caller.frame)
                )
            elif kind == "cancelled":
                assert caller.cancel_requested
            else:
                assert isinstance(value, (PirServerOverloaded, ValueError))

    @invariant()
    def no_flush_exceeds_max_batch(self):
        assert self.server.stats.largest_batch <= self.slo.max_batch
        for trace in self.traces + self.tracer.finished:
            for span in trace.spans:
                if span.name == STAGE_MERGE:
                    assert span.annotations["queries"] <= self.slo.max_batch

    @invariant()
    def counters_balance(self):
        self._check_counters()

    def _check_counters(self):
        stats = self.server.stats
        assert stats.submitted == (
            stats.answered + stats.cancelled + stats.failed
            + self.server.pending_queries
        )
        answered_keys = sum(
            c.keys for c in self.callers if c.outcomes[:1] and c.outcomes[0][0] == "answered"
        )
        cancelled_keys = sum(
            c.keys for c in self.callers if c.outcomes[:1] and c.outcomes[0][0] == "cancelled"
        )
        # A cancel that lands after the reply was set but before the
        # caller resumed is answered server-side, cancelled caller-side.
        assert answered_keys <= stats.answered <= answered_keys + cancelled_keys


class LingeringLoopMachine(ServingLoopMachine):
    slo_name = "linger"


TestZeroLingerLoop = ServingLoopMachine.TestCase
TestZeroLingerLoop.settings = STATEFUL_SETTINGS
TestLingeringLoop = LingeringLoopMachine.TestCase
TestLingeringLoop.settings = STATEFUL_SETTINGS


@pytest.mark.parametrize("slo_name", sorted(SLO_CONFIGS))
def test_manual_clock_holds_a_linger_until_advanced(slo_name):
    """The harness itself: a lone query under a positive linger waits
    for the clock, and under the default it does not."""
    machine = type("M", (ServingLoopMachine,), {"slo_name": slo_name})()
    try:
        machine.start()
        machine.submit([3], None)
        (caller,) = machine.callers
        lingers = machine.slo.max_wait_s > 0
        assert caller.task.done() is not lingers
        machine.advance(machine.slo.max_wait_s)
        assert caller.task.done()
        assert caller.outcomes[0][0] == "answered"
    finally:
        machine.teardown()

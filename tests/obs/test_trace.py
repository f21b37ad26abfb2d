"""Span-chain tracing: lifecycle, chain integrity, the null path.

Everything here runs against an injected fake clock, so span timings
are exact and every assertion is deterministic.  Three properties
carry the observability stack:

* spans/traces record exactly what the clock said, idempotently;
* ``chain_problems`` is a faithful machine-checkable definition of
  "complete, orphan-free span chain" (the acceptance criterion);
* the disabled-mode :data:`NULL_TRACER` honours the same surface
  while recording nothing and attaching nothing to requests.

The trace-threading contract on :class:`~repro.exec.EvalRequest`
(merge contributes only unambiguous single-slot contexts, unmerge
redistributes only on exact 1:1 alignment) is pinned here too —
misattributing a span to the wrong query would be worse than losing
it.
"""

import numpy as np
import pytest

from repro.crypto import get_prf
from repro.dpf import gen
from repro.exec import EvalRequest
from repro.obs import (
    NULL_TRACER,
    REQUIRED_STAGES,
    RETRY_STAGES,
    STAGE_ADMIT,
    STAGE_DEMUX,
    STAGE_DISPATCH,
    STAGE_MERGE,
    STAGE_PLAN,
    STAGE_QUEUE,
    TRACE_OPS_PER_QUERY,
    Tracer,
    annotate_request,
    chain_problems,
)


class FakeClock:
    """Monotonic fake: every read advances by ``step``."""

    def __init__(self, start=100.0, step=1.0):
        self.now = start
        self.step = step

    def __call__(self):
        reading = self.now
        self.now += self.step
        return reading


def _keys(batch, domain=32, prf="siphash", seed=0, party=0):
    prf_obj = get_prf(prf)
    rng = np.random.default_rng(seed)
    return [
        gen(int(rng.integers(0, domain)), domain, prf_obj, rng, beta=i + 1)[party]
        for i in range(batch)
    ]


def _complete_chain(tracer, rounds=1):
    """A well-formed admit -> rounds*(queue/merge/plan/dispatch) ->
    demux chain, closed answered."""
    ctx = tracer.trace(request_id=7)
    ctx.end(ctx.begin(STAGE_ADMIT))
    for _ in range(rounds):
        for stage in RETRY_STAGES:
            ctx.end(ctx.begin(stage))
    ctx.end(ctx.begin(STAGE_DEMUX))
    ctx.close("answered")
    return ctx


class TestSpanLifecycle:
    def test_begin_and_end_read_the_injected_clock(self):
        tracer = Tracer(clock=FakeClock(start=10.0, step=1.0))
        ctx = tracer.trace()
        assert ctx.started_s == 10.0
        span = ctx.begin(STAGE_ADMIT)
        assert span.start_s == 11.0
        ctx.end(span, reason="deadline")
        assert span.end_s == 12.0
        assert span.duration_s == 1.0
        assert span.annotations == {"reason": "deadline"}

    def test_end_is_idempotent(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.trace()
        span = ctx.begin(STAGE_QUEUE)
        ctx.end(span, first=True)
        first_end = span.end_s
        ctx.end(span, second=True)  # must change nothing
        assert span.end_s == first_end
        assert span.annotations == {"first": True}

    def test_open_span_has_zero_duration_and_is_reported_open(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.trace()
        span = ctx.begin(STAGE_MERGE)
        assert span.duration_s == 0.0
        assert ctx.open_spans() == [span]
        ctx.end(span)
        assert ctx.open_spans() == []

    def test_events_carry_their_own_timestamps(self):
        tracer = Tracer(clock=FakeClock(start=0.0))
        ctx = tracer.trace()
        ctx.event("retry", attempt=1)
        ctx.event("failover", shard=2)
        assert ctx.event_names() == ["retry", "failover"]
        assert ctx.events[0] == {"name": "retry", "t": 1.0, "attempt": 1}
        assert ctx.events[1]["shard"] == 2

    def test_close_is_idempotent_and_finishes_once(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.trace()
        ctx.close("answered")
        ctx.close("failed")  # loses: only the first close counts
        assert ctx.status == "answered"
        assert tracer.finished == [ctx]
        assert ctx.duration_s > 0.0

    def test_drain_pops_finished_traces(self):
        tracer = Tracer(clock=FakeClock())
        first, second = tracer.trace(), tracer.trace()
        first.close("answered")
        second.close("shed")
        assert [t.trace_id for t in tracer.drain()] == [
            first.trace_id,
            second.trace_id,
        ]
        assert tracer.drain() == []

    def test_trace_ids_are_unique_and_monotonic(self):
        tracer = Tracer(clock=FakeClock())
        ids = [tracer.trace().trace_id for _ in range(5)]
        assert ids == sorted(set(ids))

    def test_to_dict_round_trips_through_chain_problems(self):
        tracer = Tracer(clock=FakeClock())
        ctx = _complete_chain(tracer)
        assert chain_problems(ctx) == []
        assert chain_problems(ctx.to_dict()) == []


class TestChainProblems:
    def test_complete_single_round_chain_is_whole(self):
        assert chain_problems(_complete_chain(Tracer(clock=FakeClock()))) == []

    def test_retry_rounds_are_allowed_when_balanced(self):
        assert (
            chain_problems(_complete_chain(Tracer(clock=FakeClock()), rounds=3))
            == []
        )

    def test_never_closed_trace_is_flagged(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.trace()
        ctx.end(ctx.begin(STAGE_ADMIT))
        problems = chain_problems(ctx)
        assert any("never closed" in p for p in problems)

    def test_orphaned_span_is_flagged(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.trace()
        ctx.end(ctx.begin(STAGE_ADMIT))
        for stage in RETRY_STAGES:
            ctx.end(ctx.begin(stage))
        ctx.begin(STAGE_DEMUX)  # begun, never ended
        ctx.close("answered")
        problems = chain_problems(ctx)
        assert any("orphaned" in p and "demux" in p for p in problems)

    def test_missing_admit_and_demux_are_flagged(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.trace()
        for stage in RETRY_STAGES:
            ctx.end(ctx.begin(stage))
        ctx.close("answered")
        problems = chain_problems(ctx)
        assert any("admit" in p for p in problems)
        assert any("demux" in p for p in problems)

    def test_admit_must_come_first(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.trace()
        ctx.end(ctx.begin(STAGE_QUEUE))
        ctx.end(ctx.begin(STAGE_ADMIT))
        for stage in (STAGE_MERGE, STAGE_PLAN, STAGE_DISPATCH, STAGE_DEMUX):
            ctx.end(ctx.begin(stage))
        ctx.close("answered")
        assert any(
            "admit is not the first" in p for p in chain_problems(ctx)
        )

    def test_unbalanced_retry_group_is_flagged(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.trace()
        ctx.end(ctx.begin(STAGE_ADMIT))
        for stage in RETRY_STAGES:
            ctx.end(ctx.begin(stage))
        # A second round that drops its plan span — the bug class.
        for stage in (STAGE_QUEUE, STAGE_MERGE, STAGE_DISPATCH):
            ctx.end(ctx.begin(stage))
        ctx.end(ctx.begin(STAGE_DEMUX))
        ctx.close("answered")
        assert any("unbalanced" in p for p in chain_problems(ctx))

    def test_span_outside_the_trace_window_is_flagged(self):
        trace = _complete_chain(Tracer(clock=FakeClock())).to_dict()
        trace["spans"][0]["start_s"] = trace["started_s"] - 5.0
        assert any(
            "outside the trace window" in p for p in chain_problems(trace)
        )

    def test_decreasing_start_times_are_flagged(self):
        trace = _complete_chain(Tracer(clock=FakeClock())).to_dict()
        trace["spans"][2]["start_s"] = trace["spans"][1]["start_s"] - 1.0
        trace["spans"][2]["end_s"] = trace["spans"][2]["start_s"]
        assert any("non-decreasing" in p for p in chain_problems(trace))


class TestNullTracer:
    def test_disabled_flag_and_shared_context(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.trace(request_id=1) is NULL_TRACER.trace()

    def test_every_operation_is_inert(self):
        ctx = NULL_TRACER.trace()
        span = ctx.begin(STAGE_ADMIT)
        ctx.end(span, annotation="dropped")
        ctx.event("retry", attempt=1)
        ctx.close("answered")
        assert ctx.open_spans() == []
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.finished == []

    def test_ops_budget_covers_the_serving_chain_with_retry_headroom(self):
        # One trace() + one close() + a begin/end pair per stage, plus
        # headroom for one retry round — the constant CI prices must
        # actually bound what the loop does.
        base = 2 + 2 * len(REQUIRED_STAGES)
        assert TRACE_OPS_PER_QUERY >= base


class TestAnnotateRequest:
    def test_annotates_every_carried_context_and_skips_none_slots(self):
        tracer = Tracer(clock=FakeClock())
        first, second = tracer.trace(), tracer.trace()
        request = EvalRequest(keys=_keys(2), prf_name="siphash")
        request.traces = (first, None, second)
        annotate_request(request, "failover", shard=1)
        assert first.event_names() == ["failover"]
        assert second.event_names() == ["failover"]
        assert first.events[0]["shard"] == 1

    def test_untraced_request_costs_nothing(self):
        request = EvalRequest(keys=_keys(1), prf_name="siphash")
        assert request.traces is None
        annotate_request(request, "failover")  # must not raise

    def test_object_without_traces_attribute_is_fine(self):
        annotate_request(object(), "retry")  # duck-typed: no-op


class TestRequestTraceThreading:
    """The EvalRequest plumbing that keeps spans attached to the right
    query through fusion, fan-out and retry."""

    def _traced(self, batch, seed, ctx):
        request = EvalRequest(keys=_keys(batch, seed=seed), prf_name="siphash")
        request.traces = (ctx,)
        return request

    def test_merge_collects_one_slot_per_constituent(self):
        tracer = Tracer(clock=FakeClock())
        first, second = tracer.trace(), tracer.trace()
        untraced = EvalRequest(keys=_keys(2, seed=2), prf_name="siphash")
        merged, sizes = EvalRequest.merge(
            [self._traced(1, 0, first), untraced, self._traced(3, 1, second)]
        )
        assert sizes == (1, 2, 3)
        assert merged.traces == (first, None, second)

    def test_merge_of_untraced_requests_stays_untraced(self):
        merged, _ = EvalRequest.merge(
            [EvalRequest(keys=_keys(b, seed=b), prf_name="siphash") for b in (1, 2)]
        )
        assert merged.traces is None

    def test_merge_never_misattributes_a_multi_slot_contribution(self):
        # A constituent already carrying several slots (itself a merge
        # product) is ambiguous — it must contribute None, not a guess.
        tracer = Tracer(clock=FakeClock())
        first, second = tracer.trace(), tracer.trace()
        multi = EvalRequest(keys=_keys(2, seed=0), prf_name="siphash")
        multi.traces = (first, second)
        merged, _ = EvalRequest.merge(
            [multi, self._traced(1, 1, tracer.trace())]
        )
        assert merged.traces[0] is None
        assert merged.traces[1] is not None

    def test_unmerge_redistributes_slots_one_to_one(self):
        tracer = Tracer(clock=FakeClock())
        contexts = [tracer.trace() for _ in range(3)]
        merged, sizes = EvalRequest.merge(
            [self._traced(b, b, ctx) for b, ctx in zip((1, 3, 2), contexts)]
        )
        pieces = EvalRequest.unmerge(merged, sizes)
        assert [p.traces for p in pieces] == [(ctx,) for ctx in contexts]

    def test_unmerge_with_misaligned_slots_drops_rather_than_guesses(self):
        tracer = Tracer(clock=FakeClock())
        merged, sizes = EvalRequest.merge(
            [self._traced(b, b, tracer.trace()) for b in (2, 2)]
        )
        # Re-split 4 keys three ways: no 1:1 alignment with the two
        # carried slots exists, so every piece must come back untraced.
        pieces = EvalRequest.unmerge(merged, (1, 2, 1))
        assert all(p.traces is None for p in pieces)

    def test_restrict_shares_the_trace_tuple(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.trace()
        request = self._traced(2, 0, ctx)
        assert request.restrict(0, 16).traces == (ctx,)

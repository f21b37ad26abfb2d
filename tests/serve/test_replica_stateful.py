"""Stateful test of one replica set's health: dispatch under faults.

A Hypothesis :class:`RuleBasedStateMachine` builds one
:class:`~repro.serve.ReplicaSet` of one to three replicas over a
sub-range of the table, with a drawn ``rejoin_after``, and dispatches
fused batches to it.  Before each dispatch the rule draws which
replicas fault and from which of their runs in that dispatch on
(:func:`~tests.strategies.fault_patterns`), so a replica can die on
the merged batch or halfway through a failed-over one.

After every step:

* at least one replica is in rotation (the set never ejects its last);
* every answer equals the reference walk's partial over the set's
  rows, with each replica that faulted ejected; a dispatch raises only
  when every replica in rotation at its start faulted during it, and
  then all but the last were ejected;
* an ejected replica is back within ``rejoin_after`` dispatches,
  counting the one that ejected it, answered or failed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.crypto import get_prf
from repro.dpf import DpfKey, eval_full, split_wire
from repro.exec import EvalRequest
from repro.pir import PirClient, PirQuery, PirServer
from repro.serve import EJECTED, ReplicaSet
from tests.strategies import (
    BACKEND_FACTORIES,
    STATEFUL_SETTINGS,
    BackendFault,
    FaultPlan,
    FlakyBackend,
    fault_patterns,
    picks,
)

DOMAIN = 32
LO, HI = 5, 27
PRF = "siphash"
MAX_REPLICAS = 3
POOL_KEYS = (1, 2, 1, 3)
"""Keys per request in the pool a dispatch fuses its batch from."""


def _reference_partial(table: np.ndarray, frame: bytes) -> np.ndarray:
    """The partial answer over rows ``[LO, HI)`` by the reference walk."""
    prf = get_prf(PRF)
    keys = [
        DpfKey.from_bytes(record)
        for record in split_wire(PirQuery.from_bytes(frame).key_bytes)
    ]
    return np.array(
        [
            np.sum(eval_full(key, prf)[LO:HI] * table[LO:HI], dtype=np.uint64)
            for key in keys
        ],
        dtype=np.uint64,
    )


class ReplicaHealthMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 1 << 64, size=DOMAIN, dtype=np.uint64)
        client = PirClient(DOMAIN, PRF, rng=np.random.default_rng(1))
        server = PirServer(self.table, prf_name=PRF)
        frames = [
            client.query(list(range(i, i + keys))).requests[0]
            for i, keys in enumerate(POOL_KEYS)
        ]
        self.pool = [server.parse_query(frame)[1] for frame in frames]
        self.oracle = [_reference_partial(self.table, frame) for frame in frames]
        self.set: ReplicaSet | None = None
        self.outcome: tuple | None = None

    @initialize(replicas=st.integers(1, MAX_REPLICAS), rejoin_after=st.integers(1, 3))
    def build(self, replicas, rejoin_after):
        self.backends = [
            FlakyBackend(BACKEND_FACTORIES["single_gpu"](), FaultPlan())
            for _ in range(replicas)
        ]
        self.set = ReplicaSet(0, LO, HI, self.backends, rejoin_after=rejoin_after)
        self.set.install_epoch(0, self.table[LO:HI])
        # Dispatches each replica has sat out since its ejection.
        self.idle = [0] * replicas

    @rule(
        pattern=fault_patterns(MAX_REPLICAS),
        constituents=st.lists(picks(), min_size=1, max_size=3),
    )
    def dispatch(self, pattern, constituents):
        chosen = [c % len(self.pool) for c in constituents]
        merged, sizes = EvalRequest.merge([self.pool[c] for c in chosen])
        for backend, fail_from in zip(self.backends, pattern):
            backend.fault_plan = (
                FaultPlan()
                if fail_from is None
                else FaultPlan.after(backend.runs + fail_from)
            )
        in_rotation = [i for i, state in enumerate(self.set.states()) if state != EJECTED]
        faults_before = [backend.faults for backend in self.backends]
        ejections_before = self.set.stats.ejections
        try:
            answer = self.set.answer(merged, epoch=0, sizes=sizes)
        except BackendFault:
            answer = None
        faulted = {
            i
            for i, backend in enumerate(self.backends)
            if backend.faults > faults_before[i]
        }
        expected = np.concatenate([self.oracle[c] for c in chosen])
        ejected = self.set.stats.ejections - ejections_before
        self.outcome = (answer, expected, in_rotation, faulted, ejected)
        for i, state in enumerate(self.set.states()):
            if state != EJECTED:
                self.idle[i] = 0
            else:
                self.idle[i] = 1 if i in in_rotation else self.idle[i] + 1

    @invariant()
    def a_replica_is_in_rotation(self):
        if self.set is not None:
            assert any(state != EJECTED for state in self.set.states())

    @invariant()
    def answers_are_exact_or_no_sibling_was_left(self):
        if self.outcome is None:
            return
        answer, expected, in_rotation, faulted, ejected = self.outcome
        if answer is not None:
            assert np.array_equal(answer, expected)
            assert ejected == len(faulted)
            return
        # Every replica in rotation faulted, and all but the last were
        # ejected (some may have rejoined as the dispatch ended).
        assert set(in_rotation) <= faulted, "a healthy sibling was left unused"
        assert ejected == len(in_rotation) - 1

    @invariant()
    def ejected_replicas_rejoin_in_time(self):
        if self.set is None:
            return
        for state, idle in zip(self.set.states(), self.idle):
            if state == EJECTED:
                assert idle < self.set.rejoin_after


TestReplicaHealth = ReplicaHealthMachine.TestCase
TestReplicaHealth.settings = STATEFUL_SETTINGS

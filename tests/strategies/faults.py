"""Deterministic fault injection for the serving control plane.

A fused batch concentrates failure: if the backend dies mid-dispatch,
every query in the batch is at risk, so the retry/requeue path is the
part of the serving loop most worth torturing.  :class:`FlakyBackend`
wraps any :class:`~repro.exec.ExecutionBackend` and fails chosen
``run`` calls with :class:`BackendFault` according to a
:class:`FaultPlan` — *deterministically*, so a chaos test that found a
bug replays it exactly:

* :meth:`FaultPlan.nth` — fail specific run invocations (``nth(1)`` is
  fail-once-then-recover, the mid-session backend-kill scenario).
* :meth:`FaultPlan.after` — healthy until run N, dead from then on:
  the replica-kill scenario (the failure persists until the replica is
  ejected, unlike ``nth``'s transient blip); ``after(1)`` is a dead
  backend, every dispatch fails.
* :meth:`FaultPlan.random` — seeded Bernoulli faults for property
  tests that want coverage without choreography.  One plan may be
  shared across several :class:`FlakyBackend` wrappers: each wrapper
  draws from its *own* spawned RNG stream (handed out in wrap order),
  so whether backend A's 3rd run faults never depends on how its calls
  interleave with backend B's — multi-replica chaos replays exactly.

``plan`` always delegates — the *model* of the hardware is intact,
only the execution is flaky, which mirrors a real transient fault.
Nothing under ``src/`` raises or catches :class:`BackendFault`: the
serving loop and the replica sets handle whatever a backend raises.
"""

from __future__ import annotations

import numpy as np

from repro.exec.backend import ExecutionBackend
from repro.exec.request import EvalRequest, ExecutionPlan


class BackendFault(RuntimeError):
    """An injected backend failure (the chaos stand-in for a dead GPU)."""


class FaultPlan:
    """Decides, per ``run`` invocation, whether to inject a fault.

    Construct through the factories (:meth:`nth` / :meth:`after` /
    :meth:`random`); the plan is consulted with the 1-indexed run
    number and answers the same way on every replay.
    """

    def __init__(
        self,
        fail_runs: frozenset[int] = frozenset(),
        dead_from: int | None = None,
        rate: float = 0.0,
        seed: int = 0,
    ):
        self.fail_runs = fail_runs
        self.dead_from = dead_from
        self.rate = rate
        self.seed = seed
        # Root for per-wrapper streams: each FlakyBackend sharing this
        # plan spawns one child (in wrap order), so its Bernoulli draws
        # are a pure function of (plan seed, wrap index, its own run
        # count) — never of cross-backend call interleaving.
        self._seed_seq = np.random.SeedSequence(seed)
        self._rng = self.stream()

    @classmethod
    def nth(cls, *runs: int) -> "FaultPlan":
        """Fail exactly the given 1-indexed ``run`` invocations.

        ``FaultPlan.nth(1)`` is fail-once-then-recover: the first
        dispatched batch dies, every retry lands on a healthy backend.
        """
        if not runs or any(n < 1 for n in runs):
            raise ValueError(f"run numbers must be >= 1, got {runs}")
        return cls(fail_runs=frozenset(runs))

    @classmethod
    def after(cls, run: int) -> "FaultPlan":
        """Healthy for runs ``1..run-1``, dead from run ``run`` onward.

        The replica-kill scenario: unlike :meth:`nth`'s transient blip,
        the failure persists, so the replica set must eject the replica
        and fail over (``after(1)`` is a backend dead from the start).
        """
        if run < 1:
            raise ValueError(f"run must be >= 1, got {run}")
        return cls(dead_from=run)

    @classmethod
    def random(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Fail each run independently with probability ``rate``,
        drawn from a seeded generator (deterministic per seed)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        return cls(rate=rate, seed=seed)

    def stream(self) -> np.random.Generator:
        """A fresh independent RNG stream off this plan's seed.

        Streams are handed out in call order (`SeedSequence.spawn`), so
        the i-th wrapper constructed over this plan always receives the
        i-th stream — deterministic across runs, independent across
        wrappers.
        """
        return np.random.default_rng(self._seed_seq.spawn(1)[0])

    def should_fail(
        self, run_number: int, rng: np.random.Generator | None = None
    ) -> bool:
        """Whether the ``run_number``-th (1-indexed) run must fail.

        Args:
            run_number: The caller's own 1-indexed run counter.
            rng: The caller's private stream (see :meth:`stream`).
                ``None`` falls back to the plan's built-in stream —
                fine for a plan consulted by exactly one backend, wrong
                for a shared plan (draws would interleave).
        """
        if run_number in self.fail_runs:
            return True
        if self.dead_from is not None and run_number >= self.dead_from:
            return True
        if self.rate > 0.0:
            rng = rng if rng is not None else self._rng
            return bool(rng.random() < self.rate)
        return False


class FlakyBackend(ExecutionBackend):
    """An :class:`ExecutionBackend` whose ``run`` fails on plan.

    Args:
        inner: The healthy backend every non-faulted call delegates to.
        plan: When to inject (see :class:`FaultPlan`).

    Attributes:
        runs: ``run`` invocations so far (faulted ones included).
        faults: Faults injected so far.
    """

    name = "flaky"

    def __init__(self, inner: ExecutionBackend, plan: FaultPlan):
        self.inner = inner
        self.fault_plan = plan
        self.runs = 0
        self.faults = 0
        self._rng = plan.stream()

    def plan(self, request: EvalRequest) -> ExecutionPlan:
        """Pricing never faults: the model is intact, the device flaky."""
        return self.inner.plan(request)

    def run(self, request: EvalRequest) -> np.ndarray:
        """Count one dispatch; raise if the plan says this one dies."""
        self.runs += 1
        if self.fault_plan.should_fail(self.runs, self._rng):
            self.faults += 1
            raise BackendFault(
                f"injected fault on {self.inner.name} run #{self.runs}"
            )
        return self.inner.run(request)

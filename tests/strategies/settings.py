"""Shared Hypothesis settings profiles.

Three profiles cover the suite's needs:

* ``STANDARD_SETTINGS`` — the default for property tests.  ``deadline``
  is disabled because the pure-numpy PRFs have high per-example
  variance (a sha256 example is ~10x a siphash one), which would make
  deadline failures pure noise.
* ``DETERMINISM_SETTINGS`` — for tests asserting reproducibility
  (seeded key generation, serialization round-trips).  Derandomized so
  the examples themselves are stable across runs and machines, and
  detached from the example database so CI never replays a stale
  shrunk case against a determinism assertion.
* ``STATEFUL_SETTINGS`` — ``DETERMINISM_SETTINGS`` for the serving
  state machines: 30 steps a run, and no shrink or explain phase.  Each
  step re-runs real dispatches, so shrinking a failure costs minutes;
  the same examples are generated, so a fault is found as before and
  reported at once, unshrunk.
"""

from hypothesis import HealthCheck, Phase, settings

STANDARD_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

DETERMINISM_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

STATEFUL_SETTINGS = settings(
    DETERMINISM_SETTINGS,
    stateful_step_count=30,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)

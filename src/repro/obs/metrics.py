"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

The serving stack accumulated one ad-hoc counter bundle per subsystem
(``ServingStats``, ``PlanCacheStats``, ``ReplicaSet`` health
counts).  Each keeps its attribute API
— call sites and tests are untouched — but a
:class:`MetricsRegistry` now absorbs them all as **registered views**:
zero-argument callables sampled at snapshot time, so one
``registry.snapshot()`` is the whole system's state under one
namespace.

Latency distributions use :class:`Histogram` — fixed bucket bounds,
one integer per bucket, **no sample retention** — so p50/p99/p999 over
a long serving session cost O(buckets) memory, and the quantile
estimate is provably within one bucket width of the exact sample
quantile (the property test in ``tests/obs/test_metrics.py`` pins
this on random samples).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Iterable


def default_latency_buckets() -> tuple[float, ...]:
    """Geometric bucket bounds covering 1 µs .. ~17 s (doubling).

    Latency observations below a microsecond land in the first bucket;
    anything above the last bound lands in the overflow bucket (whose
    quantile estimate reports the observed max — exact, since the
    histogram tracks min/max alongside the counts).
    """
    return tuple(1e-6 * 2.0**i for i in range(25))


DEFAULT_LATENCY_BUCKETS = default_latency_buckets()


class Counter:
    """A monotonically increasing count with optional increments."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value that may move either direction."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with quantile estimation, no samples kept.

    Bucket ``i`` counts observations ``v`` with
    ``bounds[i-1] < v <= bounds[i]`` (``bisect_left`` on the upper
    bounds); an extra overflow bucket counts ``v > bounds[-1]``.  The
    histogram also tracks exact ``min``/``max``/``sum`` so means are
    exact and quantile estimates can be clamped into the observed
    range.

    **Quantile error bound.** :meth:`quantile` walks the cumulative
    counts to the bucket holding the ``ceil(q * count)``-th smallest
    observation and linearly interpolates inside it.  The exact sample
    quantile lies in that same bucket, so the estimate is off by at
    most that bucket's width; clamping to ``[min, max]`` only tightens
    it.  For the overflow bucket the estimate is the observed max.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 = overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1) of all observations.

        Within one bucket width of the exact sample quantile; 0.0 when
        nothing has been observed.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if i == len(self.bounds):
                    return self.max  # overflow bucket: exact max
                hi = self.bounds[i]
                lo = self.bounds[i - 1] if i > 0 else min(self.min, hi)
                # Interpolate by rank position within this bucket.
                within = (rank - (cumulative - bucket_count)) / bucket_count
                estimate = lo + (hi - lo) * within
                return min(max(estimate, self.min), self.max)
        return self.max  # unreachable: cumulative reaches count

    def percentiles(self) -> dict:
        """The standard serving triple (p50/p99/p999), in seconds."""
        return {
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    def snapshot(self) -> dict:
        out = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        out.update(self.percentiles())
        return out


class MetricsRegistry:
    """Get-or-create home for counters/gauges/histograms + views.

    *Instruments* (:meth:`counter`, :meth:`gauge`, :meth:`histogram`)
    are owned by the registry and sampled generically.  *Views*
    (:meth:`register_view`) wrap the pre-existing ad-hoc stat bundles:
    a view is any zero-argument callable returning a JSON-ready dict,
    sampled lazily at :meth:`snapshot` time — the owning subsystem
    keeps mutating its own attributes exactly as before.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._views: dict[str, Callable[[], dict]] = {}
        self.snapshots: list[dict] = []

    # -- instruments --------------------------------------------------

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._check_free(name, self._counters)
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._check_free(name, self._gauges)
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        if name not in self._histograms:
            self._check_free(name, self._histograms)
            self._histograms[name] = Histogram(name, buckets)
        return self._histograms[name]

    def histograms(self, prefix: str = "") -> dict[str, Histogram]:
        """All histograms whose name starts with ``prefix``."""
        return {
            name: hist
            for name, hist in self._histograms.items()
            if name.startswith(prefix)
        }

    # -- views --------------------------------------------------------

    def register_view(self, name: str, view: Callable[[], dict]) -> None:
        """Attach a named zero-argument sampler (ad-hoc stats bridge)."""
        self._check_free(name, self._views)
        self._views[name] = view

    def unique_name(self, base: str) -> str:
        """``base``, or ``base.2``/``base.3``... if already taken —
        lets N serving loops share one registry without collisions."""
        if not self._taken(base):
            return base
        for i in range(2, 10_000):
            candidate = f"{base}.{i}"
            if not self._taken(candidate):
                return candidate
        raise RuntimeError(f"no free name for {base!r}")

    # -- snapshots ----------------------------------------------------

    def snapshot(self) -> dict:
        """Sample every instrument and view into one JSON-ready dict."""
        out: dict = {
            "counters": {n: c.snapshot() for n, c in self._counters.items()},
            "gauges": {n: g.snapshot() for n, g in self._gauges.items()},
            "histograms": {n: h.snapshot() for n, h in self._histograms.items()},
            "views": {n: dict(view()) for n, view in self._views.items()},
        }
        if self.clock is not None:
            out["t"] = self.clock()
        return out

    def record_snapshot(self) -> dict:
        """Take a snapshot and append it to :attr:`snapshots`
        (the periodic-snapshot hook ``AsyncPirServer`` drives)."""
        snap = self.snapshot()
        self.snapshots.append(snap)
        return snap

    # -- internal -----------------------------------------------------

    def _taken(self, name: str) -> bool:
        return any(
            name in kind
            for kind in (self._counters, self._gauges, self._histograms, self._views)
        )

    def _check_free(self, name: str, own_kind: dict) -> None:
        for kind in (self._counters, self._gauges, self._histograms, self._views):
            if kind is not own_kind and name in kind:
                raise ValueError(f"metric name {name!r} already registered")

"""Live-memory metering for the executed walk.

Figure 6 of the paper compares the *peak memory usage* of the DPF
parallelization strategies; those designs' peaks are modeled by their
plans.  The walk every design executes (:mod:`repro.gpu.strategies`)
reports every buffer it holds through a :class:`MemoryMeter`, so tests
can assert its exact cost against actual allocations rather than
trusting the formula.
"""

from __future__ import annotations


class MemoryMeter:
    """Tracks current and peak live bytes across explicit alloc/free calls."""

    def __init__(self):
        self.current = 0
        self.peak = 0

    def alloc(self, nbytes: int) -> int:
        """Record an allocation; returns ``nbytes`` for chaining."""
        if nbytes < 0:
            raise ValueError("cannot allocate a negative size")
        self.current += nbytes
        self.peak = max(self.peak, self.current)
        return nbytes

    def free(self, nbytes: int) -> None:
        """Record a release.

        Raises:
            ValueError: If more bytes are freed than are live — that is
                always a kernel accounting bug worth failing loudly on.
        """
        if nbytes > self.current:
            raise ValueError(
                f"freeing {nbytes} bytes but only {self.current} live"
            )
        self.current -= nbytes

    def reset(self) -> None:
        self.current = 0
        self.peak = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MemoryMeter(current={self.current}, peak={self.peak})"

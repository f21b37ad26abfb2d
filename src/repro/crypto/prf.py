"""The PRF interface shared by every cipher in :mod:`repro.crypto`.

A DPF expansion (Section 3.1 of the paper) calls a length-doubling PRG
on every tree node.  Following the standard practice (and Google's CPU
DPF library the paper baselines against), the PRG is built from a
*fixed-key* primitive in Matyas--Meyer--Oseas mode so that no per-seed
key schedule is needed: ``PRG(s)[j] = F(s xor c_j) xor s`` for a small
tweak ``j``.  Every concrete PRF therefore exposes a single vectorized
method :meth:`Prf.expand` mapping ``(N, 16)`` seed blocks to ``(N, 16)``
output blocks for a given tweak.

Cost metadata
-------------
``gpu_cost`` and ``cpu_cost`` are *relative per-call costs* (AES-128 =
1.0) consumed by the performance models in :mod:`repro.gpu` and
:mod:`repro.baselines.cpu`.  The GPU numbers are calibrated from the
paper's Table 5 (1M-entry table, batch 512): AES-128 965 QPS, SHA-256
921 QPS, ChaCha20 3,640 QPS, SipHash 7,447 QPS, HighwayHash 1,973 QPS.
The CPU numbers reflect that AES enjoys AES-NI hardware on the paper's
Xeon baseline while the others do not.
"""

from __future__ import annotations

import abc

import numpy as np

SEED_BYTES = 16
"""Size in bytes of a DPF seed / PRF block (the 128-bit security parameter)."""


class Prf(abc.ABC):
    """A vectorized pseudorandom function over 128-bit blocks.

    Subclasses must set the class attributes below and implement
    :meth:`expand`.

    Attributes:
        name: Registry key, e.g. ``"aes128"``.
        wire_id: The one byte a ``DPF3`` key record names this PRF by
            (:mod:`repro.dpf.keys`).  Fixed per PRF and unique in the
            registry; 0 is reserved and never registered.
        gpu_cost: Relative per-call cost on a GPU (AES-128 = 1.0).
        cpu_cost: Relative per-call cost on a CPU with crypto
            acceleration available (AES-128 via AES-NI = 1.0).
        security_bits: Claimed PRF security level.
        standardized: Whether the primitive is a vetted standard
            (the paper cautions that SipHash/HighwayHash trade security
            assurance for speed).
    """

    name: str = "abstract"
    wire_id: int = 0
    gpu_cost: float = 1.0
    cpu_cost: float = 1.0
    security_bits: int = 128
    standardized: bool = True

    @abc.abstractmethod
    def expand(self, seeds: np.ndarray, tweak: int) -> np.ndarray:
        """Apply the PRF to a batch of seeds.

        Args:
            seeds: ``(N, 16)`` uint8 array of input blocks.
            tweak: Small non-negative domain-separation constant; the
                DPF uses tweak 0 for left children and 1 for right
                children.

        Returns:
            ``(N, 16)`` uint8 array of pseudorandom output blocks.
        """

    def expand_pair(self, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Length-doubling PRG: return the (left, right) child blocks.

        This is the DPF hot path: every GGM tree level calls it once on
        the whole frontier.  The halves are adjacent views of one
        :meth:`expand_pair_stacked` buffer — freshly allocated per call,
        so callers may mutate them in place — and are bit-identical to
        ``(expand(seeds, 0), expand(seeds, 1))``.
        """
        stacked = self.expand_pair_stacked(seeds)
        n = seeds.shape[0]
        return stacked[:n], stacked[n:]

    def expand_pair_stacked(self, seeds: np.ndarray) -> np.ndarray:
        """Both children as one ``(2N, 16)`` array: left block then right.

        This is the single override point for the fused PRG fast path:
        concrete PRFs stack the ``2N`` tweaked blocks and run *one*
        vectorized cipher pass per tree level, returning the cipher's
        own output buffer (zero copy — the concat-layout ``eval_full``
        consumes it directly every level).  The base implementation
        falls back to two unfused :meth:`expand` calls.
        """
        n = seeds.shape[0]
        out = np.empty((2 * n, 16), dtype=np.uint8)
        out[:n] = self.expand(seeds, 0)
        out[n:] = self.expand(seeds, 1)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class CountingPrf(Prf):
    """Wrap another PRF and count calls, for instrumentation.

    The GPU strategy experiments (Figure 6) compare the *number of PRF
    invocations* across parallelization strategies; tests use this
    wrapper to assert the analytic counts against what the functional
    kernels actually execute.
    """

    def __init__(self, inner: Prf):
        self.inner = inner
        self.name = inner.name
        self.wire_id = inner.wire_id
        self.gpu_cost = inner.gpu_cost
        self.cpu_cost = inner.cpu_cost
        self.security_bits = inner.security_bits
        self.standardized = inner.standardized
        self.calls = 0
        self.blocks = 0

    def expand(self, seeds: np.ndarray, tweak: int) -> np.ndarray:
        self.calls += 1
        self.blocks += int(seeds.shape[0])
        return self.inner.expand(seeds, tweak)

    def expand_pair_stacked(self, seeds: np.ndarray) -> np.ndarray:
        # One fused cipher invocation producing both children: 2N PRF
        # *blocks* but a single *call*.  Figure-6 tests assert block
        # counts, which the fused path must not change.  expand_pair is
        # inherited from Prf and splits this buffer, so it counts once.
        self.calls += 1
        self.blocks += 2 * int(seeds.shape[0])
        return self.inner.expand_pair_stacked(seeds)

    def reset(self) -> None:
        """Zero the call counters."""
        self.calls = 0
        self.blocks = 0


_REGISTRY: dict[str, type[Prf]] = {}
_INSTANCES: dict[str, Prf] = {}
_NAMES_BY_WIRE_ID: dict[int, str] = {}


def register_prf(cls: type[Prf]) -> type[Prf]:
    """Class decorator adding a PRF implementation to the registry.

    Re-registering a name replaces the class registered under it.

    Raises:
        ValueError: If ``cls.wire_id`` is not in 1..255 or another
            registered name already holds it (a key record would no
            longer say which PRF it was generated for).
    """
    if not 1 <= cls.wire_id <= 255:
        raise ValueError(
            f"PRF {cls.name!r} needs a wire_id in 1..255 (0 is reserved), "
            f"got {cls.wire_id}"
        )
    holder = _NAMES_BY_WIRE_ID.get(cls.wire_id, cls.name)
    if holder != cls.name:
        raise ValueError(
            f"PRF {cls.name!r} declares wire_id {cls.wire_id}, which "
            f"{holder!r} already holds"
        )
    previous = _REGISTRY.get(cls.name)
    if previous is not None:
        del _NAMES_BY_WIRE_ID[previous.wire_id]
    _REGISTRY[cls.name] = cls
    _NAMES_BY_WIRE_ID[cls.wire_id] = cls.name
    _INSTANCES.pop(cls.name, None)
    return cls


def available_prfs() -> list[str]:
    """Names of all registered PRFs (importing submodules registers them)."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_prf(name: str) -> Prf:
    """The registered PRF of that name: one shared instance per name.

    Every registered PRF is fixed-key, so an instance is a constant
    (for AES, the expanded key schedule) and callers on any thread
    share it; treat it as read-only.  Wrap it (:class:`CountingPrf`)
    rather than mutate it.

    Raises:
        KeyError: If ``name`` is not a registered PRF.
    """
    prf = _INSTANCES.get(name)
    if prf is None:
        _ensure_loaded()
        if name not in _REGISTRY:
            raise KeyError(f"unknown PRF {name!r}; available: {available_prfs()}")
        prf = _INSTANCES.setdefault(name, _REGISTRY[name]())
    return prf


def prf_wire_id(name: str) -> int:
    """The wire id of the registered PRF ``name``.

    Raises:
        ValueError: If ``name`` is not a registered PRF (no key record
            can carry it).
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        _ensure_loaded()
        cls = _REGISTRY.get(name)
        if cls is None:
            raise ValueError(f"unknown PRF {name!r}; available: {available_prfs()}")
    return cls.wire_id


def prf_name_for_wire_id(wire_id: int) -> str | None:
    """The name of the registered PRF holding ``wire_id``, else ``None``."""
    name = _NAMES_BY_WIRE_ID.get(wire_id)
    if name is None:
        _ensure_loaded()
        name = _NAMES_BY_WIRE_ID.get(wire_id)
    return name


def _ensure_loaded() -> None:
    # Import the concrete implementations so their decorators run; local
    # import avoids a cycle (each implementation imports this module).
    from repro.crypto import aes, chacha20, highwayhash, sha256, siphash  # noqa: F401


def seeds_to_u64(seeds: np.ndarray) -> np.ndarray:
    """View ``(N, 16)`` uint8 seed blocks as ``(N, 2)`` little-endian uint64."""
    return np.ascontiguousarray(seeds).view(np.uint64).reshape(-1, 2)


def u64_to_seeds(words: np.ndarray) -> np.ndarray:
    """Inverse of :func:`seeds_to_u64`."""
    return np.ascontiguousarray(words.astype(np.uint64, copy=False)).view(np.uint8).reshape(-1, 16)

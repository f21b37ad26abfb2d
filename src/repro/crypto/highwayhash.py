"""HighwayHash-style wide-lane PRF.

The paper's Table 5 includes Google's HighwayHash as a middle point
between AES and SipHash (1,973 QPS).  HighwayHash proper is a SIMD
design with 4x64-bit lanes mixed by 32x32->64 multiplies and cross-lane
byte permutations.  This module implements a *structurally faithful*
stand-in — the same multiply/permute/xor skeleton over four uint64
lanes — rather than a bit-exact port (there is no authoritative test
vector bundled offline).  DESIGN.md records this substitution; the
primitive is marked non-standardized, exactly as the paper treats it
("their security assurance may be weaker").
"""

from __future__ import annotations

import numpy as np

from repro.crypto import prf as prf_mod

_MUL0 = np.uint64(0xDBE6D5D5FE4CCE2F)
_MUL1 = np.uint64(0xA4093822299F31D0)
_INIT = (
    np.uint64(0x0706050403020100),
    np.uint64(0x0F0E0D0C0B0A0908),
    np.uint64(0x1716151413121110),
    np.uint64(0x1F1E1D1C1B1A1918),
)


def _zipper_merge(v: np.ndarray) -> np.ndarray:
    """Cross-lane byte shuffle (HighwayHash's ZipperMerge on one lane)."""
    b = np.ascontiguousarray(v).view(np.uint8).reshape(-1, 8)
    # Permutation taken from the HighwayHash reference ZipperMergeAndAdd
    # byte ordering; any fixed full permutation preserves the design's
    # diffusion role.
    perm = np.array([3, 1, 2, 0, 7, 5, 6, 4], dtype=np.intp)
    return np.ascontiguousarray(b[:, perm]).view(np.uint64).reshape(-1)


def _mix(lanes: list[np.ndarray], m0: np.ndarray, m1: np.ndarray) -> list[np.ndarray]:
    """One update round: inject message words, multiply-mix, permute."""
    mask = np.uint64(0xFFFFFFFF)
    v0, v1, v2, v3 = lanes
    v0 = v0 + m0
    v1 = v1 + m1
    # 32x32 -> 64 multiplies, the core HighwayHash nonlinearity.
    v2 ^= (v0 & mask) * (v1 >> np.uint64(32))
    v3 ^= (v1 & mask) * (v0 >> np.uint64(32))
    v0 += _zipper_merge(v2)
    v1 += _zipper_merge(v3)
    v2 += v0 * _MUL0
    v3 += v1 * _MUL1
    return [v1, v0, v3, v2]  # lane rotation


@prf_mod.register_prf
class HighwayHashPrf(prf_mod.Prf):
    """HighwayHash-style 128-bit PRF over 16-byte seeds."""

    name = "highwayhash"
    wire_id = 5
    gpu_cost = 965.0 / 1973.0  # Table 5: 1,973 QPS vs AES's 965.
    cpu_cost = 1.0
    security_bits = 64
    standardized = False

    _ROUNDS = 4

    @classmethod
    def _mix_lanes(cls, m0: np.ndarray, m1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run the round function over already-tweaked message lanes."""
        n = m0.shape[0]
        lanes = [np.full(n, init, dtype=np.uint64) for init in _INIT]
        for rnd in range(cls._ROUNDS):
            lanes = _mix(lanes, m0 ^ np.uint64(rnd), m1)
        return lanes[0] + lanes[2], lanes[1] + lanes[3]

    def expand(self, seeds: np.ndarray, tweak: int) -> np.ndarray:
        if seeds.ndim != 2 or seeds.shape[1] != 16:
            raise ValueError(f"seeds must be (N, 16) uint8, got {seeds.shape}")
        words = prf_mod.seeds_to_u64(seeds)
        lo, hi = self._mix_lanes(words[:, 0], words[:, 1] ^ np.uint64(tweak))
        # Feed-forward with the seed so the map is not invertible from
        # the output alone (Matyas--Meyer--Oseas shape, as for AES).
        lo ^= words[:, 0]
        hi ^= words[:, 1]
        return prf_mod.u64_to_seeds(np.stack((lo, hi), axis=1))

    def expand_pair_stacked(self, seeds: np.ndarray) -> np.ndarray:
        """Fused PRG: both tweaks stacked through one mixing pass."""
        if seeds.ndim != 2 or seeds.shape[1] != 16:
            raise ValueError(f"seeds must be (N, 16) uint8, got {seeds.shape}")
        n = seeds.shape[0]
        words = prf_mod.seeds_to_u64(seeds)
        w0, w1 = words[:, 0], words[:, 1]
        m0 = np.tile(w0, 2)
        m1 = np.empty(2 * n, dtype=np.uint64)
        m1[:n] = w1  # tweak 0
        m1[n:] = w1 ^ np.uint64(1)  # tweak 1
        lo, hi = self._mix_lanes(m0, m1)
        lo[:n] ^= w0
        lo[n:] ^= w0
        hi[:n] ^= w1
        hi[n:] ^= w1
        return prf_mod.u64_to_seeds(np.stack((lo, hi), axis=1))

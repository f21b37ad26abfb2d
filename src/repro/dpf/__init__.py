"""Distributed point functions (DPFs), the paper's core primitive.

A DPF (Section 3.1) lets a client split the point function
``f(x) = beta if x == alpha else 0`` into two compact keys such that
each key alone reveals nothing about ``alpha``, yet the two servers'
full-domain evaluations sum to the one-hot vector ``beta * I(alpha)``.
This package implements the Boyle--Gilboa--Ishai correction-word
construction the paper builds on, with O(lambda log L) keys and
O(lambda L) evaluation:

* :mod:`repro.dpf.ggm` — the GGM-tree PRG expansion shared by ``Gen``,
  ``Eval`` and every GPU parallelization strategy.
* :mod:`repro.dpf.keys` — key material and wire serialization (the
  "Bytes" column of the paper's Table 4).
* :mod:`repro.dpf.dpf` — ``gen`` / ``gen_batch`` / ``eval_full`` /
  ``eval_range`` / ``eval_points``.
"""

from repro.dpf.dpf import eval_full, eval_points, eval_range, gen, gen_batch
from repro.dpf.ggm import convert_to_u64, expand_level, prg_expand
from repro.dpf.keys import (
    CorrectionWord,
    DpfKey,
    KeyBatch,
    key_size_bytes,
    pack_keys,
    split_wire,
    unpack_keys,
    wire_size,
)

__all__ = [
    "gen",
    "gen_batch",
    "eval_full",
    "eval_range",
    "eval_points",
    "DpfKey",
    "KeyBatch",
    "CorrectionWord",
    "key_size_bytes",
    "wire_size",
    "pack_keys",
    "split_wire",
    "unpack_keys",
    "prg_expand",
    "expand_level",
    "convert_to_u64",
]

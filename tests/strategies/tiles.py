"""The executed walk's tile as a test axis.

Every registered strategy runs one tiled walk whose tile of ``2**t``
leaves has ``t = min(_LOG_TILE, depth)``
(``repro.gpu.strategies._LOG_TILE``).  The oracle suites sweep that
constant instead of the strategy names: one-leaf tiles, four-leaf
tiles, the walk's own 512-leaf tile, and one whole-tree tile.  The
constant has no public knob, so the sweep patches it for the length of
a ``with`` block — usable from a parametrized test and from a
Hypothesis test alike.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from hypothesis import strategies as st

from repro.gpu import strategies as _walk

TILES = ("one_leaf", "four_leaves", "default", "whole_tree")

_LOG_TILES = {
    "one_leaf": 0,
    "four_leaves": 2,
    "default": _walk._LOG_TILE,
    "whole_tree": 64,  # deeper than any tree: clamped to it
}

tile_rules = st.sampled_from(TILES)


@contextmanager
def tiled(tile: str) -> Iterator[str]:
    """Run the walk (and its ``cost``) with tile ``tile``."""
    with mock.patch.object(_walk, "_LOG_TILE", _LOG_TILES[tile]):
        yield tile

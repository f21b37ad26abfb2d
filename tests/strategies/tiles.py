"""The executed walk's tile and group as a test axis.

Every registered strategy runs one tiled walk whose tile of ``2**t``
leaves has ``t = min(_LOG_TILE, depth)``
(``repro.gpu.strategies._LOG_TILE``), and whose consecutive tiles
expand ``a`` levels together in groups of ``2**(t - 1 - a)``, ``a`` the
group depth ``_GROUP_DEPTH`` clamped to ``t - 1``.  The oracle suites
sweep those two constants instead of the strategy names: one-leaf
tiles; four-leaf tiles in ungrouped pairs (group depth 0: the group
stage expands nothing); eight-leaf tiles in pairs that share one level
(group depth 1); the walk's own tile and group; and one whole-tree tile
whose group takes all but its last level (the whole tile).  At the
suites' domains (up to 2^8 rows, a depth-7 tree) the small tiles make
several groups, so range clips cut the first and the last group and
tile.  The constants have no public knob, so the sweep patches them
for the length of a ``with`` block — usable from a parametrized test
and from a Hypothesis test alike.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from hypothesis import strategies as st

from repro.gpu import strategies as _walk

TILES = ("one_leaf", "four_leaves", "eight_leaves", "default", "whole_tree")

_WHOLE = 64  # deeper than any tree: clamped to it
_WALKS = {
    # name: (log2 tile leaves, group depth)
    "one_leaf": (0, _walk._GROUP_DEPTH),
    "four_leaves": (2, 0),
    "eight_leaves": (3, 1),
    "default": (_walk._LOG_TILE, _walk._GROUP_DEPTH),
    "whole_tree": (_WHOLE, _WHOLE),
}

tile_rules = st.sampled_from(TILES)


@contextmanager
def tiled(tile: str) -> Iterator[str]:
    """Run the walk (and its ``cost``) with tile and group ``tile``."""
    log_tile, group_depth = _WALKS[tile]
    with mock.patch.object(_walk, "_LOG_TILE", log_tile), mock.patch.object(
        _walk, "_GROUP_DEPTH", group_depth
    ):
        yield tile

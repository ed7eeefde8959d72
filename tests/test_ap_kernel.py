"""The integer AP kernel against the tuple scan it replaced.

``aps._runs`` walks anchors encoded as ``row * stride + (col - min_col)``.
Every caller of it must report exactly what ``oracles.maximal_runs`` (the
scan over tuple anchors) reports: the runs themselves, their order, the
longest AP's tie-break and the length tests.  The anchor sets are arbitrary:
negative rows and columns (boundary coverings reach column -2), anchors on
both extreme columns, single rows, single columns and thinned progressions.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

import oracles
from ttr.aps import APWitness, enumerate_aps, has_ap_of_length, longest_ap, maximal_runs
from ttr.boundary import BoundaryCovering
from ttr.chains import ChainGraph, shaded_arrow_aps, shaded_arrows
from ttr.grid import ORIENTATIONS, PLACEMENT_ORDER, TILING_ORDER, Orientation, Rect, Tile
from ttr.width4 import d1_equiv_check

LENGTHS = (2, 3, 4, 5)


@st.composite
def anchor_sets(draw) -> set[tuple[int, int]]:
    kind = draw(st.sampled_from(["box", "row", "column", "progression"]))
    top, lo = draw(st.integers(-2, 3)), draw(st.integers(-2, 3))
    height = 0 if kind == "row" else draw(st.integers(0, 10))
    span = 0 if kind == "column" else draw(st.integers(0, 14))
    rows, cols = st.integers(top, top + height), st.integers(lo, lo + span)
    if kind == "progression":
        dy, dx = draw(st.sampled_from([(0, 1), (0, 4), (1, 0), (2, 2), (2, -2), (1, 3), (3, -1)]))
        keep = draw(st.lists(st.booleans(), min_size=2, max_size=12))
        anchors = {(top + i * dy, lo + i * dx) for i, kept in enumerate(keep) if kept or i in (0, 1)}
        anchors |= draw(st.sets(st.tuples(rows, cols), max_size=6))
    else:
        anchors = draw(st.sets(st.tuples(rows, cols), max_size=24))
    if draw(st.booleans()):
        # One anchor on each extreme column of the box.
        anchors |= {(draw(rows), lo), (draw(rows), lo + span)}
    return anchors


def stand_in_tiling(groups):
    """A tiling-shaped object over anchors shifted to rows and columns from 0.

    ``enumerate_aps``, ``longest_ap`` and ``has_ap_of_length`` read only the
    rectangle's width and the tiles in tiling order; the width is one more
    than the largest column, so anchors sit on both extreme columns.
    """
    cells = [cell for anchors in groups for cell in anchors]
    r0 = min((r for r, _ in cells), default=0)
    c0 = min((c for _, c in cells), default=0)
    shifted = [{(r - r0, c - c0) for r, c in anchors} for anchors in groups]
    tiles = [Tile(o, r, c) for o, anchors in zip(ORIENTATIONS, shifted) for r, c in anchors]
    height = max((r for r, _ in cells), default=r0) - r0 + 1
    width = max((c for _, c in cells), default=c0) - c0 + 1
    return SimpleNamespace(rect=Rect(height, width), tiles=tuple(sorted(tiles, key=TILING_ORDER))), shifted


def oracle_longest(tiles, groups):
    best = None
    for o, anchors in zip(ORIENTATIONS, groups):
        for start, step, length in oracles.maximal_runs(anchors, 2):
            if best is None or length > best.length:
                best = APWitness(o, start, step, length)
    if best is None:
        first = min(tiles, key=PLACEMENT_ORDER)
        return APWitness(first.orientation, first.anchor, (0, 0), 1)
    return best


@settings(derandomize=True, max_examples=300, deadline=None)
@given(anchor_sets())
def test_maximal_runs_match_the_tuple_scan(anchors):
    for min_len in LENGTHS:
        assert maximal_runs(anchors, min_len) == oracles.maximal_runs(anchors, min_len)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(anchor_sets(), min_size=4, max_size=4))
def test_tiling_callers_match_the_tuple_scan(groups):
    tiling, shifted = stand_in_tiling(groups)
    for min_len in LENGTHS:
        expected = [
            APWitness(o, start, step, length)
            for o, anchors in zip(ORIENTATIONS, shifted)
            for start, step, length in oracles.maximal_runs(anchors, min_len)
        ]
        assert enumerate_aps(tiling, min_len) == expected
        assert has_ap_of_length(tiling, min_len) == bool(expected)
    if tiling.tiles:
        assert longest_ap(tiling) == oracle_longest(tiling.tiles, shifted)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(anchor_sets(), min_size=4, max_size=4))
def test_boundary_and_width4_match_the_tuple_scan(groups):
    tiles = tuple(Tile(o, r, c) for o, anchors in zip(ORIENTATIONS, groups) for r, c in anchors)
    lengths = [length for anchors in groups for _s, _st, length in oracles.maximal_runs(anchors, 2)]
    expected = max(lengths, default=1 if tiles else 0)
    covering = BoundaryCovering(len(tiles), tiles)
    assert covering.longest_ap_length() == expected
    assert [covering.has_ap(l) for l in range(6)] == [expected >= l for l in range(6)]

    tiling, shifted = stand_in_tiling(groups)
    tiling.rect = Rect(4, tiling.rect.width)
    d1 = {(r, c) for r, c in shifted[Orientation.D.index] if r == 0}
    for l in (3, 4, 5):
        any_ap = any(oracles.maximal_runs(anchors, l) for anchors in shifted)
        assert d1_equiv_check(tiling, l) == (any_ap, bool(oracles.maximal_runs(d1, l)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(anchor_sets(), min_size=4, max_size=4))
def test_shaded_arrow_aps_match_the_tuple_scan(groups):
    directions = ((0, 1), (0, -1), (1, 0), (-1, 0))
    edges = [((r, c), (r + dy, c + dx)) for (dy, dx), sources in zip(directions, groups) for r, c in sources]
    graph = ChainGraph(Rect(8, 8), edges)
    by_key: dict = {}
    for arrow in shaded_arrows(graph):
        by_key.setdefault((arrow.direction, arrow.side), set()).add(arrow.source)
    for min_len in LENGTHS:
        got = [(p.direction, p.side, p.start, p.step, p.length) for p in shaded_arrow_aps(graph, min_len)]
        expected = [
            (direction, side, start, step, length)
            for (direction, side), sources in sorted(by_key.items())
            for start, step, length in oracles.maximal_runs(sources, min_len)
        ]
        assert got == expected

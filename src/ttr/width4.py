"""The width-4 calculus: unit decomposition, the A/B projection, and colorings.

Every tiling of a height-4 strip splits at its vertical fault lines into
indecomposable *units*.  There are exactly two units of each length (the
tests check this against the enumerator up to length 24), and both have a
closed form.  The A-type unit of length n is an R tile at (0, 0), D and U
tiles alternating along the top at columns 1, 3, ..., n-3, U and D tiles
alternating below them at columns 0, 2, ..., n-4, and an L tile at
(1, n-2); the B-type unit is its top-bottom mirror.  A unit's first tile in
tiling order, R or D at (0, 0), tells the two apart.  Replacing each unit by
a run of A's or B's according to that class is the A/B projection;
it fixes every d1 tile, which is what makes the projection preserve the
existence of long APs.

A strip made of A and B units only is a one-row :class:`~ttr.vdw.GridColoring`
(color 0 for A, 1 for B), so 4xN tilings without an l-term AP correspond to
2-colorings without a monochromatic l-term AP.  ``decompose`` and
``concatenate`` name units up to ``MAX_UNIT_LEN``; ``ab_map`` takes units
of any length.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .errors import CatalogError, ResourceLimitError, StructureError
from .grid import TILING_ORDER, Orientation, Rect, Tile, Tiling
from .aps import has_ap_of_length, maximal_runs
from .vdw import GridColoring


@functools.cache
def _unit_tiles(length: int, b: int) -> tuple[Tile, ...]:
    """The unit of ``length`` in tiling order: A-type, or its top-bottom mirror when ``b``."""
    U, D = Orientation.U, Orientation.D
    tiles = [Tile(Orientation.R, 0, 0), Tile(Orientation.L, 1, length - 2)]
    tiles += [Tile(D if c % 4 == 1 else U, 0, c) for c in range(1, length - 2, 2)]
    tiles += [Tile(U if c % 4 == 0 else D, 2, c) for c in range(0, length - 3, 2)]
    if b:  # U and D swap; a tile spanning r rows moves from row `row` to 4 - r - row
        flip = {U: D, D: U}
        tiles = [
            Tile(flip.get(t.orientation, t.orientation), 4 - t.orientation.bbox[0] - t.row, t.col)
            for t in tiles
        ]
    return tuple(sorted(tiles, key=TILING_ORDER))


UNIT_A_TILES: tuple[Tile, ...] = _unit_tiles(4, 0)
UNIT_B_TILES: tuple[Tile, ...] = _unit_tiles(4, 1)


@dataclass(frozen=True)
class Unit:
    """An indecomposable tiled 4xlength block (no interior vertical fault)."""

    kind: str
    length: int
    tiles: tuple[Tile, ...]


@dataclass(frozen=True)
class UnitString:
    """A tiling of a height-4 strip described as a concatenation of unit kinds."""

    kinds: tuple[str, ...]
    lengths: tuple[int, ...]


def _unit_class(seg: Sequence[Tile]) -> int:
    """0 (A) or 1 (B): whether the segment's first tile is A's R or B's D at (0, 0)."""
    if seg[0] == UNIT_A_TILES[0]:
        return 0
    if seg[0] == UNIT_B_TILES[0]:
        return 1
    raise StructureError(f"first tile {seg[0]} is neither A's {UNIT_A_TILES[0]} nor B's {UNIT_B_TILES[0]}")


def fault_columns(tiling: Tiling) -> list[int]:
    """Interior vertical grid lines crossed by no tile."""
    crossed = [False] * (tiling.rect.width + 1)
    for t in tiling.tiles:
        _, cols = t.orientation.bbox
        for x in range(t.col + 1, t.col + cols):
            crossed[x] = True
    return [x for x in range(1, tiling.rect.width) if not crossed[x]]


def _segments(tiling: Tiling) -> list[tuple[int, int, tuple[Tile, ...]]]:
    """Split at fault lines; yields (start column, width, tiles translated to column 0)."""
    if tiling.rect.height != 4:
        raise ValueError(f"expected a height-4 tiling, got {tiling.rect}")
    cuts = [0] + fault_columns(tiling) + [tiling.rect.width]
    # A tile belongs to the segment its anchor column falls in; a shift keeps tiling order.
    segs: list[list[Tile]] = [[] for _ in cuts[1:]]
    for t in tiling.tiles:
        i = bisect_right(cuts, t.col) - 1
        segs[i].append(t.translated(0, -cuts[i]))
    return [(left, right - left, tuple(seg)) for left, right, seg in zip(cuts, cuts[1:], segs)]


MAX_UNIT_LEN = 16

#: Unit kinds by position: kind i has length 4 * (i // 2 + 1) and is B-type when i is odd.
_KINDS = "ABCDEFGH"
_SHAPES = {kind: (4 * (i // 2 + 1), i % 2) for i, kind in enumerate(_KINDS)}


def enumerate_units(max_len: int) -> list[Unit]:
    """The unit catalog up to ``max_len``, canonically named.

    Kinds: 'A' and 'B' for the two length-4 units (A is the one whose first
    column is an R tile over rows 1-3), then 'C', 'D', ... ordered by
    (length, first-column class A before B).  With two units per length this
    puts every A-type unit at an even position, so e.g. C matches A's first
    column and F matches B's.
    """
    if max_len % 4 or max_len < 4:
        raise ValueError(f"max_len must be a positive multiple of 4, got {max_len}")
    if max_len > MAX_UNIT_LEN:
        raise ResourceLimitError(f"unit catalog bounded at length {MAX_UNIT_LEN}, got {max_len}")
    return [Unit(kind, k, _unit_tiles(k, b)) for kind, (k, b) in _SHAPES.items() if k <= max_len]


def decompose(tiling: Tiling) -> UnitString:
    """Express a height-4 tiling as a concatenation of named units.

    Raises :class:`CatalogError` if a fault-free segment is longer than
    ``MAX_UNIT_LEN``, reporting its length.
    """
    kinds: list[str] = []
    lengths: list[int] = []
    for _left, width, seg in _segments(tiling):
        if width > MAX_UNIT_LEN:
            raise CatalogError(required_length=width, max_len=MAX_UNIT_LEN)
        b = _unit_class(seg)
        if seg != _unit_tiles(width, b):
            raise StructureError(f"fault-free segment of width {width} is not a unit")
        kinds.append(_KINDS[width // 2 - 2 + b])
        lengths.append(width)
    return UnitString(tuple(kinds), tuple(lengths))


def concatenate(kinds: Sequence[str]) -> Tiling:
    """Inverse of :func:`decompose`: lay out the named units left to right."""
    tiles: list[Tile] = []
    col = 0
    for kind in kinds:
        length, b = _SHAPES[kind]
        tiles.extend(t.translated(0, col) for t in _unit_tiles(length, b))
        col += length
    return Tiling(Rect(4, col), tiles)


def ab_map(tiling: Tiling) -> Tiling:
    """Replace each unit by a run of A's or B's according to its first column.

    Idempotent, and fixes every d1 tile (D-orientation tiles in the top row),
    both of which the test suite checks exhaustively at desk scale.
    """
    colors: list[int] = []
    for _left, width, seg in _segments(tiling):
        colors += [_unit_class(seg)] * (width // 4)
    return coloring_to_tiling(GridColoring((tuple(colors),)))


def d1_tiles(tiling: Tiling) -> list[Tile]:
    """D-orientation tiles whose bar lies in the top row of the strip."""
    return [t for t in tiling.tiles if t.orientation is Orientation.D and t.row == 0]


def d1_equiv_check(tiling: Tiling, l: int) -> tuple[bool, bool]:
    """(has an l-AP of any tiles, has an l-AP of d1 tiles) for a height-4 tiling.

    For l >= 3 the two booleans always agree on valid height-4 tilings; the
    test suite asserts this exhaustively.
    """
    if l < 3:
        raise ValueError(f"l must be >= 3, got {l}")
    if tiling.rect.height != 4:
        raise ValueError(f"expected a height-4 tiling, got {tiling.rect}")
    any_ap = has_ap_of_length(tiling, l)
    anchors = {t.anchor for t in d1_tiles(tiling)}
    d1_ap = bool(maximal_runs(anchors, l))
    return any_ap, d1_ap


def coloring_to_tiling(coloring: GridColoring) -> Tiling:
    """Lay out unit A (color 0) or B (color 1) per cell of a one-row coloring.

    The inverse of :func:`tiling_to_coloring`; more than one row is a ``ValueError``.
    """
    return stack_rows(coloring, 1)


def tiling_to_coloring(tiling: Tiling) -> GridColoring:
    """Read off the one-row coloring (A = 0, B = 1) of a tiling made of A and B units only."""
    colors: list[int] = []
    for _left, _width, seg in _segments(tiling):
        if seg not in (UNIT_A_TILES, UNIT_B_TILES):
            raise StructureError("tiling contains a unit other than A or B")
        colors.append(int(seg == UNIT_B_TILES))
    return GridColoring((tuple(colors),))


def stack_rows(coloring: GridColoring, k: int) -> Tiling:
    """k vertically stacked copies of the strip tiling of a one-row ``coloring``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if coloring.height != 1:
        raise ValueError(f"expected a one-row coloring, got {coloring.height} rows")
    colors = coloring.rows[0]
    units = (UNIT_A_TILES, UNIT_B_TILES)
    tiles = [t.translated(4 * j, 4 * i) for j in range(k) for i, color in enumerate(colors) for t in units[color]]
    return Tiling(Rect(4 * k, 4 * len(colors)), tiles)

"""The width-4 calculus: unit decomposition, the A/B projection, and colorings.

Every tiling of a height-4 strip splits at its vertical fault lines into
indecomposable *units*.  There are exactly two units of each length (verified
exhaustively up to the catalog bound ``MAX_UNIT_LEN``): one whose first column
matches unit A (a single R tile over rows 1-3 plus the stem of a U), one
matching unit B (a D bar cell above an R tile).  Replacing each unit by a run
of A's or B's according to that first column is the A/B projection; it fixes
every d1 tile, which is what makes the projection preserve the existence of
long APs.

A strip made of A and B units only is a one-row :class:`~ttr.vdw.GridColoring`
(color 0 for A, 1 for B), so 4xN tilings without an l-term AP correspond to
2-colorings without a monochromatic l-term AP.  ``decompose`` and
``concatenate`` share one catalog of every unit up to ``MAX_UNIT_LEN``, built
once per process; the A/B strips of ``ab_map`` and ``coloring_to_tiling``
are laid out from ``UNIT_A_TILES`` and ``UNIT_B_TILES`` without it.
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass
from typing import Sequence

from .errors import CatalogError, ResourceLimitError, StructureError
from .enumerator import enumerate_tilings
from .grid import TILING_ORDER, Orientation, Rect, Tile, Tiling, tile_cells
from .aps import has_ap_of_length, maximal_runs
from .vdw import GridColoring

UNIT_A_TILES: tuple[Tile, ...] = (
    Tile(Orientation.R, 0, 0),
    Tile(Orientation.D, 0, 1),
    Tile(Orientation.L, 1, 2),
    Tile(Orientation.U, 2, 0),
)

UNIT_B_TILES: tuple[Tile, ...] = (
    Tile(Orientation.D, 0, 0),
    Tile(Orientation.L, 0, 2),
    Tile(Orientation.R, 1, 0),
    Tile(Orientation.U, 2, 1),
)


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


def _first_col_signature(tiles: Sequence[Tile]) -> frozenset[Tile]:
    """The tiles touching the leftmost column, translated so that column is 0."""
    min_col = min(c for t in tiles for _, c in tile_cells(t))
    return frozenset(t.translated(0, -min_col) for t in tiles if min(c for _, c in tile_cells(t)) == min_col)


_A_SIGNATURE = _first_col_signature(UNIT_A_TILES)
_B_SIGNATURE = _first_col_signature(UNIT_B_TILES)


def first_column_class(tiles: Sequence[Tile]) -> str:
    """'A' or 'B' according to which unit's first column ``tiles`` matches."""
    sig = _first_col_signature(tiles)
    if sig == _A_SIGNATURE:
        return "A"
    if sig == _B_SIGNATURE:
        return "B"
    raise StructureError(f"first column {sorted(sig, key=TILING_ORDER)} matches neither A nor B")


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
    out = []
    for left, right in zip(cuts, cuts[1:]):
        seg = tuple(
            sorted(
                (t.translated(0, -left) for t in tiling.tiles if left <= t.col < right),
                key=TILING_ORDER,
            )
        )
        out.append((left, right - left, seg))
    return out


MAX_UNIT_LEN = 16


def enumerate_units(max_len: int) -> list[Unit]:
    """The unit catalog up to ``max_len``, canonically named.

    Kinds: 'A' and 'B' for the two length-4 units (A is the one whose first
    column is an R tile over rows 1-3), then 'C', 'D', ... ordered by
    (length, first-column class A before B, canonical tile order).  With two
    units per length this puts every A-matching unit at an even position, so
    e.g. C matches A's first column and F matches B's.
    """
    if max_len % 4 or max_len < 4:
        raise ValueError(f"max_len must be a positive multiple of 4, got {max_len}")
    if max_len > MAX_UNIT_LEN:
        raise ResourceLimitError(f"unit catalog bounded at length {MAX_UNIT_LEN}, got {max_len}")
    units: list[Unit] = []
    names = string.ascii_uppercase
    for k in range(4, max_len + 1, 4):
        found = []
        for t in enumerate_tilings(Rect(4, k)):
            if not fault_columns(t):
                found.append((first_column_class(t.tiles) != "A", list(map(TILING_ORDER, t.tiles)), t.tiles))
        found.sort()
        for _, _, tiles in found:
            if len(units) >= len(names):
                raise ResourceLimitError("unit catalog exceeds single-letter names")
            units.append(Unit(names[len(units)], k, tiles))
    return units


@functools.cache
def _catalog() -> tuple[dict[tuple[Tile, ...], Unit], dict[str, Unit]]:
    """Every unit up to ``MAX_UNIT_LEN`` by tile set and by kind, built on first use.

    Units are immutable, so the two dicts are shared.
    """
    units = enumerate_units(MAX_UNIT_LEN)
    return {u.tiles: u for u in units}, {u.kind: u for u in units}


def decompose(tiling: Tiling) -> UnitString:
    """Express a height-4 tiling as a concatenation of catalog units.

    Raises :class:`CatalogError` if a fault-free segment is longer than
    ``MAX_UNIT_LEN``, reporting its length.
    """
    by_tiles = _catalog()[0]
    kinds: list[str] = []
    lengths: list[int] = []
    for _left, width, seg in _segments(tiling):
        unit = by_tiles.get(seg)
        if unit is None:
            raise CatalogError(required_length=width, max_len=MAX_UNIT_LEN)
        kinds.append(unit.kind)
        lengths.append(unit.length)
    return UnitString(tuple(kinds), tuple(lengths))


def concatenate(kinds: Sequence[str]) -> Tiling:
    """Inverse of :func:`decompose`: lay out the named units left to right."""
    by_kind = _catalog()[1]
    tiles: list[Tile] = []
    col = 0
    for kind in kinds:
        unit = by_kind[kind]
        tiles.extend(t.translated(0, col) for t in unit.tiles)
        col += unit.length
    return Tiling(Rect(4, col), tiles)


def ab_map(tiling: Tiling) -> Tiling:
    """Replace each unit by a run of A's or B's according to its first column.

    Idempotent, and fixes every d1 tile (D-orientation tiles in the top row),
    both of which the test suite checks exhaustively at desk scale.
    """
    colors: list[int] = []
    for _left, width, seg in _segments(tiling):
        colors += [int(first_column_class(seg) != "A")] * (width // 4)
    return _ab_strip(colors)


def _ab_strip(colors: Sequence[int]) -> Tiling:
    """The height-4 strip of unit A (color 0) or B (color 1) per 4-column block, left to right."""
    units = (UNIT_A_TILES, UNIT_B_TILES)
    tiles = [t.translated(0, 4 * i) for i, color in enumerate(colors) for t in units[color]]
    return Tiling(Rect(4, 4 * len(colors)), tiles)


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
    d1_ap = any(length >= l for _s, _st, length in maximal_runs(anchors, 2))
    return any_ap, d1_ap


def coloring_to_tiling(coloring: GridColoring) -> Tiling:
    """Lay out unit A (color 0) or B (color 1) per cell of a one-row coloring.

    The inverse of :func:`tiling_to_coloring`; more than one row is a ``ValueError``.
    """
    if coloring.height != 1:
        raise ValueError(f"expected a one-row coloring, got {coloring.height} rows")
    return _ab_strip(coloring.rows[0])


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
    strip = coloring_to_tiling(coloring)
    tiles: list[Tile] = []
    for j in range(k):
        tiles.extend(t.translated(4 * j, 0) for t in strip.tiles)
    return Tiling(Rect(4 * k, strip.rect.width), tiles)

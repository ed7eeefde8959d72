"""The width-4 calculus: unit decomposition, the A/B projection, and colorings.

Every tiling of a height-4 strip splits at its vertical fault lines into
indecomposable *units*.  There are exactly two units of each length (verified
exhaustively up to the catalog bound): one whose first column matches unit A
(a single R tile over rows 1-3 plus the stem of a U), one matching unit B
(a D bar cell above an R tile).  Replacing each unit by a run of A's or B's
according to that first column is the A/B projection; it fixes every d1 tile,
which is what makes the projection preserve the existence of long APs.

``decompose`` and ``concatenate`` called without a catalog share one default
catalog (every unit up to ``MAX_UNIT_LEN``), built once per process.
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CatalogError, ParseError, ResourceLimitError, StructureError
from .enumerator import enumerate_tilings
from .grid import TILING_ORDER, Orientation, Rect, Tile, Tiling, read_header, tile_cells
from .aps import has_ap_of_length, maximal_runs

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

    @property
    def total_length(self) -> int:
        return sum(self.lengths)


@dataclass(frozen=True)
class TwoColoring:
    """A sequence over {A, B}; position i maps to the unit at columns 4i..4i+3."""

    colors: tuple[str, ...]

    def __post_init__(self):
        if not self.colors:
            raise ValueError("coloring must be nonempty")
        bad = set(self.colors) - {"A", "B"}
        if bad:
            raise ValueError(f"colors must be 'A' or 'B', got {sorted(bad)}")

    @classmethod
    def from_string(cls, s: str) -> "TwoColoring":
        return cls(tuple(s))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "TwoColoring":
        return cls(tuple("A" if b == 0 else "B" for b in bits))

    def to_bits(self) -> tuple[int, ...]:
        return tuple(0 if c == "A" else 1 for c in self.colors)

    def __str__(self) -> str:
        return "".join(self.colors)

    def __len__(self) -> int:
        return len(self.colors)


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


def _segments(tiling: Tiling) -> list[tuple[int, tuple[Tile, ...]]]:
    """Split at fault lines; yields (start column, tiles translated to column 0)."""
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
        out.append((left, seg))
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
        for t in enumerate_tilings(Rect(4, k), max_area=max(64, 4 * k)):
            if not fault_columns(t):
                found.append((first_column_class(t.tiles) != "A", list(map(TILING_ORDER, t.tiles)), t.tiles))
        found.sort()
        for _, _, tiles in found:
            if len(units) >= len(names):
                raise ResourceLimitError("unit catalog exceeds single-letter names")
            units.append(Unit(names[len(units)], k, tiles))
    return units


class UnitCatalog:
    """Lookup from tile sets to named units."""

    def __init__(self, max_len: int = MAX_UNIT_LEN):
        self.max_len = max_len
        self.units = enumerate_units(max_len)
        self._by_tiles = {u.tiles: u for u in self.units}
        self._by_kind = {u.kind: u for u in self.units}

    def by_kind(self, kind: str) -> Unit:
        return self._by_kind[kind]

    def lookup(self, tiles: tuple[Tile, ...]) -> Unit | None:
        return self._by_tiles.get(tiles)


@functools.cache
def _default_catalog() -> UnitCatalog:
    """The full catalog, built on first use; units are immutable, so it is shared."""
    return UnitCatalog()


def decompose(tiling: Tiling, catalog: UnitCatalog | None = None) -> UnitString:
    """Express a height-4 tiling as a concatenation of catalog units.

    Raises :class:`CatalogError` if a fault-free segment is longer than the
    catalog covers, reporting the required length.
    """
    catalog = catalog or _default_catalog()
    kinds: list[str] = []
    lengths: list[int] = []
    for left, seg in _segments(tiling):
        unit = catalog.lookup(seg)
        if unit is None:
            width = max(t.col for t in seg) + 2 - min(t.col for t in seg)
            raise CatalogError(required_length=max(width, catalog.max_len + 4))
        kinds.append(unit.kind)
        lengths.append(unit.length)
    return UnitString(tuple(kinds), tuple(lengths))


def concatenate(kinds: Sequence[str], catalog: UnitCatalog | None = None) -> Tiling:
    """Inverse of :func:`decompose`: lay out the named units left to right."""
    catalog = catalog or _default_catalog()
    tiles: list[Tile] = []
    col = 0
    for kind in kinds:
        unit = catalog.by_kind(kind)
        tiles.extend(t.translated(0, col) for t in unit.tiles)
        col += unit.length
    return Tiling(Rect(4, col), tiles)


def ab_map(tiling: Tiling) -> Tiling:
    """Replace each unit by a run of A's or B's according to its first column.

    Idempotent, and fixes every d1 tile (D-orientation tiles in the top row),
    both of which the test suite checks exhaustively at desk scale.
    """
    tiles: list[Tile] = []
    for left, seg in _segments(tiling):
        width = max(c for t in seg for _, c in tile_cells(t)) + 1
        source = UNIT_A_TILES if first_column_class(seg) == "A" else UNIT_B_TILES
        for block in range(width // 4):
            tiles.extend(t.translated(0, left + 4 * block) for t in source)
    return Tiling(tiling.rect, tiles)


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


def coloring_to_tiling(coloring: TwoColoring) -> Tiling:
    """Lay out unit A or B per color; inverse of :func:`tiling_to_coloring`."""
    tiles: list[Tile] = []
    for i, color in enumerate(coloring.colors):
        source = UNIT_A_TILES if color == "A" else UNIT_B_TILES
        tiles.extend(t.translated(0, 4 * i) for t in source)
    return Tiling(Rect(4, 4 * len(coloring)), tiles)


def tiling_to_coloring(tiling: Tiling) -> TwoColoring:
    """Read off the A/B sequence of a tiling made of A and B units only."""
    a_set, b_set = set(UNIT_A_TILES), set(UNIT_B_TILES)
    colors: list[str] = []
    for _left, seg in _segments(tiling):
        seg_set = set(seg)
        if seg_set == a_set:
            colors.append("A")
        elif seg_set == b_set:
            colors.append("B")
        else:
            raise StructureError("tiling contains a unit other than A or B")
    return TwoColoring(tuple(colors))


def stack_rows(coloring: TwoColoring, k: int) -> Tiling:
    """k vertically stacked copies of the strip tiling of ``coloring``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    strip = coloring_to_tiling(coloring)
    tiles: list[Tile] = []
    for j in range(k):
        tiles.extend(t.translated(4 * j, 0) for t in strip.tiles)
    return Tiling(Rect(4 * k, strip.rect.width), tiles)


# --------------------------------------------------------------------------
# TCOLOR text format
#
#   line 1:       TCOLOR 1
#   line 2:       <h> <w>
#   lines 3..h+2: w characters from {A, B}

TCOLOR_MAGIC = "TCOLOR 1"


def write_tcolor(rows: Sequence[str]) -> str:
    h = len(rows)
    w = len(rows[0]) if rows else 0
    lines = [TCOLOR_MAGIC, f"{h} {w}"]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def read_tcolor(data: str | bytes) -> list[str]:
    """Parse TCOLOR; returns the rows as strings over {A, B}."""
    h, w, body = read_header(data, TCOLOR_MAGIC)
    if len(body) != h:
        raise ParseError(len(body) + 3, 1, f"expected {h} rows, found {len(body)}")
    rows = []
    for r, row in enumerate(body):
        if len(row) != w:
            raise ParseError(3 + r, 1, f"expected {w} characters, found {len(row)}")
        for c, ch in enumerate(row):
            if ch not in "AB":
                raise ParseError(3 + r, c + 1, f"bad color {ch!r} (want A or B)")
        rows.append(row)
    return rows


def coloring_to_tcolor(coloring: TwoColoring) -> str:
    return write_tcolor([str(coloring)])


def tcolor_to_coloring(data: str | bytes) -> TwoColoring:
    rows = read_tcolor(data)
    if len(rows) != 1:
        raise ParseError(2, 1, f"expected a 1-row coloring, got {len(rows)} rows")
    return TwoColoring.from_string(rows[0])

"""Tile geometry, tiling representation, validity checking, and the TTILING format.

Cells are addressed ``(row, col)`` with rows numbered top-down from 0 and
columns left-to-right from 0.  A tile's *anchor* is the minimum-row,
minimum-col corner of its bounding box, so translating a tile translates its
anchor by the same vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, TilingError

Cell = tuple[int, int]


class Orientation(Enum):
    """The four T-tetromino orientations, named by where the stem points."""

    U = "u"
    D = "d"
    L = "l"
    R = "r"

    @property
    def index(self) -> int:
        """Position in the canonical order U < D < L < R."""
        return _ORIENT_INDEX[self]

    @property
    def offsets(self) -> tuple[Cell, ...]:
        """Cell offsets from the anchor."""
        return TILE_OFFSETS[self]


ORIENTATIONS: tuple[Orientation, ...] = (
    Orientation.U,
    Orientation.D,
    Orientation.L,
    Orientation.R,
)

_ORIENT_INDEX = {o: i for i, o in enumerate(ORIENTATIONS)}

# Offsets are fixed by the orientation: the bar plus a centered stem.
TILE_OFFSETS: dict[Orientation, tuple[Cell, ...]] = {
    Orientation.U: ((0, 1), (1, 0), (1, 1), (1, 2)),
    Orientation.D: ((0, 0), (0, 1), (0, 2), (1, 1)),
    Orientation.L: ((0, 1), (1, 0), (1, 1), (2, 1)),
    Orientation.R: ((0, 0), (1, 0), (1, 1), (2, 0)),
}

# Bounding box (rows, cols) per orientation.
TILE_BBOX: dict[Orientation, tuple[int, int]] = {
    Orientation.U: (2, 3),
    Orientation.D: (2, 3),
    Orientation.L: (3, 2),
    Orientation.R: (3, 2),
}

_OFFSETS_TO_ORIENT = {frozenset(v): k for k, v in TILE_OFFSETS.items()}


@dataclass(frozen=True)
class Tile:
    """A placed T-tetromino: orientation plus anchor position."""

    orientation: Orientation
    row: int
    col: int

    @property
    def anchor(self) -> Cell:
        return (self.row, self.col)

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (self.row, self.col, self.orientation.index)

    @property
    def type_code(self) -> str:
        """Two-character code: orientation letter plus 1-based top row."""
        return f"{self.orientation.value}{self.row + 1}"

    def translated(self, dr: int, dc: int) -> "Tile":
        return Tile(self.orientation, self.row + dr, self.col + dc)

    def __repr__(self) -> str:
        return f"{self.orientation.value.upper()}@({self.row},{self.col})"


def tile_cells(tile: Tile) -> frozenset[Cell]:
    """The four cells covered by ``tile``."""
    r, c = tile.row, tile.col
    return frozenset((r + dr, c + dc) for dr, dc in TILE_OFFSETS[tile.orientation])


@dataclass(frozen=True)
class Rect:
    """A rectangle of grid cells."""

    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(f"rectangle sides must be >= 1, got {self.height}x{self.width}")

    @property
    def area(self) -> int:
        return self.height * self.width

    def cells(self) -> Iterator[Cell]:
        for r in range(self.height):
            for c in range(self.width):
                yield (r, c)

    def __contains__(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.height and 0 <= c < self.width

    def __str__(self) -> str:
        return f"{self.height}x{self.width}"


def is_tileable(rect: Rect) -> bool:
    """Whether a complete T-tetromino tiling of ``rect`` exists.

    Holds exactly when both sides are multiples of 4; cross-checked against
    the exhaustive enumerator in the test suite.
    """
    return rect.height % 4 == 0 and rect.width % 4 == 0


class ViolationKind(Enum):
    OUT_OF_BOUNDS = "OUT_OF_BOUNDS"
    OVERLAP = "OVERLAP"
    UNCOVERED = "UNCOVERED"
    BAD_SHAPE = "BAD_SHAPE"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    cell: Cell | None = None
    tiles: tuple[int, ...] = ()
    note: str = ""

    def __str__(self) -> str:
        parts = [self.kind.value]
        if self.cell is not None:
            parts.append(f"cell={self.cell}")
        if self.tiles:
            parts.append(f"tiles={self.tiles}")
        if self.note:
            parts.append(self.note)
        return " ".join(parts)


@dataclass(frozen=True)
class ValidityReport:
    """All violations found in a candidate tiling; ``ok`` iff there are none."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_kind(self, kind: ViolationKind) -> list[Violation]:
        return [v for v in self.violations if v.kind is kind]


def validate(rect: Rect, tiles: Sequence[Tile]) -> ValidityReport:
    """Check bounds, disjointness, and complete cover; collects all violations.

    Violations are data rather than failures so that partially built tile
    sets (and decoded solver witnesses) can be inspected.
    """
    violations: list[Violation] = []
    owner: dict[Cell, int] = {}
    for i, tile in enumerate(tiles):
        for cell in tile_cells(tile):
            if cell not in rect:
                violations.append(Violation(ViolationKind.OUT_OF_BOUNDS, cell=cell, tiles=(i,)))
                continue
            if cell in owner:
                violations.append(
                    Violation(ViolationKind.OVERLAP, cell=cell, tiles=(owner[cell], i))
                )
            else:
                owner[cell] = i
    for cell in rect.cells():
        if cell not in owner:
            violations.append(Violation(ViolationKind.UNCOVERED, cell=cell))
    return ValidityReport(tuple(violations))


class Tiling:
    """A complete, validated tiling of a rectangle.

    Tiles are stored in canonical order (by anchor row, then anchor col) and
    the object is immutable; construction fails with :class:`TilingError`
    unless ``validate`` reports ok.
    """

    __slots__ = ("rect", "tiles", "_owner", "_hash")

    def __init__(self, rect: Rect, tiles: Iterable[Tile]):
        ordered = tuple(sorted(tiles, key=lambda t: t.sort_key))
        report = validate(rect, ordered)
        if not report.ok:
            raise TilingError(report)
        self.rect = rect
        self.tiles = ordered
        owner: dict[Cell, int] = {}
        for i, tile in enumerate(ordered):
            for cell in tile_cells(tile):
                owner[cell] = i
        self._owner = owner
        self._hash = hash((rect, ordered))

    @property
    def tile_count(self) -> int:
        return len(self.tiles)

    def owner_index(self, cell: Cell) -> int:
        return self._owner[cell]

    def tile_at(self, cell: Cell) -> Tile:
        return self.tiles[self._owner[cell]]

    def anchors_by_orientation(self) -> dict[Orientation, set[Cell]]:
        out: dict[Orientation, set[Cell]] = {o: set() for o in ORIENTATIONS}
        for t in self.tiles:
            out[t.orientation].add(t.anchor)
        return out

    def rotated_180(self) -> "Tiling":
        """The image of this tiling under 180-degree rotation of the rectangle."""
        return Tiling(self.rect, (rotate_tile_180(self.rect, t) for t in self.tiles))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tiling)
            and self.rect == other.rect
            and self.tiles == other.tiles
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Tiling({self.rect}, {self.tile_count} tiles)"


_ROT_ORIENT = {
    Orientation.U: Orientation.D,
    Orientation.D: Orientation.U,
    Orientation.L: Orientation.R,
    Orientation.R: Orientation.L,
}


def rotate_tile_180(rect: Rect, tile: Tile) -> Tile:
    """Image of a placement under 180-degree rotation of ``rect``."""
    rows, cols = TILE_BBOX[tile.orientation]
    return Tile(
        _ROT_ORIENT[tile.orientation],
        rect.height - rows - tile.row,
        rect.width - cols - tile.col,
    )


def _corner_count_at(tiling: Tiling, point: Cell) -> int:
    """Number of tile outline corners meeting at an interior grid point."""
    r, c = point
    quads = ((r - 1, c - 1), (r - 1, c), (r, c - 1), (r, c))
    owners = [tiling.owner_index(q) for q in quads]
    corners = 0
    for t in set(owners):
        mask = tuple(o == t for o in owners)
        covered = sum(mask)
        if covered in (1, 3):
            corners += 1
        elif covered == 2 and mask in ((True, False, False, True), (False, True, True, False)):
            # Two diagonal cells of one tile meet point-wise: two corners.
            corners += 2
    return corners


#: Interior grid-point classes (row mod 4, col mod 4) where four tile corners
#: must meet in every complete tiling.
CUT_CLASSES = frozenset({(0, 0), (2, 2)})
#: Classes where no tile corner may lie.
CORNERLESS_CLASSES = frozenset({(0, 2), (2, 0)})

#: The placement classes (orientation, anchor row mod 4, anchor col mod 4)
#: that occur in complete tilings of rectangles with both sides divisible by
#: 4: the cut structure of Walkup's theorem (D. W. Walkup, "Covering a
#: rectangle with T-tetrominoes", Amer. Math. Monthly 72, 1965), checked
#: against every tiling of the desk-scale rectangles in the tests.
WALKUP_CLASSES = frozenset(
    (o, r, c)
    for o, cells in (
        (Orientation.D, ((0, 0), (0, 1), (2, 2), (2, 3))),
        (Orientation.U, ((0, 2), (0, 3), (2, 0), (2, 1))),
        (Orientation.L, ((0, 2), (1, 2), (2, 0), (3, 0))),
        (Orientation.R, ((0, 0), (1, 0), (2, 2), (3, 2))),
    )
    for r, c in cells
)


def cut_cornerless_ok(tiling: Tiling) -> bool:
    """Structural self-check on the forced corner pattern of complete tilings.

    At every interior grid point whose coordinates are congruent to (0,0) or
    (2,2) mod 4, exactly four tile corners meet; at points congruent to (0,2)
    or (2,0) mod 4 no tile corner lies.  Every valid tiling of a rectangle
    with both sides divisible by 4 satisfies this (verified exhaustively at
    desk scale in the tests), so a ``False`` return indicates a bug upstream.
    """
    rect = tiling.rect
    if rect.height % 4 or rect.width % 4:
        raise ValueError(f"rectangle {rect} does not have both sides divisible by 4")
    for r in range(1, rect.height):
        for c in range(1, rect.width):
            cls = (r % 4, c % 4)
            if cls in CUT_CLASSES:
                if _corner_count_at(tiling, (r, c)) != 4:
                    return False
            elif cls in CORNERLESS_CLASSES:
                if _corner_count_at(tiling, (r, c)) != 0:
                    return False
    return True


# --------------------------------------------------------------------------
# TTILING text format
#
#   line 1:        TTILING 1
#   line 2:        <h> <w>
#   lines 3..h+2:  w whitespace-separated tile ids; equal ids form one tile

FORMAT_MAGIC = "TTILING 1"


def _is_decimal(token: str) -> bool:
    return token.isascii() and token.isdigit()


def read_header(data: str | bytes, magic: str) -> tuple[int, int, list[str]]:
    """Decode a text file and parse its ``<magic>`` and ``<h> <w>`` lines.

    The TTILING, TCOLOR and CHAIN readers share these rules: bytes must be
    valid UTF-8, lines end in LF only, and both dimensions are decimal and
    >= 1.  Returns (h, w, the lines after the dimensions line); line i of
    that list is line i + 3 of the file.  Raises :class:`ParseError`.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(1, 1, f"not valid UTF-8: {e}") from None
    if "\r" in data:
        at = data.index("\r")
        line = data.count("\n", 0, at) + 1
        raise ParseError(line, 1, "CR line endings are not allowed (LF only)")
    lines = data.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != magic:
        raise ParseError(1, 1, f"expected header {magic!r}")
    if len(lines) < 2:
        raise ParseError(2, 1, "missing dimensions line")
    dims = lines[1].split()
    if len(dims) != 2 or not all(_is_decimal(t) for t in dims):
        raise ParseError(2, 1, "expected '<h> <w>' with decimal dimensions")
    h, w = int(dims[0]), int(dims[1])
    if h < 1 or w < 1:
        raise ParseError(2, 1, "dimensions must be >= 1")
    return h, w, lines[2:]


def write_tiling(tiling: Tiling) -> str:
    """Serialize with canonical tile ids 0..n-1 (canonical tile order)."""
    h, w = tiling.rect.height, tiling.rect.width
    lines = [FORMAT_MAGIC, f"{h} {w}"]
    for r in range(h):
        lines.append(" ".join(str(tiling.owner_index((r, c))) for c in range(w)))
    return "\n".join(lines) + "\n"


def read_tiling(data: str | bytes) -> Tiling:
    """Parse the TTILING format.

    Raises :class:`ParseError` for syntax problems (with line/column) and
    :class:`TilingError` when the id regions do not form valid tiles.
    """
    h, w, body = read_header(data, FORMAT_MAGIC)
    if len(body) > h:
        raise ParseError(h + 3, 1, f"unexpected content after {h} grid rows")

    cells_by_id: dict[int, list[Cell]] = {}
    for r in range(h):
        if r >= len(body):
            raise ParseError(len(body) + 3, 1, f"expected {h} grid rows, found {r}")
        row_tokens = body[r].split()
        if len(row_tokens) != w:
            raise ParseError(3 + r, 1, f"expected {w} ids, found {len(row_tokens)}")
        for c, token in enumerate(row_tokens):
            if not _is_decimal(token):
                col = body[r].index(token) + 1
                raise ParseError(3 + r, col, f"bad tile id {token!r}")
            cells_by_id.setdefault(int(token), []).append((r, c))

    violations: list[Violation] = []
    n_expected = (h * w) // 4 if (h * w) % 4 == 0 else -1
    if n_expected < 0 or set(cells_by_id) != set(range(n_expected)):
        violations.append(
            Violation(
                ViolationKind.BAD_SHAPE,
                note=f"tile ids must be exactly 0..{max(n_expected - 1, 0)}, "
                f"got {len(cells_by_id)} distinct ids",
            )
        )
    tiles: list[Tile] = []
    for tid, cells in sorted(cells_by_id.items()):
        if len(cells) != 4:
            violations.append(
                Violation(ViolationKind.BAD_SHAPE, cell=cells[0], note=f"id {tid} covers {len(cells)} cells")
            )
            continue
        r0 = min(r for r, _ in cells)
        c0 = min(c for _, c in cells)
        shape = frozenset((r - r0, c - c0) for r, c in cells)
        orient = _OFFSETS_TO_ORIENT.get(shape)
        if orient is None:
            violations.append(
                Violation(ViolationKind.BAD_SHAPE, cell=(r0, c0), note=f"id {tid} is not a T-tetromino")
            )
            continue
        tiles.append(Tile(orient, r0, c0))
    if violations:
        raise TilingError(ValidityReport(tuple(violations)))
    return Tiling(Rect(h, w), tiles)

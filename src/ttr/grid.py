"""Tile geometry, tiling representation, validity checking, and the TTILING format.

Cells are addressed ``(row, col)`` with rows numbered top-down from 0 and
columns left-to-right from 0.  A tile's *anchor* is the minimum-row,
minimum-col corner of its bounding box, so translating a tile translates its
anchor by the same vector.

A :class:`Tiling` keeps its cell-to-tile map as one flat row-major list: the
index of the tile covering cell (r, c) of an h x w rectangle sits at
``r * w + c``.  ``validate`` builds the list, and the readers (``owner_index``,
``tile_at``, ``owner_row``, the corner count of the cut check, ``write_tiling``
and the renderers) index it or slice one row at a time.

``placement_table(rect)`` interns every placement that fits, once per
rectangle in a bounded cache: the tiles in canonical placement order, their
flat cells, a lookup from a sorted cell quadruple to the tile, and the
Walkup flags.  The enumerator, the CNF placement index, ``read_tiling`` and
the layers above them take their tiles from it, by lookup or by index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache, lru_cache
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ParseError, TilingError

Cell = tuple[int, int]


class Orientation(Enum):
    """The four T-tetromino orientations, named by where the stem points.

    Each member's value is its letter.  Its position in the canonical order
    U < D < L < R (``index``), its cell offsets from the anchor (``offsets``)
    and its bounding box (``bbox``, rows and cols) are plain attributes, so
    per-tile loops read them without hashing the member (``Enum.__hash__``
    runs in Python).
    """

    # Offsets are fixed by the orientation: the bar plus a centered stem.
    U = ("u", ((0, 1), (1, 0), (1, 1), (1, 2)), (2, 3))
    D = ("d", ((0, 0), (0, 1), (0, 2), (1, 1)), (2, 3))
    L = ("l", ((0, 1), (1, 0), (1, 1), (2, 1)), (3, 2))
    R = ("r", ((0, 0), (1, 0), (1, 1), (2, 0)), (3, 2))

    def __new__(cls, letter: str, offsets: tuple[Cell, ...], bbox: tuple[int, int]):
        member = object.__new__(cls)
        member._value_ = letter
        member.index = len(cls.__members__)
        member.offsets = offsets
        member.bbox = bbox
        return member


ORIENTATIONS: tuple[Orientation, ...] = tuple(Orientation)


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
    def type_code(self) -> str:
        """Two-character code: orientation letter plus 1-based top row."""
        return f"{self.orientation.value}{self.row + 1}"

    def translated(self, dr: int, dc: int) -> "Tile":
        return Tile(self.orientation, self.row + dr, self.col + dc)

    def __repr__(self) -> str:
        return f"{self.orientation.value.upper()}@({self.row},{self.col})"


#: Sort key of the tiling order: anchor row, anchor col, orientation index.
TILING_ORDER = attrgetter("row", "col", "orientation.index")
#: Sort key of the placement order: orientation index, anchor row, anchor col.
PLACEMENT_ORDER = attrgetter("orientation.index", "row", "col")


def tile_cells(tile: Tile) -> frozenset[Cell]:
    """The four cells covered by ``tile``."""
    r, c = tile.row, tile.col
    return frozenset([(r + dr, c + dc) for dr, dc in tile.orientation.offsets])


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
    """All violations found in a candidate tiling; ``ok`` iff there are none.

    ``owner`` is the flat row-major cell map: entry ``r * w + c`` is the
    index of the first tile that covers cell (r, c), or -1 if none does.  It
    takes no part in comparison.
    """

    violations: tuple[Violation, ...]
    owner: list[int] = field(default_factory=list, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_kind(self, kind: ViolationKind) -> list[Violation]:
        return [v for v in self.violations if v.kind is kind]


def validate(rect: Rect, tiles: Sequence[Tile]) -> ValidityReport:
    """Check bounds, disjointness, and complete cover; collects all violations.

    Violations are data rather than failures so that partially built tile
    sets (and decoded solver witnesses) can be inspected.  A tile's
    violations are listed in the iteration order of its ``tile_cells``, then
    uncovered cells in row-major order.
    """
    h, w = rect.height, rect.width
    flat = _flat_steps(w)
    violations: list[Violation] = []
    owner = [-1] * (h * w)
    for i, tile in enumerate(tiles):
        o, r, c = tile.orientation, tile.row, tile.col
        rows, cols = o.bbox
        if 0 <= r and r + rows <= h and 0 <= c and c + cols <= w:
            k = r * w + c
            a, b, d, e = flat[o.index]
            a += k
            b += k
            d += k
            e += k
            if owner[a] == owner[b] == owner[d] == owner[e] == -1:
                owner[a] = owner[b] = owner[d] = owner[e] = i
                continue
        # Out of bounds or overlapping: report this tile cell by cell.
        for cell in tile_cells(tile):
            x, y = cell
            if not (0 <= x < h and 0 <= y < w):
                violations.append(Violation(ViolationKind.OUT_OF_BOUNDS, cell=cell, tiles=(i,)))
                continue
            first = owner[x * w + y]
            if first == -1:
                owner[x * w + y] = i
            elif first != i:
                violations.append(Violation(ViolationKind.OVERLAP, cell=cell, tiles=(first, i)))
    if -1 in owner:
        for k, first in enumerate(owner):
            if first == -1:
                violations.append(Violation(ViolationKind.UNCOVERED, cell=divmod(k, w)))
    return ValidityReport(tuple(violations), owner)


@cache
def _flat_steps(width: int) -> tuple[tuple[int, int, int, int], ...]:
    """Per orientation index, its cell offsets as flat row-major steps at ``width`` columns."""
    return tuple(tuple(dr * width + dc for dr, dc in o.offsets) for o in ORIENTATIONS)


class Tiling:
    """A complete, validated tiling of a rectangle.

    Tiles are stored in canonical order (by anchor row, then anchor col) and
    the object is immutable; construction fails with :class:`TilingError`
    unless ``validate`` reports ok.  The cell-to-tile map is the flat
    row-major list ``validate`` built; the hash is computed on first use.
    """

    __slots__ = ("rect", "tiles", "_owner", "_hash")

    def __init__(self, rect: Rect, tiles: Iterable[Tile]):
        ordered = tuple(sorted(tiles, key=TILING_ORDER))
        report = validate(rect, ordered)
        if not report.ok:
            raise TilingError(report)
        self.rect = rect
        self.tiles = ordered
        self._owner = report.owner
        self._hash = None

    @property
    def tile_count(self) -> int:
        return len(self.tiles)

    def owner_index(self, cell: Cell) -> int:
        """Index in ``tiles`` of the tile covering ``cell``; ``KeyError`` outside the rectangle."""
        r, c = cell
        w = self.rect.width
        if 0 <= r < self.rect.height and 0 <= c < w:
            return self._owner[r * w + c]
        raise KeyError(cell)

    def tile_at(self, cell: Cell) -> Tile:
        return self.tiles[self.owner_index(cell)]

    def owner_row(self, r: int) -> list[int]:
        """The tile indices of row ``r``, left to right (a fresh list)."""
        w = self.rect.width
        return self._owner[r * w : (r + 1) * w]

    def anchors_by_orientation(self) -> dict[Orientation, set[Cell]]:
        groups: tuple[set[Cell], ...] = tuple(set() for _ in ORIENTATIONS)
        for t in self.tiles:
            groups[t.orientation.index].add((t.row, t.col))
        return {o: groups[o.index] for o in ORIENTATIONS}

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
        if self._hash is None:
            self._hash = hash((self.rect, self.tiles))
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
    rows, cols = tile.orientation.bbox
    return Tile(
        _ROT_ORIENT[tile.orientation],
        rect.height - rows - tile.row,
        rect.width - cols - tile.col,
    )


def _corner_count_at(tiling: Tiling, point: Cell) -> int:
    """Number of tile outline corners meeting at an interior grid point."""
    r, c = point
    owner, w = tiling._owner, tiling.rect.width
    k = r * w + c
    quad = (owner[k - w - 1], owner[k - w], owner[k - 1], owner[k])
    corners = 0
    for t in set(quad):
        covered = quad.count(t)
        if covered in (1, 3):
            corners += 1
        elif covered == 2 and (quad[0] == quad[3] == t or quad[1] == quad[2] == t):
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


class PlacementTable(NamedTuple):
    """Interned placements of a rectangle; ``cells[i]`` are the sorted flat cells of ``tiles[i]``.

    ``walkup[i]`` says whether the class of ``tiles[i]`` is in ``WALKUP_CLASSES``.
    """

    tiles: tuple[Tile, ...]
    cells: tuple[tuple[int, int, int, int], ...]
    by_cells: dict[tuple[int, int, int, int], Tile]
    walkup: tuple[bool, ...]


@lru_cache(maxsize=32)
def placement_table(rect: Rect) -> PlacementTable:
    """The placement table of ``rect``; the most recently used 32 are kept."""
    w = rect.width
    tiles, cells, walkup = [], [], []
    for o, steps in zip(ORIENTATIONS, _flat_steps(w)):
        a, b, d, e = sorted(steps)
        classes = {(r, c) for p, r, c in WALKUP_CLASSES if p is o}
        rows, cols = o.bbox
        for r in range(rect.height - rows + 1):
            for c in range(w - cols + 1):
                k = r * w + c
                tiles.append(Tile(o, r, c))
                cells.append((k + a, k + b, k + d, k + e))
                walkup.append((r & 3, c & 3) in classes)
    return PlacementTable(tuple(tiles), tuple(cells), dict(zip(cells, tiles)), tuple(walkup))


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
    # The interior even-even points are exactly those in CUT_CLASSES or CORNERLESS_CLASSES.
    for r in range(2, rect.height, 2):
        for c in range(2, rect.width, 2):
            expected = 4 if (r % 4, c % 4) in CUT_CLASSES else 0
            if _corner_count_at(tiling, (r, c)) != expected:
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
    name = _id_names(tiling.tile_count).__getitem__
    owner = tiling._owner
    lines = [FORMAT_MAGIC, f"{h} {w}"]
    lines += [" ".join(map(name, owner[k : k + w])) for k in range(0, h * w, w)]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=8)
def _id_names(n: int) -> tuple[str, ...]:
    return tuple(map(str, range(n)))


@lru_cache(maxsize=8)
def _id_values(n: int) -> dict[str, int]:
    """``{str(i): i}`` for ids 0..n-1: the canonical spelling of every id of an n-tile file."""
    return {name: i for i, name in enumerate(_id_names(n))}


def _parse_ids(body: list[str], h: int, w: int) -> list[int]:
    """The ids of the h grid rows, each row w decimal tokens; raises :class:`ParseError` at the first fault."""
    ids: list[int] = []
    for r in range(h):
        if r >= len(body):
            raise ParseError(len(body) + 3, 1, f"expected {h} grid rows, found {r}")
        row_tokens = body[r].split()
        if len(row_tokens) != w:
            raise ParseError(3 + r, 1, f"expected {w} ids, found {len(row_tokens)}")
        if not _is_decimal("".join(row_tokens)):
            # Some token is bad: find the first one to report its column.
            token = next(t for t in row_tokens if not _is_decimal(t))
            raise ParseError(3 + r, body[r].index(token) + 1, f"bad tile id {token!r}")
        ids.extend(map(int, row_tokens))
    return ids


def read_tiling(data: str | bytes) -> Tiling:
    """Parse the TTILING format; each id's cells are looked up in the placement table.

    Raises :class:`ParseError` for syntax problems (with line/column) and
    :class:`TilingError` when the id regions do not form valid tiles.
    """
    h, w, body = read_header(data, FORMAT_MAGIC)
    if len(body) > h:
        raise ParseError(h + 3, 1, f"unexpected content after {h} grid rows")

    n = h * w
    ids: list[int] = []
    # Map each token through the table of canonical ids, built only when the rows have room
    # for n tokens, so that it never outgrows the input.  Any miss re-parses the rows below.
    if sum(map(len, body)) >= n:
        value = _id_values(n // 4).__getitem__
        try:
            for line in body:
                tokens = line.split()
                if len(tokens) != w:
                    break
                ids += map(value, tokens)
        except KeyError:
            pass
    if len(ids) != n:
        ids = _parse_ids(body, h, w)
    # Flat row-major cell indices grouped by id; a stable sort keeps each group row-major.
    order = sorted(range(n), key=ids.__getitem__)
    sorted_ids = list(map(ids.__getitem__, order))
    rect = Rect(h, w)
    by_cells = placement_table(rect).by_cells
    # Ids exactly 0..n/4-1, four cells each: id i fills sorted positions 4i..4i+3.
    if n % 4 == 0 and sorted_ids[::4] == sorted_ids[3::4] == list(range(n // 4)):
        quads = iter(order)
        try:
            tiles = list(map(by_cells.__getitem__, zip(quads, quads, quads, quads)))
        except KeyError:
            pass  # some id is not a T-tetromino: report it below
        else:
            return Tiling(rect, tiles)

    groups = [(tid, [k for _, k in grp]) for tid, grp in groupby(zip(sorted_ids, order), key=itemgetter(0))]
    n_expected = n // 4 if n % 4 == 0 else -1
    bad: list[tuple[Cell | None, str]] = []
    if [tid for tid, _ in groups] != list(range(n_expected)):
        bad.append((None, f"tile ids must be exactly 0..{max(n_expected - 1, 0)}, got {len(groups)} distinct ids"))
    for tid, cells in groups:
        if len(cells) != 4:
            bad.append((divmod(cells[0], w), f"id {tid} covers {len(cells)} cells"))
        elif tuple(cells) not in by_cells:
            bad.append(((cells[0] // w, min(k % w for k in cells)), f"id {tid} is not a T-tetromino"))
    raise TilingError(ValidityReport(tuple(Violation(ViolationKind.BAD_SHAPE, cell, note=note) for cell, note in bad)))

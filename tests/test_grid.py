from __future__ import annotations

import itertools
import random

import pytest

from ttr import grid
from ttr.chains import build_chain_graph, read_chain, write_chain
from ttr.enumerator import enumerate_tilings
from ttr.errors import ParseError, TilingError
from ttr.grid import (
    ORIENTATIONS,
    Orientation,
    Rect,
    Tile,
    Tiling,
    WALKUP_CLASSES,
    Violation,
    _corner_count_at,
    ViolationKind,
    cut_cornerless_ok,
    is_tileable,
    read_tiling,
    rotate_tile_180,
    tile_cells,
    validate,
    write_tiling,
)
from ttr.width4 import read_tcolor, write_tcolor

from conftest import PINWHEEL_A, PINWHEEL_B


def test_tile_cells_fixed_offsets():
    assert tile_cells(Tile(Orientation.D, 0, 0)) == {(0, 0), (0, 1), (0, 2), (1, 1)}
    assert tile_cells(Tile(Orientation.U, 0, 0)) == {(0, 1), (1, 0), (1, 1), (1, 2)}
    assert tile_cells(Tile(Orientation.L, 2, 3)) == {(2, 4), (3, 3), (3, 4), (4, 4)}
    assert tile_cells(Tile(Orientation.R, 0, 0)) == {(0, 0), (1, 0), (1, 1), (2, 0)}


def test_tile_cells_always_a_t_shape():
    for o in ORIENTATIONS:
        for r, c in [(0, 0), (3, 7), (2, 1)]:
            cells = tile_cells(Tile(o, r, c))
            assert len(cells) == 4
            rows = sorted({x for x, _ in cells})
            cols = sorted({y for _, y in cells})
            # Bar of three collinear cells plus one stem cell adjacent to its center.
            if len(rows) == 2:
                bar_row = max(rows, key=lambda x: sum(1 for cc in cells if cc[0] == x))
                bar = sorted(cc for cc in cells if cc[0] == bar_row)
                (stem,) = [cc for cc in cells if cc[0] != bar_row]
                assert [b[1] for b in bar] == list(range(bar[0][1], bar[0][1] + 3))
                assert stem[1] == bar[1][1]
            else:
                bar_col = max(cols, key=lambda y: sum(1 for cc in cells if cc[1] == y))
                bar = sorted(cc for cc in cells if cc[1] == bar_col)
                (stem,) = [cc for cc in cells if cc[1] != bar_col]
                assert [b[0] for b in bar] == list(range(bar[0][0], bar[0][0] + 3))
                assert stem[0] == bar[1][0]


def test_type_codes_use_one_based_top_row():
    assert Tile(Orientation.D, 0, 5).type_code == "d1"
    assert Tile(Orientation.U, 2, 0).type_code == "u3"
    assert Tile(Orientation.R, 1, 0).type_code == "r2"


def brute_force_cover_check(rect: Rect, tiles) -> bool:
    """Independent disjointness/cover oracle used to pin the validate examples."""
    seen = set()
    for t in tiles:
        for cell in tile_cells(t):
            if cell in seen or cell not in rect:
                return False
            seen.add(cell)
    return len(seen) == rect.area


def test_validate_pinwheel_ok():
    rect = Rect(4, 4)
    assert brute_force_cover_check(rect, PINWHEEL_A)
    assert validate(rect, PINWHEEL_A).ok
    assert validate(rect, PINWHEEL_B).ok


def test_validate_missing_tile_reports_uncovered():
    report = validate(Rect(4, 4), PINWHEEL_A[:-1])
    assert not report.ok
    uncovered = report.by_kind(ViolationKind.UNCOVERED)
    assert len(uncovered) == 4
    assert {v.cell for v in uncovered} == set(tile_cells(PINWHEEL_A[-1]))


def test_validate_overlap_cells():
    report = validate(Rect(4, 4), [Tile(Orientation.D, 0, 0), Tile(Orientation.D, 0, 1)])
    overlaps = report.by_kind(ViolationKind.OVERLAP)
    assert {v.cell for v in overlaps} == {(0, 1), (0, 2)}


def test_validate_out_of_bounds():
    report = validate(Rect(4, 4), [Tile(Orientation.D, 0, 2)])
    assert report.by_kind(ViolationKind.OUT_OF_BOUNDS)


def reference_validate(rect: Rect, tiles) -> tuple[Violation, ...]:
    """The one-cell-at-a-time ``validate``: the oracle for the violations and their order."""
    violations: list[Violation] = []
    owner: dict = {}
    for i, tile in enumerate(tiles):
        r, c = tile.row, tile.col
        for cell in frozenset((r + dr, c + dc) for dr, dc in tile.orientation.offsets):
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
    return tuple(violations)


def random_tile_lists(seed: int, count: int):
    """Seeded (rect, tiles) cases: out of bounds, overlapping, uncovered and empty."""
    rng = random.Random(seed)
    for _ in range(count):
        rect = Rect(rng.randint(1, 9), rng.randint(1, 9))
        n = rng.choice([0, 1, 2, rect.area // 4, rect.area // 4 + 1, rng.randint(0, 30)])
        tiles = [
            Tile(rng.choice(ORIENTATIONS), rng.randint(-3, rect.height), rng.randint(-3, rect.width))
            for _ in range(n)
        ]
        if tiles and rng.random() < 0.3:
            tiles.append(rng.choice(tiles))
        yield rect, tiles


def test_validate_matches_reference_in_order(corpus):
    kinds = set()
    for rect, tiles in random_tile_lists(seed=20221, count=3000):
        got = validate(rect, tiles).violations
        assert got == reference_validate(rect, tiles), (rect, tiles)
        kinds.update(v.kind for v in got)
    assert kinds == {ViolationKind.OUT_OF_BOUNDS, ViolationKind.OVERLAP, ViolationKind.UNCOVERED}
    for (h, w), tilings in corpus.items():
        for tiling in tilings[:50]:
            assert validate(Rect(h, w), tiling.tiles).violations == ()
            assert reference_validate(Rect(h, w), tiling.tiles) == ()


def test_owner_index_agrees_with_tile_cells(corpus):
    for tilings in corpus.values():
        for tiling in tilings:
            owner = {cell: i for i, tile in enumerate(tiling.tiles) for cell in tile_cells(tile)}
            assert len(owner) == tiling.rect.area
            assert all(tiling.owner_index(cell) == i for cell, i in owner.items())


def test_validate_owner_map_is_flat_first_cover():
    for rect, tiles in random_tile_lists(seed=20222, count=1000):
        first: dict = {}
        for i, tile in enumerate(tiles):
            for cell in tile_cells(tile):
                if cell in rect:
                    first.setdefault(cell, i)
        assert validate(rect, tiles).owner == [first.get(cell, -1) for cell in rect.cells()]


@pytest.mark.parametrize("cell", [(0, -1), (-1, 0), (4, 0), (0, 8)])
def test_owner_index_and_tile_at_reject_cells_outside(cell):
    tiling = Tiling(Rect(4, 8), PINWHEEL_A + tuple(t.translated(0, 4) for t in PINWHEEL_B))
    with pytest.raises(KeyError):
        tiling.owner_index(cell)
    with pytest.raises(KeyError):
        tiling.tile_at(cell)


def test_owner_row_and_anchor_groups(corpus):
    for tilings in corpus.values():
        for tiling in tilings[:40]:
            h, w = tiling.rect.height, tiling.rect.width
            for r in range(h):
                assert tiling.owner_row(r) == [tiling.owner_index((r, c)) for c in range(w)]
            groups = tiling.anchors_by_orientation()
            assert list(groups) == list(ORIENTATIONS)
            assert groups == {o: {t.anchor for t in tiling.tiles if t.orientation is o} for o in ORIENTATIONS}


@pytest.mark.parametrize(
    "h,w,expected", [(4, 4, True), (4, 6, False), (8, 12, True), (6, 6, False), (12, 16, True)]
)
def test_is_tileable(h, w, expected):
    assert is_tileable(Rect(h, w)) is expected


def test_tiling_constructor_rejects_invalid():
    with pytest.raises(TilingError):
        Tiling(Rect(4, 4), [Tile(Orientation.D, 0, 0), Tile(Orientation.D, 0, 1)])


def test_cut_cornerless_on_pinwheels(pinwheel_a, pinwheel_b):
    assert cut_cornerless_ok(pinwheel_a)
    assert cut_cornerless_ok(pinwheel_b)


def test_cut_cornerless_all_small_rects(corpus):
    for (h, w), tilings in corpus.items():
        for t in tilings:
            assert cut_cornerless_ok(t), (h, w, t.tiles)


def test_cut_check_visits_exactly_the_checked_classes(monkeypatch, corpus):
    checked = grid.CUT_CLASSES | grid.CORNERLESS_CLASSES
    visited = []

    def corner_count(tiling, point):
        visited.append(point)
        return 4 if (point[0] % 4, point[1] % 4) in grid.CUT_CLASSES else 0

    monkeypatch.setattr(grid, "_corner_count_at", corner_count)
    assert cut_cornerless_ok(corpus[(8, 12)][0])
    assert visited == [
        (r, c) for r in range(1, 8) for c in range(1, 12) if (r % 4, c % 4) in checked
    ]


def test_walkup_classes_are_the_classes_seen(corpus):
    seen = {
        (t.orientation, t.row % 4, t.col % 4)
        for tilings in corpus.values()
        for tiling in tilings
        for t in tiling.tiles
    }
    assert seen == WALKUP_CLASSES
    assert len(WALKUP_CLASSES) == 16


def test_rotate_tile_180_involution():
    rect = Rect(8, 12)
    for o in ORIENTATIONS:
        for r, c in itertools.product(range(3), range(4)):
            t = Tile(o, r, c)
            assert rotate_tile_180(rect, rotate_tile_180(rect, t)) == t


def test_write_tiling_canonical_ids(pinwheel_a):
    text = write_tiling(pinwheel_a)
    lines = text.splitlines()
    assert lines[0] == "TTILING 1"
    assert lines[1] == "4 4"
    assert lines[2] == "0 1 1 1"
    back = read_tiling(text)
    assert back == pinwheel_a


def test_read_write_round_trip(corpus):
    for tilings in corpus.values():
        for t in tilings[:10]:
            assert read_tiling(write_tiling(t)) == t
            assert write_tiling(read_tiling(write_tiling(t))) == write_tiling(t)


def test_read_tiling_bad_shape_five_cells():
    # ids 0 and 1 cover 5 and 3 cells respectively
    text = "TTILING 1\n4 4\n0 0 0 0\n0 1 1 1\n2 2 2 3\n3 3 3 2\n"
    with pytest.raises(TilingError) as exc:
        read_tiling(text)
    assert exc.value.report.by_kind(ViolationKind.BAD_SHAPE)


def test_read_tiling_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        read_tiling("TTILING 2\n4 4\n")
    assert (exc.value.line, exc.value.column) == (1, 1)
    with pytest.raises(ParseError) as exc:
        read_tiling("TTILING 1\n4\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        read_tiling("TTILING 1\n4 4\n0 0 0\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        read_tiling(b"TTILING 1\r\n4 4\r\n")
    with pytest.raises(ParseError) as exc:
        read_tiling("TTILING 1\n1 4\n0 0 \u00b2 0\n")  # a digit, but not a decimal one
    assert (exc.value.line, exc.value.column) == (3, 5)


@pytest.mark.parametrize(
    "rows, line, column, token",
    [
        ("x 0 0 0", 3, 1, "x"),  # first in its row
        ("0 0 a 0", 3, 5, "a"),  # mid-row
        ("0 0 0 \u00e9", 3, 7, "\u00e9"),  # non-ASCII letter
        ("0 \u0663 0 0", 3, 3, "\u0663"),  # non-ASCII decimal digit
        ("0 x 0 x", 3, 3, "x"),  # the bad token repeats: the first one is reported
        ("0 1x 1 1x", 3, 3, "1x"),  # starts with a digit
        ("0\t0  -1 0", 3, 6, "-1"),  # mixed whitespace before it
        ("1 1 1 1\n0 0 0 0x", 4, 7, "0x"),  # in a later row
    ],
)
def test_read_tiling_reports_first_bad_token_position(rows, line, column, token):
    h = rows.count("\n") + 1
    with pytest.raises(ParseError) as exc:
        read_tiling(f"TTILING 1\n{h} 4\n{rows}\n")
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value).endswith(f"bad tile id {token!r}")


@pytest.mark.parametrize(
    "rows, cells",
    [
        ("0 0 1 1\n0 0 1 1\n2 2 3 3\n2 2 3 3", [(0, (0, 0)), (1, (0, 2)), (2, (2, 0)), (3, (2, 2))]),
        ("0 0 0 0\n1 1 1 1\n2 2 2 2\n3 3 3 3", [(0, (0, 0)), (1, (1, 0)), (2, (2, 0)), (3, (3, 0))]),
        ("0 0 1 1\n2 0 0 1\n2 3 3 1\n2 2 3 3", [(0, (0, 0)), (1, (0, 2)), (2, (1, 0)), (3, (2, 1))]),
        ("0 1 1 1\n2 2 1 0\n3 2 2 0\n3 3 3 0", [(0, (0, 0)), (2, (1, 0)), (3, (2, 0))]),
    ],
)
def test_read_tiling_names_each_non_t_region(rows, cells):
    with pytest.raises(TilingError) as exc:
        read_tiling(f"TTILING 1\n4 4\n{rows}\n")
    assert [str(v) for v in exc.value.report.violations] == [
        f"BAD_SHAPE cell={cell} id {tid} is not a T-tetromino" for tid, cell in cells
    ]


def reference_read_ids(h: int, w: int, grid: list[list[int]]):
    """The tuple-keyed TTILING shape check: the oracle for what ``read_tiling`` makes of an id grid.

    Returns the tiling, or the violation texts of the ``TilingError`` raised.
    """
    cells_by_id: dict = {}
    for r in range(h):
        for c in range(w):
            cells_by_id.setdefault(grid[r][c], []).append((r, c))
    t_shapes = {tuple(sorted(o.offsets)): o for o in ORIENTATIONS}
    violations = []
    n_expected = (h * w) // 4 if (h * w) % 4 == 0 else -1
    if n_expected < 0 or set(cells_by_id) != set(range(n_expected)):
        violations.append(
            f"BAD_SHAPE tile ids must be exactly 0..{max(n_expected - 1, 0)}, got {len(cells_by_id)} distinct ids"
        )
    tiles = []
    for tid, cells in sorted(cells_by_id.items()):
        if len(cells) != 4:
            violations.append(f"BAD_SHAPE cell={cells[0]} id {tid} covers {len(cells)} cells")
            continue
        r0 = cells[0][0]
        c0 = min(c for _, c in cells)
        orient = t_shapes.get(tuple((r - r0, c - c0) for r, c in cells))
        if orient is None:
            violations.append(f"BAD_SHAPE cell={(r0, c0)} id {tid} is not a T-tetromino")
        else:
            tiles.append(Tile(orient, r0, c0))
    return violations or Tiling(Rect(h, w), tiles)


def random_id_grids(seed: int, count: int):
    """Seeded id grids: shuffled ids of four cells each, perturbed valid tilings, and rows shifted so T steps wrap."""
    rng = random.Random(seed)
    valid = [write_tiling(t) for t in enumerate_tilings(Rect(4, 8))][:20]
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            h, w = rng.randint(1, 6), rng.randint(1, 6)
            n = (h * w + 3) // 4
            ids = [i for i in range(n) for _ in range(4)][: h * w]
            rng.shuffle(ids)
            grid = [ids[r * w : (r + 1) * w] for r in range(h)]
        else:
            h, w = 4, 8
            grid = [[int(t) for t in line.split()] for line in rng.choice(valid).splitlines()[2:]]
            if kind == 1:
                for _ in range(rng.randint(1, 3)):
                    (r1, c1), (r2, c2) = [(rng.randrange(h), rng.randrange(w)) for _ in range(2)]
                    grid[r1][c1], grid[r2][c2] = grid[r2][c2], grid[r1][c1]
            else:
                flat = [t for row in grid for t in row]
                shift = rng.randint(1, w - 1)
                flat = flat[shift:] + flat[:shift]
                grid = [flat[r * w : (r + 1) * w] for r in range(h)]
        yield h, w, grid


def test_read_tiling_matches_tuple_keyed_reference():
    kinds = set()
    for h, w, grid in random_id_grids(seed=20223, count=3000):
        text = f"TTILING 1\n{h} {w}\n" + "".join(" ".join(map(str, row)) + "\n" for row in grid)
        try:
            got = read_tiling(text)
        except TilingError as e:
            got = [str(v) for v in e.report.violations]
        want = reference_read_ids(h, w, grid)
        assert got == want, text
        kinds.update(["Tiling"] if isinstance(got, Tiling) else [v.split()[-1] for v in got])
    assert kinds == {"Tiling", "cells", "ids", "T-tetromino"}


def reference_corner_count(tiling, point):
    """Corners meeting at ``point``, one tile of the four around it at a time."""
    r, c = point
    owners = [tiling.owner_index(q) for q in ((r - 1, c - 1), (r - 1, c), (r, c - 1), (r, c))]
    corners = 0
    for t in set(owners):
        mask = tuple(o == t for o in owners)
        if sum(mask) in (1, 3):
            corners += 1
        elif mask in ((True, False, False, True), (False, True, True, False)):
            corners += 2
    return corners


def test_corner_count_matches_reference(corpus):
    for tilings in corpus.values():
        for tiling in tilings[:40]:
            h, w = tiling.rect.height, tiling.rect.width
            for point in itertools.product(range(1, h), range(1, w)):
                assert _corner_count_at(tiling, point) == reference_corner_count(tiling, point)


def test_read_tiling_accepts_bytes(pinwheel_b):
    assert read_tiling(write_tiling(pinwheel_b).encode()) == pinwheel_b


# One valid file per text format that shares the header rules, with its reader.
HEADER_FORMATS = {
    "TTILING": (read_tiling, write_tiling(Tiling(Rect(4, 4), PINWHEEL_A))),
    "TCOLOR": (read_tcolor, write_tcolor(["ABBA", "BAAB"])),
    "CHAIN": (read_chain, write_chain(build_chain_graph(Tiling(Rect(4, 4), PINWHEEL_B)))),
}


@pytest.mark.parametrize("fmt", sorted(HEADER_FORMATS))
def test_header_rejects_invalid_utf8(fmt):
    reader, text = HEADER_FORMATS[fmt]
    assert reader(text.encode()) == reader(text)
    for data in (b"\xff", text.encode() + b"\xff\n"):
        with pytest.raises(ParseError) as exc:
            reader(data)
        assert "UTF-8" in str(exc.value)


@pytest.mark.parametrize("fmt", sorted(HEADER_FORMATS))
def test_header_rejects_cr_line_endings(fmt):
    reader, text = HEADER_FORMATS[fmt]
    for data in (text.replace("\n", "\r\n"), text.replace("\n", "\r"), text + "\r"):
        with pytest.raises(ParseError) as exc:
            reader(data)
        assert "CR" in str(exc.value)


@pytest.mark.parametrize("fmt", sorted(HEADER_FORMATS))
def test_header_dimensions_are_decimal_and_positive(fmt):
    reader, text = HEADER_FORMATS[fmt]
    magic, _dims, body = text.split("\n", 2)
    for dims in ("0 4", "4 0", "0 0", "-4 4", "+4 4", "4", "4 4 4", "4 x", "4 \u0664", "4 \u00b2"):
        with pytest.raises(ParseError) as exc:
            reader(f"{magic}\n{dims}\n{body}")
        assert exc.value.line == 2, dims


def test_cut_cornerless_precondition_surfaces_at_construction():
    # An overlapping or incomplete tile set cannot even become a Tiling, so the
    # structural check's precondition is enforced by the constructor.
    with pytest.raises(TilingError):
        Tiling(Rect(4, 4), [Tile(Orientation.D, 0, 0), Tile(Orientation.U, 0, 0)])

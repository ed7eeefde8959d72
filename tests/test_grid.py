from __future__ import annotations

import itertools

import pytest

from ttr.chains import build_chain_graph, read_chain, write_chain
from ttr.errors import ParseError, TilingError
from ttr.grid import (
    ORIENTATIONS,
    Orientation,
    Rect,
    Tile,
    Tiling,
    WALKUP_CLASSES,
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

from __future__ import annotations

import itertools
import subprocess
import sys
from dataclasses import replace

import pytest

import oracles
from ttr.errors import ParseError
from ttr.enumerator import _count, count_tilings, enumerate_tilings
from ttr.grid import ORIENTATIONS, Rect, is_tileable, placement_table, rotate_tile_180
from ttr.cnf import (
    CNF,
    add_ap_blocking,
    add_rot180_symmetry,
    build_cnf,
    clauses_to_dimacs,
    decode_model,
    parse_dimacs,
    var_map_sidecar,
)
from ttr.cdcl import solve_clauses
from ttr import dimacs


def brute_force_placement_count(rect: Rect) -> int:
    # Slide each orientation's bounding box over the rectangle.
    total = 0
    for o in ORIENTATIONS:
        rows, cols = o.bbox
        total += max(0, rect.height - rows + 1) * max(0, rect.width - cols + 1)
    return total


def placements_of_all_tilings(rect: Rect) -> set:
    return {t for tiling in enumerate_tilings(rect) for t in tiling.tiles}


def test_4x4_has_8_placement_variables():
    # The Walkup classes keep exactly the placements of the two pinwheels.
    cnf = build_cnf(Rect(4, 4))
    assert set(cnf.tiles) == placements_of_all_tilings(Rect(4, 4))
    assert cnf.num_vars == len(cnf.tiles) == 8


@pytest.mark.parametrize("h, w", [(4, 6), (6, 6), (2, 2), (5, 8)])
def test_untileable_rectangles_keep_every_placement(h, w):
    rect = Rect(h, w)
    if (h, w) == (2, 2):
        # No placement fits, so the first uncovered cell is reported.
        assert brute_force_placement_count(rect) == 0
        with pytest.raises(ValueError, match=r"^cell \(0, 0\) of "):
            build_cnf(rect)
        return
    cnf = build_cnf(rect)
    assert len(cnf.tiles) == brute_force_placement_count(rect)
    assert cnf.tiles is placement_table(rect).tiles


def test_corpus_tilings_use_only_indexed_placements(corpus):
    for (h, w), tilings in corpus.items():
        allowed = set(build_cnf(Rect(h, w)).tiles)
        for tiling in tilings:
            assert set(tiling.tiles) <= allowed, tiling


def _count_models(cnf: CNF) -> int:
    # Blocking-clause loop: forbid each found tiling's placement set in turn.
    clauses = list(cnf.clauses)
    models = 0
    while True:
        result = solve_clauses(cnf.num_vars, clauses)
        if result.status == "UNSAT":
            return models
        models += 1
        clauses.append(tuple(-v for v in range(1, cnf.num_vars + 1) if result.model[v]))


@pytest.mark.parametrize("h, w", [(4, 8), (8, 8)])
def test_restricted_models_match_tiling_count(h, w):
    rect = Rect(h, w)
    assert _count_models(build_cnf(rect)) == count_tilings(rect)


@pytest.mark.parametrize("h, w, tilings", [
    (12, 12, 78_696),
    (16, 16, None),
    (24, 12, None),
    (20, 20, 804_175_873_700_640),
])
def test_restricted_placements_keep_every_tiling(h, w, tilings):
    # Equal exact counts prove that no tiling of the rectangle uses a
    # placement outside the Walkup classes.
    rect = Rect(h, w)
    unrestricted = count_tilings(rect, max_area=rect.area)
    assert _count(rect, build_cnf(rect).tiles) == unrestricted
    assert tilings is None or unrestricted == tilings


def test_index_closed_under_rotation():
    for h in range(4, 25, 4):
        for w in range(4, 25, 4):
            rect = Rect(h, w)
            tiles = set(build_cnf(rect).tiles)
            assert {rotate_tile_180(rect, t) for t in tiles} == tiles, rect


def test_cell_clauses_shapes():
    cnf = build_cnf(Rect(4, 4))
    alo = [c for c in cnf.clauses if all(l > 0 for l in c)]
    amo = [c for c in cnf.clauses if all(l < 0 for l in c)]
    assert len(alo) == 16
    assert all(len(c) == 2 for c in amo)


def test_every_model_decodes_to_a_valid_tiling():
    cnf = build_cnf(Rect(4, 8))
    result = solve_clauses(cnf.num_vars, cnf.clauses)
    assert result.status == "SAT"
    tiling = decode_model(cnf, result.model)  # Tiling constructor validates
    assert tiling.rect == Rect(4, 8)


# The construct rectangles, the scan's tileable and untileable ones, and the
# rectangles of the ROADMAP's walls table.
COVER_RECTS = [(12, 20), (16, 16), (8, 32), (20, 20), (4, 36), (8, 36), (12, 12), (4, 6), (6, 6),
               (48, 48), (52, 52), (56, 56), (64, 64), (20, 124), (20, 128), (20, 132), (4, 708), (4, 712)]


@pytest.mark.parametrize("h, w", COVER_RECTS, ids=[f"{h}x{w}" for h, w in COVER_RECTS])
def test_cover_clauses_equal_the_nested_loop(h, w):
    # Same tuples in the same order, repeated at-most-one pairs included.
    assert list(build_cnf(Rect(h, w)).clauses) == oracles.cover_clauses(Rect(h, w))


def test_cover_clauses_unsat_for_4x6():
    cnf = build_cnf(Rect(4, 6))
    assert solve_clauses(cnf.num_vars, cnf.clauses).status == "UNSAT"


def test_build_cnf_rejects_uncoverable_cells():
    with pytest.raises(ValueError):
        build_cnf(Rect(2, 2))


def test_ap_blocking_marks_metadata():
    base = build_cnf(Rect(4, 8))
    cnf = add_ap_blocking(base, 2)
    assert cnf.blocked_len == 2
    assert cnf.num_clauses > base.num_clauses
    assert cnf.tiles is base.tiles


def test_blocking_clauses_cover_every_window():
    # Independent count of 2-AP windows for one orientation on a tiny board.
    rect = Rect(4, 8)
    base = build_cnf(rect)
    blocked = add_ap_blocking(base, 2)
    added = blocked.num_clauses - base.num_clauses
    expect = 0
    for o in ORIENTATIONS:
        anchors = [t.anchor for t in base.tiles if t.orientation is o]
        expect += sum(
            1 for a, b in itertools.combinations(sorted(anchors), 2) if a != b
        )
    assert added == expect


MOD4_STEPS = {(0, 0), (2, 2)}


def ap_steps(rect: Rect, *, mod4_only: bool = False) -> list[tuple[int, int]]:
    """Every AP step, one direction per axis of symmetry."""
    steps = []
    for dy in range(0, rect.height):
        for dx in range(-rect.width + 1, rect.width):
            if dy == 0 and dx <= 0:
                continue
            if mod4_only and (dy % 4, dx % 4) not in MOD4_STEPS:
                continue
            steps.append((dy, dx))
    return steps


def blocking_clauses_by_step(cnf: CNF, l: int, *, mod4_only: bool = False) -> set:
    """Reference AP-blocking windows: every step from every anchor."""
    anchors_by_orient = {o: {} for o in ORIENTATIONS}
    for i, t in enumerate(cnf.tiles):
        anchors_by_orient[t.orientation][t.anchor] = i
    clauses = set()
    for orient in ORIENTATIONS:
        anchors = anchors_by_orient[orient]
        for dy, dx in ap_steps(cnf.rect, mod4_only=mod4_only):
            for (r, c), first_id in anchors.items():
                window = [first_id]
                rr, cc = r, c
                ok = True
                for _ in range(l - 1):
                    rr += dy
                    cc += dx
                    nxt = anchors.get((rr, cc))
                    if nxt is None:
                        ok = False
                        break
                    window.append(nxt)
                if ok:
                    clauses.add(tuple(-(i + 1) for i in window))
    return clauses


@pytest.mark.parametrize("h, w, l", [
    (4, 8, 2), (8, 12, 3), (12, 20, 3), (20, 20, 3), (4, 36, 3), (6, 6, 3), (8, 8, 4),
    (16, 32, 3), (24, 24, 3), (12, 12, 5),
])
@pytest.mark.parametrize("mod4_only", [False, True])
def test_anchor_pair_windows_match_step_oracle(h, w, l, mod4_only):
    # With mod4_only the oracle keeps only steps congruent to (0,0) or (2,2)
    # mod 4.  On the Walkup-restricted anchors at l >= 3 those are the only
    # steps any window has, so restricting the steps drops nothing; at l = 2,
    # or on an untileable rectangle (every placement kept), it does.
    base = build_cnf(Rect(h, w))
    blocked = add_ap_blocking(base, l)
    added = set(blocked.clauses[base.num_clauses:])
    assert len(added) == blocked.num_clauses - base.num_clauses
    expected = blocking_clauses_by_step(base, l, mod4_only=mod4_only)
    if mod4_only and (l == 2 or not is_tileable(base.rect)):
        assert expected < added
    else:
        assert added == expected


PACKED_WINDOW_SIZES = [(h, w) for h in (4, 5, 7, 8, 12, 16) for w in (4, 5, 7, 8, 12, 16)] + [
    (20, 20), (24, 24), (32, 32), (16, 32), (32, 16), (4, 36), (8, 36), (3, 9), (9, 3), (4, 140),
]
# Tileable sizes again with every placement kept, as if the Walkup restriction were off.
PACKED_WINDOW_CASES = [(h, w, True) for h, w in PACKED_WINDOW_SIZES] + [
    (h, w, False) for h, w in PACKED_WINDOW_SIZES if is_tileable(Rect(h, w)) and h * w <= 512
]


@pytest.mark.parametrize("h, w, walkup", PACKED_WINDOW_CASES,
                         ids=[f"{h}x{w}{'' if walkup else ' every placement'}" for h, w, walkup in PACKED_WINDOW_CASES])
def test_packed_windows_equal_the_tuple_reference(h, w, walkup):
    # Same clauses in the same order as the (row, col) tuple loop, for l = 2..5.
    base = build_cnf(Rect(h, w))
    if not walkup:
        base = replace(base, tiles=placement_table(base.rect).tiles)
    for l in (2, 3, 4, 5):
        added = add_ap_blocking(base, l).clauses[base.num_clauses:]
        assert list(added) == oracles.ap_blocking_windows(base, l), l


def test_rot180_symmetry_clauses_pair_variables():
    rect = Rect(4, 8)
    base = build_cnf(rect)
    sym = add_rot180_symmetry(base)
    assert sym.rot180
    assert sym.tiles is base.tiles
    added = sym.num_clauses - base.num_clauses
    assert added == base.num_vars  # two implications per unordered pair


@pytest.mark.parametrize("h, w", [(4, 8), (8, 12), (20, 20), (3, 6), (5, 7), (6, 4)])
def test_rot180_clauses_equal_the_tile_lookup(h, w):
    base = build_cnf(Rect(h, w))
    assert list(add_rot180_symmetry(base).clauses[base.num_clauses:]) == oracles.rot180_clauses(base)


def test_dimacs_round_trip():
    cnf = add_ap_blocking(build_cnf(Rect(4, 8)), 3)
    text = "c generated for a test\n" + clauses_to_dimacs(cnf.num_vars, cnf.clauses)
    num_vars, clauses = parse_dimacs(text)
    assert num_vars == cnf.num_vars
    assert [tuple(c) for c in clauses] == list(cnf.clauses)


def test_dimacs_parse_errors():
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 3 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 5\n1 2 0\n")


def test_dimacs_second_problem_line_is_refused(tmp_path):
    text = "p cnf 1 1\n1 0\np cnf 5 2\n5 0\n"
    with pytest.raises(ParseError) as exc:
        parse_dimacs(text)
    assert str(exc.value) == "line 3, column 1: second problem line 'p cnf 5 2'"
    path = tmp_path / "in.cnf"
    path.write_text(text)
    run = subprocess.run([sys.executable, "-m", "ttr.dimacs", str(path)], capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == "error: line 3, column 1: second problem line 'p cnf 5 2'\n"


@pytest.mark.parametrize("text", ["p cnf x 2\n", "p cnf 2 x\n", "p cnf -2 1\n1 0\n", "p cnf 2 +1\n1 0\n"])
def test_dimacs_counts_are_decimal(text):
    with pytest.raises(ParseError) as exc:
        parse_dimacs(text)
    assert exc.value.line == 1 and "decimal" in str(exc.value)


@pytest.mark.parametrize("text", ["p cnf x 2\n", "p cnf 2 1\n1 a 0\n", "p cnf -2 1\n1 0\n", None, b"\xff\n"])
def test_dimacs_entry_point_reports_bad_input_in_one_line(tmp_path, capsys, text):
    path = tmp_path / "in.cnf"
    if isinstance(text, str):
        path.write_text(text)
    elif text is not None:
        path.write_bytes(text)  # not UTF-8
    assert dimacs.main([str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_dimacs_entry_point_reports_an_unallocatable_variable_count(tmp_path, capsys):
    # 10^30 variables overflow the solver's arrays before anything is allocated.
    path = tmp_path / "in.cnf"
    path.write_text(f"p cnf {10**30} 1\n1 0\n")
    assert dimacs.main([str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: cannot allocate a solver for {10**30} variables\n")


@pytest.mark.parametrize("token", ["+2", "1_0", "\u0663", "\u00b2", "1.0", "x", "--1"])
def test_dimacs_literals_are_signed_ascii_decimal(tmp_path, capsys, token):
    text = f"p cnf 10 1\n1 {token} 0\n"
    with pytest.raises(ParseError) as exc:
        parse_dimacs(text)
    assert exc.value.line == 2 and str(exc.value).endswith(f"bad literal {token!r}")
    path = tmp_path / "in.cnf"
    path.write_text(text, encoding="utf-8")
    assert dimacs.main([str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and repr(token) in err


def test_dimacs_entry_point_takes_only_the_file(tmp_path, capsys):
    path = tmp_path / "in.cnf"
    path.write_text("p cnf 1 1\n1 0\n")
    with pytest.raises(SystemExit) as exc:
        dimacs.main([str(path), "--time-budget", "1"])
    assert exc.value.code == 2
    assert "--time-budget" in capsys.readouterr().err
    assert dimacs.main([str(path)]) == 10
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert dimacs.main([str(path)]) == 20


def test_var_map_sidecar_lines():
    cnf = build_cnf(Rect(4, 4))
    lines = var_map_sidecar(cnf).splitlines()
    expected = placements_of_all_tilings(Rect(4, 4))
    assert len(lines) == len(expected) == 8
    assert {tuple(line.split()[1:]) for line in lines} == {
        (t.orientation.value, str(t.row), str(t.col)) for t in expected
    }
    assert [int(line.split()[0]) for line in lines] == list(range(1, 9))
    var, letter, row, col = lines[7].split()
    t = cnf.tiles[int(var) - 1]
    assert (t.orientation.value, str(t.row), str(t.col)) == (letter, row, col)


def test_clauses_to_dimacs_header():
    text = clauses_to_dimacs(3, [(1, -2), (2, 3)])
    assert text.splitlines()[0] == "p cnf 3 2"

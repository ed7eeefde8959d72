from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ttr import vdw
from ttr.decide import compute_L
from ttr.errors import ResourceLimitError
from ttr.solver import ScanResult, SearchConfig
from ttr.vdw import (
    GridAP,
    GridColoring,
    _forced_brute,
    _forced_sat,
    compute_Lvdw,
    extremal_coloring,
    grid_mono_ap,
    vdw_number,
)


def test_vdw_values():
    assert vdw_number(2) == 3
    assert vdw_number(3) == 9
    assert vdw_number(4) == 35


def test_extremal_colorings_verify():
    for l in (2, 3, 4):
        coloring = extremal_coloring(l)
        assert (coloring.height, coloring.width) == (1, vdw_number(l) - 1)
        assert grid_mono_ap(coloring, l) is None


@pytest.mark.parametrize("l", [2, 3, 4])
def test_backtracker_matches_list_scan(l):
    # The exact tuple, not only its length: extremal_coloring(4) feeds stack_rows.
    assert vdw._longest_apfree_length(l) == oracles.longest_apfree_length(l)


def test_vdw_guards():
    for l in (1, 5):
        with pytest.raises(ResourceLimitError):
            vdw_number(l)
        with pytest.raises(ResourceLimitError):
            extremal_coloring(l)


def test_grid_mono_ap_examples():
    stripes = GridColoring(tuple(tuple(c % 2 for c in range(5)) for _ in range(3)))
    assert grid_mono_ap(stripes, 4) is None
    ones = GridColoring(tuple(tuple(1 for _ in range(5)) for _ in range(3)))
    found = grid_mono_ap(ones, 3)
    assert found == GridAP((0, 0), (0, 1), 3)


def test_grid_mono_ap_sees_diagonal_steps():
    # Color exactly one diagonal; its cells are the only monochromatic triple
    # in color 1.
    rows = tuple(tuple(1 if r == c else 0 for c in range(3)) for r in range(3))
    grid = GridColoring(rows)
    aps = []
    ap = grid_mono_ap(grid, 3)
    assert ap is not None  # color 0 also has plenty; scan finds something
    diag = GridAP((0, 0), (1, 1), 3)
    assert all(grid.color(cell) == 1 for cell in diag.cells())


@st.composite
def colorings(draw):
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))
    bits = draw(st.lists(st.integers(0, 1), min_size=h * w, max_size=h * w))
    return GridColoring(tuple(tuple(bits[r * w:(r + 1) * w]) for r in range(h)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(colorings(), st.integers(2, 5))
def test_grid_mono_ap_matches_candidate_scan(coloring, l):
    # The AP kernel over each color's cells against the scan over every candidate AP.
    assert grid_mono_ap(coloring, l) == oracles.grid_mono_ap(coloring, l)


def test_grid_mono_ap_matches_candidate_scan_on_long_rows():
    for coloring in (extremal_coloring(4), GridColoring(((0, 1) * 30,)), GridColoring(((1,) * 7,))):
        for l in (2, 3, 4, 5):
            assert grid_mono_ap(coloring, l) == oracles.grid_mono_ap(coloring, l)


def test_lvdw_small_values():
    assert compute_Lvdw(3, 5).value == 3
    assert compute_Lvdw(1, 8).value == 2
    assert compute_Lvdw(2, 2).value == 2
    assert compute_Lvdw(1, 1).value == 1


def test_lvdw_certificate_verifies():
    result = compute_Lvdw(3, 5)
    assert isinstance(result, ScanResult)
    assert result.witness is not None
    assert grid_mono_ap(result.witness, result.value + 1) is None


def test_lvdw_symmetry():
    for h, w in [(1, 5), (2, 3), (3, 4), (2, 5)]:
        assert compute_Lvdw(h, w).value == compute_Lvdw(w, h).value


def test_lvdw_monotone_in_both_dimensions():
    vals = {}
    for h in (1, 2, 3):
        for w in (1, 2, 3, 4, 5):
            vals[(h, w)] = compute_Lvdw(h, w).value
    for (h1, w1), v1 in vals.items():
        for (h2, w2), v2 in vals.items():
            if h1 >= h2 and w1 >= w2:
                assert v1 >= v2


def test_1d_consistency_with_vdw_numbers():
    for l in (2, 3):
        w = vdw_number(l)
        assert compute_Lvdw(1, w - 1).value < l
        assert compute_Lvdw(1, w).value >= l


def test_sat_route_matches_brute_force():
    # Every grid of at most 16 cells, against the exhaustive oracle.
    config = SearchConfig()
    for h in range(1, 17):
        for w in range(1, 16 // h + 1):
            for l in (2, 3, 4):
                brute_forced, brute_avoider = _forced_brute(h, w, l)
                sat = _forced_sat(h, w, l, config)
                assert brute_forced == sat.forced, (h, w, l)
                if brute_forced:
                    assert sat.witness is None
                else:
                    assert grid_mono_ap(brute_avoider, l) is None
                    assert grid_mono_ap(sat.witness, l) is None


def test_lvdw_matches_brute_force_ascent():
    # Every grid of at most 16 cells: ascend the exhaustive oracle to the first
    # avoidable l.  1x1, 1x2 and 2x1 avoid l = 2; every larger grid forces it.
    for h in range(1, 17):
        for w in range(1, 16 // h + 1):
            l = 2
            while _forced_brute(h, w, l)[0]:
                l += 1
            assert (l == 2) == (h * w < 3), (h, w)
            result = compute_Lvdw(h, w)
            assert result.value == l - 1, (h, w)
            assert grid_mono_ap(result.witness, l) is None


def test_lvdw_budget_bracket_starts_at_pigeonhole():
    spent = SearchConfig(time_budget_s=1e-9)
    assert compute_Lvdw(24, 24, spent) == ScanResult(None, 2, None)
    assert compute_Lvdw(1, 2, spent) == ScanResult(None, 1, None)


def test_l_budget_bracket_starts_at_pigeonhole():
    # At least 5 tiles put two in one orientation, a 2-term AP; 4x4 has 4 tiles.
    spent = SearchConfig(time_budget_s=1e-9)
    assert compute_L(12, 12, spent) == ScanResult(None, 2, None)
    assert compute_L(4, 8, spent) == ScanResult(None, 2, None)
    assert compute_L(4, 4, spent) == ScanResult(None, 1, None)
    assert compute_L(4, 4).value == 1


@pytest.mark.parametrize("solver, engine", [(None, "internal"), (f"{sys.executable} -m ttr.dimacs", "external")])
def test_lvdw_answers_name_their_engine(solver, engine, monkeypatch):
    answers = []

    def recording(*args):
        answers.append(_forced_sat(*args))
        return answers[-1]

    monkeypatch.setattr(vdw, "_forced_sat", recording)
    assert compute_Lvdw(3, 5, SearchConfig(solver_cmd=solver)).value == 3
    assert [(a.length, a.forced, a.method) for a in answers] == [(3, True, engine), (4, False, engine)]


def test_grid_coloring_tcolor_round_trip():
    grid = GridColoring(((0, 1, 1), (1, 0, 0)))
    text = grid.to_tcolor()
    assert text == "TCOLOR 1\n2 3\nABB\nBAA\n"
    assert oracles.read_tcolor(text) == grid


@pytest.mark.parametrize("rows, message", [
    ((), "grid must be nonempty"),
    (((0, 1), (0,)), "grid rows must have equal length"),
    (((0, 2),), "colors must be 0 or 1"),
], ids=["no-rows", "ragged", "color-2"])
def test_grid_coloring_rejects_bad_grids(rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GridColoring(rows)


def test_grid_mono_ap_rejects_lengths_below_two():
    with pytest.raises(ValueError, match="^l must be >= 2, got 1$"):
        grid_mono_ap(GridColoring(((0, 1),)), 1)

from __future__ import annotations

import pytest

from ttr.errors import ResourceLimitError
from ttr.solver import SearchConfig
from ttr.vdw import (
    GridAP,
    GridColoring,
    LvdwResult,
    _forced_brute,
    _forced_sat,
    compute_Lvdw,
    extremal_coloring,
    grid_mono_ap,
    mono_ap_forced,
    vdw_number,
)


def test_vdw_values():
    assert vdw_number(2) == 3
    assert vdw_number(3) == 9
    assert vdw_number(4) == 35


def test_extremal_colorings_verify():
    for l in (2, 3, 4):
        coloring = extremal_coloring(l)
        assert len(coloring) == vdw_number(l) - 1
        grid = GridColoring((coloring,))
        assert grid_mono_ap(grid, l) is None


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


def test_lvdw_small_values():
    assert compute_Lvdw(3, 5).value == 3
    assert compute_Lvdw(1, 8).value == 2
    assert compute_Lvdw(2, 2).value == 2
    assert compute_Lvdw(1, 1).value == 1


def test_lvdw_certificate_verifies():
    result = compute_Lvdw(3, 5)
    assert isinstance(result, LvdwResult)
    assert result.avoider is not None
    assert grid_mono_ap(result.avoider, result.value + 1) is None


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
                sat_forced, sat_avoider = _forced_sat(h, w, l, config)
                assert brute_forced == sat_forced, (h, w, l)
                assert brute_forced == mono_ap_forced(h, w, l, config)[0]
                if brute_forced:
                    assert sat_avoider is None
                else:
                    assert grid_mono_ap(brute_avoider, l) is None
                    assert grid_mono_ap(sat_avoider, l) is None


def test_grid_coloring_tcolor_round_trip():
    grid = GridColoring(((0, 1, 1), (1, 0, 0)))
    text = grid.to_tcolor()
    assert text == "TCOLOR 1\n2 3\nABB\nBAA\n"
    assert GridColoring.from_tcolor(text) == grid

"""Acceptance suite: one test per criterion, each timed against its budget.

The terminal summary (see conftest) prints one PASS/FAIL line per criterion.
Criterion 12 only smoke-tests the long-job CLI contract; the long
computations themselves stay out of CI by design.
"""

from __future__ import annotations

import time

from ttr.grid import Rect, cut_cornerless_ok, is_tileable, read_tiling, write_tiling
from ttr.enumerator import enumerate_tilings, has_tiling
from ttr.aps import dxdy_class, enumerate_aps, has_ap_of_length, longest_ap, mod4_class
from ttr.boundary import boundary_forces
from ttr.chains import build_chain_graph, chain_to_tiling, hv_enumerate, shaded_arrow_aps, tile_for_arrow, arrow_for_tile
from ttr.cnf import add_ap_blocking, add_rot180_symmetry, build_cnf
from ttr.decide import decide_forces
from ttr.cli import main
from ttr.solver import SearchConfig, solve
from ttr.vdw import compute_Lvdw, grid_mono_ap, GridColoring, vdw_number
from ttr.width4 import ab_map, d1_equiv_check, d1_tiles, stack_rows
from ttr.vdw import extremal_coloring

from conftest import PINWHEEL_A, PINWHEEL_B


def test_criterion_01_tileability_characterization():
    start = time.monotonic()
    for h in range(4, 17):
        for w in range(4, 17):
            rect = Rect(h, w)
            assert has_tiling(rect) == is_tileable(rect), (h, w)
    assert time.monotonic() - start < 60


def test_criterion_02_4x4_census():
    start = time.monotonic()
    tilings = list(enumerate_tilings(Rect(4, 4)))
    assert len(tilings) == 2
    assert {t.tiles for t in tilings} == {PINWHEEL_A, PINWHEEL_B}
    assert time.monotonic() - start < 1


def test_criterion_03_boundary_theorem():
    start = time.monotonic()
    assert boundary_forces(7, 2) is True
    assert boundary_forces(6, 2) is False
    assert time.monotonic() - start < 10


def test_criterion_04_vdw_numbers():
    start = time.monotonic()
    assert vdw_number(2) == 3
    assert vdw_number(3) == 9
    assert vdw_number(4) == 35
    assert time.monotonic() - start < 10


def test_criterion_05_width4_threshold():
    start = time.monotonic()
    forced = decide_forces(4, 36, 3)
    assert forced.forced is True
    assert time.monotonic() - start < 60

    start = time.monotonic()
    avoidable = decide_forces(4, 32, 3)
    assert avoidable.forced is False
    witness = avoidable.witness
    assert witness is not None and witness.rect == Rect(4, 32)
    assert longest_ap(witness).length < 3
    assert cut_cornerless_ok(witness)
    assert time.monotonic() - start < 60


def test_criterion_06_width8_threshold():
    start = time.monotonic()
    forced = decide_forces(8, 36, 3)
    assert forced.forced is True
    assert time.monotonic() - start < 600

    stacked = stack_rows(extremal_coloring(3), 2)
    result = decide_forces(8, 32, 3, witness_hint=stacked)
    assert result.forced is False
    assert result.method == "hint"
    assert longest_ap(stacked).length < 3


def test_criterion_07_lemma_suite(corpus):
    start = time.monotonic()
    strips = [t for key in [(4, 4), (4, 8), (4, 12), (4, 16)] for t in corpus[key]]
    for tiling in strips:
        any_ap, d1_ap = d1_equiv_check(tiling, 3)
        assert any_ap == d1_ap
        mapped = ab_map(tiling)
        assert has_ap_of_length(tiling, 3) == has_ap_of_length(mapped, 3)
        assert ab_map(mapped) == mapped
        assert set(d1_tiles(tiling)) == set(d1_tiles(mapped))
    for key in [(4, 4), (4, 8), (4, 12), (4, 16), (8, 8), (8, 12)]:
        for tiling in corpus[key]:
            for ap in enumerate_aps(tiling, 3):
                assert dxdy_class(ap) in {(0, 0), (2, 2)}
    for start_term in range(100):
        for step in range(1, 50):
            terms = [start_term, start_term + step, start_term + 2 * step]
            if terms[-1] > 99:
                break
            if any({t % 4 for t in terms} <= {r, (r + 1) % 4} for r in range(4)):
                assert mod4_class(terms) == terms[0] % 4
    assert time.monotonic() - start < 600


def test_criterion_08_chain_graph_suite(corpus):
    start = time.monotonic()
    for key in [(4, 4), (4, 8), (4, 12), (8, 4), (8, 8), (8, 12), (12, 8)]:
        for tiling in corpus[key]:
            graph = build_chain_graph(tiling)
            assert len(graph.edges) == tiling.tile_count
            assert chain_to_tiling(graph) == tiling
            for tile in tiling.tiles:
                assert tile_for_arrow(tiling.rect, arrow_for_tile(tile)) == tile
    for key in [(4, 4), (4, 8), (8, 8)]:
        rect = Rect(*key)
        assert set(hv_enumerate(rect)) == {build_chain_graph(t) for t in corpus[key]}
    for tiling in corpus[(8, 12)]:
        graph = build_chain_graph(tiling)
        tile_triple = any(ap.length >= 3 for ap in enumerate_aps(tiling, 2))
        arrow_triple = any(ap.length >= 3 for ap in shaded_arrow_aps(graph, 2))
        assert tile_triple == arrow_triple
    assert time.monotonic() - start < 900


def test_criterion_09_3x5_grid_argument():
    start = time.monotonic()
    # Independent oracle: every 3-term AP of cells in the 3x5 grid as a bitmask.
    masks = []
    for dy in range(0, 3):
        for dx in range(-4, 5):
            if (dy, dx) <= (0, 0):
                continue
            for r in range(3 - 2 * dy):
                for c in range(5):
                    if not (0 <= c + 2 * dx < 5):
                        continue
                    m = 0
                    for k in range(3):
                        m |= 1 << ((r + k * dy) * 5 + (c + k * dx))
                    masks.append(m)
    masks = sorted(set(masks))
    for bits in range(1 << 15):
        assert any((bits & m) == m or (bits & m) == 0 for m in masks), bits

    stripes = GridColoring(tuple(tuple(c % 2 for c in range(5)) for _ in range(3)))
    assert grid_mono_ap(stripes, 4) is None
    assert compute_Lvdw(3, 5).value == 3
    assert time.monotonic() - start < 10


def _apfree_construction(h: int, w: int, l: int, *, rot180: bool = False, budget: float = 1700):
    cnf = add_ap_blocking(build_cnf(Rect(h, w)), l)
    if rot180:
        cnf = add_rot180_symmetry(cnf)
    result = solve(cnf, SearchConfig(time_budget_s=budget))
    assert result.forced is False
    witness = result.witness
    assert witness is not None
    # Independent re-verification, plus a file round trip of the certificate.
    assert longest_ap(witness).length < l
    assert cut_cornerless_ok(witness)
    assert read_tiling(write_tiling(witness)) == witness
    if rot180:
        assert witness == witness.rotated_180()
    return witness


def test_criterion_10_sat_constructions():
    start = time.monotonic()
    _apfree_construction(12, 20, 3)
    _apfree_construction(20, 20, 3)
    _apfree_construction(20, 20, 3, rot180=True)
    assert time.monotonic() - start < 1800


def test_criterion_11_width_12_16_lower_bounds():
    start = time.monotonic()
    for h, w in [(12, 16), (12, 32), (16, 16), (16, 32)]:
        _apfree_construction(h, w, 3, budget=7000)
    assert time.monotonic() - start < 7200


def test_criterion_12_long_jobs_exposed_with_bracketing(capsys):
    # The long computations (the full exact-value table, the large 2D van der
    # Waerden pairs) are plain CLI invocations honoring --budget-seconds.
    # Smoke-test that the budget produces bracketing output and exit code 4
    # instead of an answer.
    # 24x24 at l = 3 is UNSAT after about 1,800 conflicts (about a second),
    # far beyond the 0.05 s budget.
    code = main(["lvalue", "--height", "24", "--width", "24",
                 "--budget-seconds", "0.05"])
    out = capsys.readouterr().out
    assert code == 4
    assert "UNKNOWN L in [" in out

    code = main(["apfree", "--height", "24", "--width", "24", "--len", "3",
                 "--budget-seconds", "0.05"])
    out = capsys.readouterr().out
    assert code == 4
    assert "UNKNOWN" in out

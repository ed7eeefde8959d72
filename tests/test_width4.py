from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from ttr import width4
from ttr.errors import CatalogError, ParseError, StructureError
from ttr.grid import Orientation, Rect
from ttr.aps import has_ap_of_length, longest_ap
from ttr.width4 import (
    TwoColoring,
    UNIT_A_TILES,
    UNIT_B_TILES,
    UnitCatalog,
    ab_map,
    coloring_to_tiling,
    concatenate,
    d1_equiv_check,
    d1_tiles,
    decompose,
    enumerate_units,
    first_column_class,
    read_tcolor,
    stack_rows,
    tcolor_to_coloring,
    coloring_to_tcolor,
    tiling_to_coloring,
    write_tcolor,
)
from ttr.vdw import extremal_coloring


def test_exactly_two_units_of_length_four():
    units = enumerate_units(4)
    assert [u.kind for u in units] == ["A", "B"]
    assert units[0].tiles == UNIT_A_TILES
    assert units[1].tiles == UNIT_B_TILES


def test_unit_a_first_column_is_an_r_tile():
    # A's first column: R over rows 1-3 plus the U stem in row 4.
    r_tiles = [t for t in UNIT_A_TILES if t.orientation is Orientation.R]
    assert r_tiles == [UNIT_A_TILES[0]] and r_tiles[0].anchor == (0, 0)
    d_tiles = [t for t in UNIT_B_TILES if t.orientation is Orientation.D]
    assert d_tiles[0].anchor == (0, 0)


def test_every_unit_first_column_matches_a_or_b(catalog):
    for u in catalog.units:
        assert first_column_class(u.tiles) in ("A", "B")
    # naming rule: A-matching units at even positions, so C matches A and F matches B
    assert first_column_class(catalog.by_kind("C").tiles) == "A"
    assert first_column_class(catalog.by_kind("F").tiles) == "B"


def test_two_units_per_length_up_to_16(catalog):
    lengths = [u.length for u in catalog.units]
    assert lengths == [4, 4, 8, 8, 12, 12, 16, 16]


def test_decompose_single_units(catalog, pinwheel_a):
    assert decompose(pinwheel_a, catalog).kinds == ("A",)
    ab = concatenate(["A", "B"], catalog)
    assert decompose(ab, catalog).kinds == ("A", "B")


def test_decompose_concatenate_round_trip(catalog, corpus):
    for tiling in corpus[(4, 12)]:
        us = decompose(tiling, catalog)
        assert concatenate(us.kinds, catalog) == tiling
        assert us.total_length == 12


def test_default_catalog_is_built_once(monkeypatch, corpus):
    calls = []

    def counting(max_len):
        calls.append(max_len)
        return enumerate_units(max_len)

    monkeypatch.setattr(width4, "enumerate_units", counting)
    width4._default_catalog.cache_clear()
    try:
        for tiling in corpus[(4, 16)][:5]:
            decompose(tiling)
            assert concatenate(decompose(tiling).kinds) == tiling
    finally:
        width4._default_catalog.cache_clear()
    assert calls == [16]


def test_decompose_catalog_too_small(corpus):
    small = UnitCatalog(4)
    fault_free_8 = [t for t in corpus[(4, 8)] if len(decompose(t, UnitCatalog(8)).kinds) == 1]
    assert fault_free_8
    with pytest.raises(CatalogError) as exc:
        decompose(fault_free_8[0], small)
    assert exc.value.required_length >= 8


def test_ab_map_fixes_ab_tilings(catalog):
    ab = concatenate(["A", "B"], catalog)
    assert ab_map(ab) == ab


def test_ab_map_replaces_length8_unit_by_aa(catalog):
    c_unit = concatenate(["C"], catalog)
    assert first_column_class(c_unit.tiles) == "A"
    assert ab_map(c_unit) == concatenate(["A", "A"], catalog)
    f_unit = concatenate(["F"], catalog)
    assert ab_map(f_unit) == concatenate(["B", "B", "B"], catalog)


def test_ab_map_idempotent_and_fixes_d1(corpus):
    for tiling in corpus[(4, 12)]:
        mapped = ab_map(tiling)
        assert ab_map(mapped) == mapped
        assert set(d1_tiles(tiling)) == set(d1_tiles(mapped))


def test_ab_lemma_on_4x16(corpus):
    for tiling in corpus[(4, 16)]:
        assert has_ap_of_length(tiling, 3) == has_ap_of_length(ab_map(tiling), 3)


def test_d1_lemma_on_4x16(corpus):
    for tiling in corpus[(4, 16)]:
        any_ap, d1_ap = d1_equiv_check(tiling, 3)
        assert any_ap == d1_ap


def test_d1_equiv_on_constructions():
    nine_a = coloring_to_tiling(TwoColoring.from_string("A" * 9))
    assert d1_equiv_check(nine_a, 3) == (True, True)
    apfree = TwoColoring.from_bits(extremal_coloring(3))
    strip = coloring_to_tiling(apfree)
    assert strip.rect == Rect(4, 32)
    assert d1_equiv_check(strip, 3) == (False, False)


def test_coloring_round_trips():
    single = TwoColoring.from_string("A")
    assert tiling_to_coloring(coloring_to_tiling(single)) == single
    ab = TwoColoring.from_string("AB")
    tiling = coloring_to_tiling(ab)
    assert tiling.rect == Rect(4, 8)
    assert tiling_to_coloring(tiling) == ab


@given(st.text(alphabet="AB", min_size=1, max_size=10))
def test_coloring_round_trip_random(s):
    c = TwoColoring.from_string(s)
    assert tiling_to_coloring(coloring_to_tiling(c)) == c


def test_tiling_to_coloring_rejects_other_units(catalog):
    with pytest.raises(StructureError):
        tiling_to_coloring(concatenate(["C"], catalog))


def test_stack_rows_small():
    stacked = stack_rows(TwoColoring.from_string("AB"), 2)
    assert stacked.rect == Rect(8, 8)


def test_stacked_apfree_rows_have_no_triple():
    apfree = TwoColoring.from_bits(extremal_coloring(3))
    double = stack_rows(apfree, 2)
    assert double.rect == Rect(8, 32)
    assert longest_ap(double).length == 2


def test_three_stacked_rows_top_out_at_vertical_triples():
    # Three identical rows admit vertical 3-term APs (step (4, 0)) but nothing
    # longer, which is what the stacked construction needs for lengths > 3.
    apfree = TwoColoring.from_bits(extremal_coloring(3))
    triple = stack_rows(apfree, 3)
    assert triple.rect == Rect(12, 32)
    best = longest_ap(triple)
    assert best.length == 3
    assert best.step == (4, 0)
    quad = stack_rows(TwoColoring.from_bits(extremal_coloring(4)), 4)
    assert quad.rect == Rect(16, 136)
    assert longest_ap(quad).length == 4


def test_tcolor_round_trip():
    text = write_tcolor(["ABBA"])
    assert text == "TCOLOR 1\n1 4\nABBA\n"
    assert read_tcolor(text) == ["ABBA"]
    c = TwoColoring.from_string("ABBA")
    assert tcolor_to_coloring(coloring_to_tcolor(c)) == c


def test_tcolor_errors():
    with pytest.raises(ParseError):
        read_tcolor("TCOLOR 2\n1 1\nA\n")
    with pytest.raises(ParseError) as exc:
        read_tcolor("TCOLOR 1\n1 3\nABX\n")
    assert (exc.value.line, exc.value.column) == (3, 3)
    with pytest.raises(ParseError) as exc:
        read_tcolor("TCOLOR 1\n1 2\nAB\nAB\nAB\n")  # the first extra row is line 4
    assert (exc.value.line, exc.value.column) == (4, 1)

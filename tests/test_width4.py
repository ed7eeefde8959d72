from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

import oracles
import ttr.enumerator
import ttr.grid
from ttr import width4
from ttr.errors import CatalogError, ParseError, ResourceLimitError, StructureError
from ttr.grid import Orientation, Rect, Tiling, write_tiling
from ttr.aps import has_ap_of_length, longest_ap
from ttr.enumerator import enumerate_tilings
from ttr.width4 import (
    MAX_UNIT_LEN,
    UNIT_A_TILES,
    UNIT_B_TILES,
    ab_map,
    coloring_to_tiling,
    concatenate,
    d1_equiv_check,
    d1_tiles,
    decompose,
    enumerate_units,
    stack_rows,
    tiling_to_coloring,
)
from ttr.vdw import GridColoring, extremal_coloring, grid_mono_ap


def strip(colors: str) -> GridColoring:
    """The one-row coloring spelled in A/B letters."""
    return GridColoring((tuple("AB".index(ch) for ch in colors),))


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
    # naming rule: A-matching units at even positions, so C matches A and F matches B
    for i, u in enumerate(catalog.values()):
        assert u.tiles[0] == (UNIT_A_TILES, UNIT_B_TILES)[i % 2][0]
        assert ab_map(concatenate([u.kind])) == concatenate("AB"[i % 2] * (u.length // 4))


def test_units_equal_the_enumerated_catalog():
    for max_len in (4, 8, 12, MAX_UNIT_LEN, 0, 6, -4, MAX_UNIT_LEN + 4):
        try:
            want = oracles.enumerate_units(max_len)
        except (ValueError, ResourceLimitError) as e:
            with pytest.raises(type(e)) as exc:
                enumerate_units(max_len)
            assert str(exc.value) == str(e)
        else:
            assert enumerate_units(max_len) == want


@pytest.mark.parametrize("length", range(4, 25, 4))
def test_fault_free_tilings_are_the_two_closed_form_units(length):
    fault_free = [t.tiles for t in enumerate_tilings(Rect(4, length)) if not width4.fault_columns(t)]
    a, b = width4._unit_tiles(length, 0), width4._unit_tiles(length, 1)
    assert len(fault_free) == 2 and set(fault_free) == {a, b}
    assert (oracles.first_column_class(a), oracles.first_column_class(b)) == ("A", "B")
    # ab_map reads the class of a unit of any length, also past MAX_UNIT_LEN.
    for color, tiles in enumerate((a, b)):
        assert ab_map(Tiling(Rect(4, length), tiles)) == coloring_to_tiling(GridColoring(((color,) * (length // 4),)))


def test_width4_runs_without_the_enumerator(monkeypatch, corpus):
    tilings = corpus[(4, 16)]

    def refuse(*args, **kwargs):
        raise AssertionError("ttr.width4 called the enumerator")

    monkeypatch.setattr(ttr.enumerator, "enumerate_tilings", refuse)
    width4._unit_tiles.cache_clear()
    assert len(enumerate_units(MAX_UNIT_LEN)) == 8
    for tiling in tilings:
        assert concatenate(decompose(tiling).kinds) == tiling
        assert ab_map(ab_map(tiling)) == ab_map(tiling)
    assert not hasattr(width4, "enumerate_tilings")


def test_segments_match_the_filtering_oracle():
    rng = random.Random(11)
    strips = [concatenate(rng.choices("ABCDEFGH", k=rng.randint(1, 300))) for _ in range(20)]
    strips += [concatenate("H" * 300), concatenate("A")]
    strips += [t for w in range(4, 25, 4) for t in enumerate_tilings(Rect(4, w))]
    for tiling in strips:
        assert width4._segments(tiling) == oracles.segments(tiling)
    for bad in (Rect(8, 4), Rect(12, 8)):
        tiling = next(iter(enumerate_tilings(bad)))
        with pytest.raises(ValueError) as exc:
            width4._segments(tiling)
        with pytest.raises(ValueError) as want:
            oracles.segments(tiling)
        assert str(exc.value) == str(want.value)


def test_two_units_per_length_up_to_16(catalog):
    lengths = [u.length for u in catalog.values()]
    assert lengths == [4, 4, 8, 8, 12, 12, 16, 16]


def test_decompose_single_units(pinwheel_a):
    assert decompose(pinwheel_a).kinds == ("A",)
    ab = concatenate(["A", "B"])
    assert decompose(ab).kinds == ("A", "B")


def test_decompose_concatenate_round_trip(corpus):
    for tiling in corpus[(4, 12)]:
        us = decompose(tiling)
        assert concatenate(us.kinds) == tiling
        assert sum(us.lengths) == 12


#: SHA-256 of the TTILING text of the 8x136 stack of two 4-AP-free strips,
#: taken while the strip was still laid out from the unit catalog.
STACKED_STRIP_SHA256 = "b6fb3f452b4e248e01c70677975b4688b48125a7b4653f69756ecf035e8b1b59"


def test_stacked_strip_bytes_are_pinned():
    coloring = extremal_coloring(4)
    stacked = stack_rows(coloring, 2)
    assert hashlib.sha256(write_tiling(stacked).encode()).hexdigest() == STACKED_STRIP_SHA256
    assert coloring_to_tiling(coloring) == concatenate(str(coloring))


def test_decompose_catalog_too_small():
    # The two fault-free tilings of 4x20 are units one step past the catalog.
    length = MAX_UNIT_LEN + 4
    fault_free = [t for t in enumerate_tilings(Rect(4, length)) if not width4.fault_columns(t)]
    assert len(fault_free) == 2
    for tiling in fault_free:
        with pytest.raises(CatalogError) as exc:
            decompose(tiling)
        assert exc.value.required_length == length
        assert f"MAX_UNIT_LEN = {MAX_UNIT_LEN}" in str(exc.value)
    with pytest.raises(ResourceLimitError):
        enumerate_units(length)


def test_ab_map_fixes_ab_tilings():
    ab = concatenate(["A", "B"])
    assert ab_map(ab) == ab


def test_ab_map_replaces_length8_unit_by_aa():
    c_unit = concatenate(["C"])
    assert c_unit.tiles[0] == UNIT_A_TILES[0]
    assert ab_map(c_unit) == concatenate(["A", "A"])
    f_unit = concatenate(["F"])
    assert ab_map(f_unit) == concatenate(["B", "B", "B"])


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
    nine_a = coloring_to_tiling(strip("A" * 9))
    assert d1_equiv_check(nine_a, 3) == (True, True)
    apfree = coloring_to_tiling(extremal_coloring(3))
    assert apfree.rect == Rect(4, 32)
    assert d1_equiv_check(apfree, 3) == (False, False)


def test_coloring_round_trips():
    single = strip("A")
    assert tiling_to_coloring(coloring_to_tiling(single)) == single
    ab = strip("AB")
    tiling = coloring_to_tiling(ab)
    assert tiling.rect == Rect(4, 8)
    assert tiling_to_coloring(tiling) == ab
    assert str(tiling_to_coloring(tiling)) == "AB"


@given(st.text(alphabet="AB", min_size=1, max_size=10))
def test_coloring_round_trip_random(s):
    c = strip(s)
    assert tiling_to_coloring(coloring_to_tiling(c)) == c
    assert str(c) == s


def test_colorings_of_two_rows_are_rejected():
    two_rows = GridColoring(((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="one-row"):
        coloring_to_tiling(two_rows)
    with pytest.raises(ValueError, match="one-row"):
        stack_rows(two_rows, 2)


@pytest.mark.parametrize("coloring", [GridColoring(((0, 1),)), GridColoring(((0, 1), (1, 0)))])
def test_stack_rows_rejects_k_below_one_first(coloring):
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        stack_rows(coloring, 0)


def test_each_strip_construction_validates_once(monkeypatch):
    c = strip("ABBA")
    units = concatenate(["C", "B"])
    calls = []
    validate = ttr.grid.validate

    def recorded(*args):
        calls.append(args)
        return validate(*args)

    # Tiling.__init__ calls validate by its module-global name.
    monkeypatch.setattr(ttr.grid, "validate", recorded)
    for construct in (lambda: stack_rows(c, 3), lambda: coloring_to_tiling(c), lambda: ab_map(units)):
        calls.clear()
        construct()
        assert len(calls) == 1


def test_reduction_to_monochromatic_aps():
    # A 4xN tiling has an l-term AP exactly when its projection's coloring has
    # a monochromatic l-term AP: T(4, l) = 4 * W(2, l) through one coloring type.
    checks = 0
    for n in range(4, 25, 4):
        for tiling in enumerate_tilings(Rect(4, n)):
            coloring = tiling_to_coloring(ab_map(tiling))
            assert coloring.width == n // 4
            for l in (3, 4):
                assert has_ap_of_length(tiling, l) == (grid_mono_ap(coloring, l) is not None), (tiling, l)
                checks += 1
    assert checks == 2 * (2 + 6 + 18 + 54 + 162 + 486)


def test_tiling_to_coloring_rejects_other_units():
    with pytest.raises(StructureError):
        tiling_to_coloring(concatenate(["C"]))


def test_stack_rows_small():
    stacked = stack_rows(strip("AB"), 2)
    assert stacked.rect == Rect(8, 8)


def test_stacked_apfree_rows_have_no_triple():
    apfree = extremal_coloring(3)
    double = stack_rows(apfree, 2)
    assert double.rect == Rect(8, 32)
    assert longest_ap(double).length == 2


def test_three_stacked_rows_top_out_at_vertical_triples():
    # Three identical rows admit vertical 3-term APs (step (4, 0)) but nothing
    # longer, which is what the stacked construction needs for lengths > 3.
    apfree = extremal_coloring(3)
    triple = stack_rows(apfree, 3)
    assert triple.rect == Rect(12, 32)
    best = longest_ap(triple)
    assert best.length == 3
    assert best.step == (4, 0)
    quad = stack_rows(extremal_coloring(4), 4)
    assert quad.rect == Rect(16, 136)
    assert longest_ap(quad).length == 4


def test_tcolor_round_trip():
    c = strip("ABBA")
    text = c.to_tcolor()
    assert text == "TCOLOR 1\n1 4\nABBA\n"
    assert oracles.read_tcolor(text) == c
    assert tiling_to_coloring(coloring_to_tiling(c)).to_tcolor() == text


def test_tcolor_errors():
    with pytest.raises(ParseError):
        oracles.read_tcolor("TCOLOR 2\n1 1\nA\n")
    with pytest.raises(ParseError) as exc:
        oracles.read_tcolor("TCOLOR 1\n1 3\nABX\n")
    assert (exc.value.line, exc.value.column) == (3, 3)
    assert str(exc.value) == "line 3, column 3: bad color 'X' (want A or B)"
    with pytest.raises(ParseError) as exc:
        oracles.read_tcolor("TCOLOR 1\n1 2\nAB\nAB\nAB\n")  # the first extra row is line 4
    assert (exc.value.line, exc.value.column) == (4, 1)
    assert str(exc.value) == "line 4, column 1: expected 1 rows, found 3"
    with pytest.raises(ParseError) as exc:
        oracles.read_tcolor("TCOLOR 1\n2 2\nAB\nABA\n")
    assert str(exc.value) == "line 4, column 1: expected 2 characters, found 3"


def test_d1_equiv_check_rejects_short_lengths_and_other_heights(pinwheel_a):
    with pytest.raises(ValueError, match="^l must be >= 3, got 2$"):
        d1_equiv_check(pinwheel_a, 2)
    with pytest.raises(ValueError, match="^expected a height-4 tiling, got 8x4$"):
        d1_equiv_check(stack_rows(GridColoring(((0,),)), 2), 3)

from __future__ import annotations

import sys

import pytest

from ttr.errors import ResourceLimitError
from ttr.grid import TILING_ORDER, Rect, Tiling, is_tileable
from ttr.enumerator import count_tilings, enumerate_tilings, has_tiling, placements

from conftest import PINWHEEL_A, PINWHEEL_B


def test_4x4_census_is_the_two_pinwheels(corpus):
    tilings = corpus[(4, 4)]
    assert len(tilings) == 2
    assert {t.tiles for t in tilings} == {PINWHEEL_A, PINWHEEL_B}


def test_non_multiple_of_four_rects_have_no_tilings():
    assert list(enumerate_tilings(Rect(4, 6))) == []
    assert count_tilings(Rect(6, 6)) == 0


def test_strip_counts_match_unit_compositions(catalog):
    # Independent count: compositions of the strip length into catalog unit lengths.
    by_len: dict[int, int] = {}
    for u in catalog.units:
        by_len[u.length // 4] = by_len.get(u.length // 4, 0) + 1
    # The catalog stops at length 16 with two units of each length; strips up
    # to 4x40 use Walkup's two fault-free units per length beyond that.
    assert by_len == {1: 2, 2: 2, 3: 2, 4: 2}
    by_len.update({k: 2 for k in range(5, 11)})

    def compositions(n: int) -> int:
        if n == 0:
            return 1
        return sum(m * compositions(n - k) for k, m in by_len.items() if k <= n)

    for n in range(1, 11):
        rect = Rect(4, 4 * n)
        assert count_tilings(rect, max_area=rect.area) == compositions(n)
    assert compositions(10) == 39366


def test_count_is_transpose_invariant(corpus):
    rects = set(corpus) | {(6, 6), (4, 6), (8, 12)}
    for h, w in rects:
        assert count_tilings(Rect(h, w), max_area=128) == count_tilings(Rect(w, h), max_area=128), (h, w)


def test_enumeration_and_count_agree(corpus):
    for (h, w), tilings in corpus.items():
        assert count_tilings(Rect(h, w), max_area=128) == len(tilings)


def test_canonical_stream_order(corpus):
    for tilings in corpus.values():
        keys = [tuple(map(TILING_ORDER, tl.tiles)) for tl in tilings]
        assert keys == sorted(keys)


def test_limit_stops_early():
    got = list(enumerate_tilings(Rect(8, 8), limit=3))
    assert len(got) == 3
    assert got == list(enumerate_tilings(Rect(8, 8)))[:3]


def test_area_bound_enforced():
    with pytest.raises(ResourceLimitError):
        list(enumerate_tilings(Rect(12, 12)))
    assert has_tiling(Rect(12, 12))  # the existence path raises the bound itself


def test_enumerator_matches_divisibility_rule_up_to_12():
    for h in range(4, 13):
        for w in range(4, 13):
            assert has_tiling(Rect(h, w)) == is_tileable(Rect(h, w)), (h, w)


def test_placement_index_canonical_order():
    tiles = placements(Rect(4, 4))
    assert len(tiles) == 24
    keys = [(t.orientation.index, t.row, t.col) for t in tiles]
    assert keys == sorted(keys)


def test_all_yielded_tilings_are_valid_objects():
    for t in enumerate_tilings(Rect(4, 8)):
        assert isinstance(t, Tiling)
        assert t.tile_count == 8


def test_recursion_limit_restored():
    # The 64x64 search needs a recursion limit above the default 1000.
    before = sys.getrecursionlimit()
    assert has_tiling(Rect(64, 64))
    assert sys.getrecursionlimit() == before

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ttr
from ttr import enumerator
from ttr.errors import ResourceLimitError
from ttr.grid import TILING_ORDER, WALKUP_CLASSES, Rect, Tiling, is_tileable, placement_table, write_tiling
from ttr.enumerator import count_tilings, enumerate_tilings, has_tiling

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
    for u in catalog.values():
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


#: Every tileable rectangle of at most 96 cells (the oracle domain of the
#: decision tests) plus 8x16 and 16x8.
STREAM_RECTS = [(h, w) for h in range(4, 25, 4) for w in range(4, 25, 4) if h * w <= 96] + [(8, 16), (16, 8)]
#: SHA-256 over the TTILING texts of the streams of ``STREAM_RECTS``, in that
#: order.  Taken while the stream still tried every placement.
STREAM_SHA256 = "a25423a7a0b4b94af5fb20942ecae7f28ae88e91d6451ae7828a35a2b1fbb33b"


def test_walkup_stream_is_complete():
    # The stream tries only Walkup placements on these rectangles; the
    # unrestricted count proves that it misses no tiling.
    assert len(STREAM_RECTS) == 16
    sha = hashlib.sha256()
    for h, w in STREAM_RECTS:
        rect = Rect(h, w)
        keys = []
        for tiling in enumerate_tilings(rect, max_area=rect.area):
            assert all((t.orientation, t.row % 4, t.col % 4) in WALKUP_CLASSES for t in tiling.tiles), rect
            keys.append(tuple(map(TILING_ORDER, tiling.tiles)))
            sha.update(write_tiling(tiling).encode())
        assert all(a < b for a, b in zip(keys, keys[1:])), rect
        assert len(keys) == count_tilings(rect, max_area=rect.area), rect
    assert sha.hexdigest() == STREAM_SHA256


def test_canonical_stream_order(corpus):
    for tilings in corpus.values():
        keys = [tuple(map(TILING_ORDER, tl.tiles)) for tl in tilings]
        assert keys == sorted(keys)


@pytest.mark.parametrize("h, w", [(3, 5), (5, 6), (1, 1)])
def test_areas_off_a_multiple_of_four_have_no_tilings(h, w):
    assert count_tilings(Rect(h, w)) == 0
    assert list(enumerate_tilings(Rect(h, w))) == []


def test_count_area_bound_enforced():
    with pytest.raises(ResourceLimitError, match=r"^counting for 12x12 \(144 cells\) exceeds the configured "
                                                 r"bound of 100 cells$"):
        count_tilings(Rect(12, 12), max_area=100)


def test_area_bound_enforced():
    with pytest.raises(ResourceLimitError):
        list(enumerate_tilings(Rect(12, 12)))
    assert has_tiling(Rect(12, 12))  # the existence path raises the bound itself


def test_enumerator_matches_divisibility_rule_up_to_12():
    for h in range(4, 13):
        for w in range(4, 13):
            assert has_tiling(Rect(h, w)) == is_tileable(Rect(h, w)), (h, w)


def test_has_tiling_searches_the_narrow_orientation(monkeypatch):
    searched = []
    real = enumerator.enumerate_tilings

    def spy(rect, **kwargs):
        searched.append(rect)
        return real(rect, **kwargs)

    monkeypatch.setattr(enumerator, "enumerate_tilings", spy)
    assert not has_tiling(Rect(18, 20))
    assert has_tiling(Rect(8, 12)) and has_tiling(Rect(12, 8))
    assert searched == [Rect(20, 18), Rect(12, 8), Rect(12, 8)]


@pytest.mark.parametrize("h, w", [(16, 20), (18, 20), (4, 40), (12, 30), (24, 28)])
def test_has_tiling_matches_divisibility_both_ways(h, w):
    assert has_tiling(Rect(h, w)) == has_tiling(Rect(w, h)) == is_tileable(Rect(h, w))


def test_placement_index_canonical_order():
    # The search tries each cell's candidates in the table's order, so this order is the stream's.
    tiles = placement_table(Rect(4, 4)).tiles
    assert len(tiles) == 24
    keys = [(t.orientation.index, t.row, t.col) for t in tiles]
    assert keys == sorted(keys)


def test_all_yielded_tilings_are_valid_objects():
    for t in enumerate_tilings(Rect(4, 8)):
        assert isinstance(t, Tiling)
        assert t.tile_count == 8


def test_recursion_limit_restored():
    # The 64x64 search places 1,024 tiles deep; it must leave the limit as it found it.
    before = sys.getrecursionlimit()
    assert has_tiling(Rect(64, 64))
    assert sys.getrecursionlimit() == before


#: Peak RSS bound of ``ttr tile --height 128 --width 128``, in MB.  It reads
#: about 18 MB on x86-64 Linux with Python 3.11; ``tile`` copies the 4x4
#: block and runs no search.
TILE_128_PEAK_MB = 80

_PEAK_RSS_CHILD = """
import contextlib, io, resource
from ttr.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["tile", "--height", "128", "--width", "128"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_tile_128x128_peak_rss_stays_bounded():
    # Linux carries the spawning process's peak RSS into the child's
    # ru_maxrss across exec, so a small launcher starts the measured child
    # instead of this (large) test process.
    launcher = f"import subprocess, sys; sys.exit(subprocess.call([sys.executable, '-c', {_PEAK_RSS_CHILD!r}]))"
    env = dict(os.environ, PYTHONPATH=str(Path(ttr.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", launcher], env=env,
                           capture_output=True, text=True, check=True, timeout=120)
    assert int(child.stdout) / 1024 < TILE_128_PEAK_MB


_FIRST_4X24000 = """
from ttr.enumerator import enumerate_tilings
from ttr.grid import Rect
print(next(enumerate_tilings(Rect(4, 24000), max_area=96000)).tile_count)
"""


def test_first_tiling_of_4x24000_in_a_child_process():
    # 24,000 tiles deep: a search that recursed per tile would overflow the C stack,
    # so a child process keeps such a crash out of pytest.
    env = dict(os.environ, PYTHONPATH=str(Path(ttr.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _FIRST_4X24000], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["24000"]


_THREE_4X1200 = """
from itertools import islice
from ttr.enumerator import enumerate_tilings
from ttr.grid import Rect
print(*(t.tile_count for t in islice(enumerate_tilings(Rect(4, 1200), max_area=4800), 3)))
"""


def test_second_tiling_of_4x1200_in_a_child_process():
    # A search over every placement found no second tiling of 4x1200 in
    # minutes; the child process bounds the wait.
    env = dict(os.environ, PYTHONPATH=str(Path(ttr.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _THREE_4X1200], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["1200"] * 3


@pytest.mark.parametrize("h, w, draws", [(64, 64, 5), (1200, 4, 2000)])
def test_interleaved_deep_streams_leave_the_recursion_limit_alone(h, w, draws):
    # Both searches run more than 1,000 tiles deep.  Closing the first stream
    # must not leave the second one resuming deeper than any recursion limit.
    # 64x64 gives its first six tilings in about 30 ms (5 ms a tiling); the 1200x4
    # stream draws 2,000 cheaply.
    start = sys.getrecursionlimit()
    rect = Rect(h, w)
    first = enumerate_tilings(rect, max_area=rect.area)
    second = enumerate_tilings(rect, max_area=rect.area)
    assert next(first).tile_count == rect.area // 4
    assert next(second).tile_count == rect.area // 4
    first.close()
    assert sys.getrecursionlimit() == start
    for _ in range(draws):
        assert next(second).tile_count == rect.area // 4
        assert sys.getrecursionlimit() == start

from __future__ import annotations

import random

import pytest

import oracles
from ttr.decide import decide_forces
from ttr.errors import LemmaViolationError
from ttr.grid import Orientation, Rect, Tiling
from ttr.aps import (
    APWitness,
    dxdy_class,
    enumerate_aps,
    has_ap_of_length,
    longest_ap,
    maximal_runs,
    mod4_class,
)
from ttr.width4 import UNIT_A_TILES


def reference_maximal_runs(anchors, min_len):
    """The step-set scan: try every pair step from every start, then sort."""
    pts = sorted(anchors)
    steps = {(b[0] - a[0], b[1] - a[1]) for i, a in enumerate(pts) for b in pts[i + 1 :]}
    out = []
    for start in anchors:
        for dy, dx in steps:
            if (start[0] - dy, start[1] - dx) in anchors:
                continue
            length = 1
            nxt = (start[0] + dy, start[1] + dx)
            while nxt in anchors:
                length += 1
                nxt = (nxt[0] + dy, nxt[1] + dx)
            if length >= min_len:
                out.append((start, (dy, dx), length))
    out.sort(key=lambda rsl: (rsl[0], rsl[1]))
    return out


def reference_longest(tiling):
    aps = enumerate_aps(tiling, 2)
    if not aps:
        return None
    return min(aps, key=lambda ap: (-ap.length, ap.orientation.index, ap.start, ap.step))


def random_anchor_sets(seed=7):
    rng = random.Random(seed)
    yield set()
    yield {(3, 5)}
    yield {(0, 0), (0, 4), (0, 8), (0, 12)}  # one collinear run
    yield {(i, 2 * i) for i in range(9)} | {(2 * i, 0) for i in range(6)}  # two crossing runs
    yield {(0, 4 * i) for i in range(12) if i != 5}  # a run with a hole
    for _ in range(300):
        size = rng.randrange(12)
        box = rng.choice((3, 6, 12))
        yield {(rng.randrange(box), rng.randrange(-box, box)) for _ in range(size)}
    for _ in range(60):  # runs along a random step, thinned out
        dy, dx = rng.choice([(0, rng.randrange(1, 5)), (rng.randrange(1, 4), rng.randrange(-4, 5))])
        yield {(i * dy, i * dx) for i in range(rng.randrange(2, 15)) if rng.random() < 0.8}


def test_pinwheel_has_no_pairs(pinwheel_a):
    assert enumerate_aps(pinwheel_a, 2) == []
    best = longest_ap(pinwheel_a)
    assert best.length == 1 and best.step == (0, 0)
    # tie-break starts from the U tile (canonical orientation order)
    assert best.orientation is Orientation.U


def test_aa_strip_contains_step_four_pair():
    tiles = [t.translated(0, off) for off in (0, 4) for t in UNIT_A_TILES]
    tiling = Tiling(Rect(4, 8), tiles)
    aps = enumerate_aps(tiling, 2)
    assert APWitness(Orientation.D, (0, 1), (0, 4), 2) in aps
    assert all(oracles.verifies_against(ap, tiling) for ap in aps)


def test_periodic_20x20_has_length_five_rows(periodic_20x20):
    aps = enumerate_aps(periodic_20x20, 5)
    assert APWitness(Orientation.D, (0, 1), (0, 4), 5) in aps
    assert longest_ap(periodic_20x20).length == 5
    for ap in aps:
        assert oracles.verifies_against(ap, periodic_20x20)


def test_maximal_aps_are_not_extendable(corpus):
    for tiling in corpus[(8, 8)]:
        anchors = tiling.anchors_by_orientation()
        for ap in enumerate_aps(tiling, 2):
            dy, dx = ap.step
            r, c = ap.start
            assert (r - dy, c - dx) not in anchors[ap.orientation]
            last = (r + (ap.length - 1) * dy, c + (ap.length - 1) * dx)
            assert (last[0] + dy, last[1] + dx) not in anchors[ap.orientation]


def test_pair_completeness(corpus):
    for tiling in corpus[(4, 12)]:
        repeats = any(
            len(anchors) >= 2 for anchors in tiling.anchors_by_orientation().values()
        )
        assert (longest_ap(tiling).length >= 2) == repeats


def test_mod4_class_examples():
    assert mod4_class([4, 8, 12]) == 0
    assert mod4_class([1, 5, 9]) == 1
    assert mod4_class([3, 7, 11]) == 3


def test_mod4_class_rejects_bad_input():
    with pytest.raises(ValueError):
        mod4_class([0, 4])  # too short
    with pytest.raises(ValueError):
        mod4_class([0, 3, 5])  # not an AP
    with pytest.raises(ValueError):
        mod4_class([0, 2, 4])  # residues {0, 2} not adjacent


def test_mod4_class_brute_force_property():
    # Over every AP of length 3 within 0..99 whose residues fit in {r, r+1}
    # for some r, all residues agree.
    for start in range(100):
        for step in range(1, 50):
            terms = [start, start + step, start + 2 * step]
            if terms[-1] > 99:
                break
            residues = {t % 4 for t in terms}
            confined = any(residues <= {r, (r + 1) % 4} for r in range(4))
            if confined:
                assert len(residues) == 1
                assert mod4_class(terms) == terms[0] % 4


def test_dxdy_class_arithmetic():
    assert dxdy_class(APWitness(Orientation.D, (0, 0), (0, 4), 5)) == (0, 0)
    assert dxdy_class(APWitness(Orientation.D, (0, 0), (2, 6), 3)) == (2, 2)
    with pytest.raises(ValueError):
        dxdy_class(APWitness(Orientation.D, (0, 0), (0, 4), 2))
    with pytest.raises(LemmaViolationError):
        dxdy_class(APWitness(Orientation.D, (0, 0), (1, 4), 3))


def test_dxdy_lemma_exhaustive_on_small_rects(corpus):
    for rect_key in [(4, 8), (4, 12), (4, 16), (8, 8), (8, 12)]:
        for tiling in corpus[rect_key]:
            for ap in enumerate_aps(tiling, 3):
                assert dxdy_class(ap) in {(0, 0), (2, 2)}


def test_dxdy_lemma_on_long_strips():
    from ttr.enumerator import enumerate_tilings

    for n in (20, 24):
        for tiling in enumerate_tilings(Rect(4, n)):
            for ap in enumerate_aps(tiling, 3):
                assert dxdy_class(ap) in {(0, 0), (2, 2)}


def test_canonical_output_order(corpus):
    for tiling in corpus[(8, 8)][:20]:
        aps = enumerate_aps(tiling, 2)
        keys = [(ap.orientation.index, ap.start, ap.step) for ap in aps]
        assert keys == sorted(keys)


def test_longest_ap_requires_tiles():
    with pytest.raises(ValueError):
        longest_ap.__call__(type("T", (), {"tiles": ()})())


def test_maximal_runs_match_step_set_reference(corpus):
    for tilings in corpus.values():
        for tiling in tilings:
            for anchors in tiling.anchors_by_orientation().values():
                for min_len in (2, 3):
                    assert maximal_runs(anchors, min_len) == reference_maximal_runs(anchors, min_len)
    for anchors in random_anchor_sets():
        for min_len in (2, 3, 5):
            assert maximal_runs(anchors, min_len) == reference_maximal_runs(anchors, min_len)
    with pytest.raises(ValueError):
        maximal_runs({(0, 0), (0, 1)}, 1)


def test_longest_ap_is_the_canonical_minimum(corpus):
    for tilings in corpus.values():
        for tiling in tilings:
            best = longest_ap(tiling)
            expected = reference_longest(tiling)
            if expected is None:
                assert best.length == 1 and best.step == (0, 0)
            else:
                assert best == expected
            for l in (2, 3, 4, 5):
                assert has_ap_of_length(tiling, l) == (best.length >= l)


def test_longest_ap_on_long_strip_certificate():
    witness = decide_forces(4, 1200, 400).witness
    assert longest_ap(witness).render() == "AP u start=(2, 1) step=(0,4) len=300"


@pytest.mark.parametrize("l", [1, 0, -3])
def test_has_ap_of_length_rejects_lengths_below_two(pinwheel_a, l):
    with pytest.raises(ValueError, match=f"l must be >= 2, got {l}"):
        has_ap_of_length(pinwheel_a, l)

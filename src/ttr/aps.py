"""Detection and certification of arithmetic progressions of tiles.

An AP is a maximal run of same-orientation tiles whose anchors are equally
spaced.  Steps are anchor differences, which is well defined because all
tiles in an AP share one orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import LemmaViolationError
from .grid import ORIENTATIONS, PLACEMENT_ORDER, Cell, Orientation, Tile, Tiling

Step = tuple[int, int]


@dataclass(frozen=True)
class APWitness:
    """An arithmetic progression of tiles: anchors start + i*step, 0 <= i < length."""

    orientation: Orientation
    start: Cell
    step: Step
    length: int

    def anchors(self) -> list[Cell]:
        r, c = self.start
        dy, dx = self.step
        return [(r + i * dy, c + i * dx) for i in range(self.length)]

    def tiles(self) -> list[Tile]:
        return [Tile(self.orientation, r, c) for r, c in self.anchors()]

    def verifies_against(self, tiling: Tiling) -> bool:
        """True when every tile of the progression is present in ``tiling``."""
        anchors = tiling.anchors_by_orientation()[self.orientation]
        return all(a in anchors for a in self.anchors())

    def render(self) -> str:
        return (
            f"AP {self.orientation.value} start={self.start} "
            f"step=({self.step[0]},{self.step[1]}) len={self.length}"
        )


def _runs(anchors: set[Cell] | frozenset[Cell]) -> Iterator[tuple[Cell, Step, int]]:
    """Every maximal run of length >= 2, in (start, step) order.

    Each such run has exactly one first pair (a, a + step): the one whose
    ``a - step`` is absent.  Walking the sorted anchor pairs therefore visits
    each run once, and in order, since for a fixed ``a`` the partners ``b``
    and the steps ``b - a`` sort alike.
    """
    pts = sorted(anchors)
    for i, (r, c) in enumerate(pts):
        for br, bc in pts[i + 1 :]:
            dy, dx = br - r, bc - c
            if (r - dy, c - dx) in anchors:
                continue  # (a, b) is not the first pair of its run
            length = 2
            nxt = (br + dy, bc + dx)
            while nxt in anchors:
                length += 1
                nxt = (nxt[0] + dy, nxt[1] + dx)
            yield (r, c), (dy, dx), length


def maximal_runs(anchors: set[Cell], min_len: int) -> list[tuple[Cell, Step, int]]:
    """All maximal equally-spaced runs of length >= min_len within ``anchors``.

    A run is maximal when it extends in neither direction.  Steps are taken
    positive in (row, col) lexicographic order, so each run is reported once.
    Runs come sorted by (start, step).  Requires ``min_len >= 2``.
    """
    if min_len < 2:
        raise ValueError(f"min_len must be >= 2, got {min_len}")
    return [run for run in _runs(anchors) if run[2] >= min_len]


def enumerate_aps(tiling: Tiling, min_len: int) -> list[APWitness]:
    """All maximal APs of length >= min_len, in canonical order.

    Canonical order: orientation U < D < L < R, then start anchor, then step.
    Every same-orientation tile pair lies inside some reported run, so
    ``min_len=2`` already accounts for all pairs.
    """
    if min_len < 2:
        raise ValueError(f"min_len must be >= 2, got {min_len}")
    witnesses: list[APWitness] = []
    by_orient = tiling.anchors_by_orientation()
    for orient in ORIENTATIONS:
        for start, step, length in maximal_runs(by_orient[orient], min_len):
            witnesses.append(APWitness(orient, start, step, length))
    return witnesses


def longest_ap(tiling: Tiling) -> APWitness:
    """An AP of maximum length; ties broken canonically.

    Tie-break: orientation U < D < L < R, then start row, start col, then
    step, all ascending.  A tiling with four distinct orientations and no
    repeats yields a length-1 witness with step (0, 0).  The runs are
    scanned in that order and only a strictly longer one replaces the best,
    so no list of APs is built.
    """
    if not tiling.tiles:
        raise ValueError("tiling has no tiles")
    by_orient = tiling.anchors_by_orientation()
    best_len = 1
    best = None
    for orient in ORIENTATIONS:
        for start, step, length in _runs(by_orient[orient]):
            if length > best_len:
                best_len, best = length, (orient, start, step)
    if best is None:
        first = min(tiling.tiles, key=PLACEMENT_ORDER)
        return APWitness(first.orientation, first.anchor, (0, 0), 1)
    return APWitness(best[0], best[1], best[2], best_len)


def has_ap_of_length(tiling: Tiling, l: int) -> bool:
    """Whether any AP of length >= l exists (l >= 2); stops at the first one."""
    return any(
        length >= l
        for anchors in tiling.anchors_by_orientation().values()
        for _start, _step, length in _runs(anchors)
    )


def mod4_class(terms: Sequence[int]) -> int:
    """The common residue mod 4 of an AP confined to two adjacent residues.

    Requires: ``terms`` is an arithmetic progression of length >= 3 whose
    residues mod 4 all lie in {r, r+1} for some r.  Under that hypothesis all
    terms share one residue class, which is returned.
    """
    if len(terms) < 3:
        raise ValueError(f"need an AP of length >= 3, got {len(terms)} terms")
    d = terms[1] - terms[0]
    if any(terms[i + 1] - terms[i] != d for i in range(len(terms) - 1)):
        raise ValueError("terms are not an arithmetic progression")
    residues = {t % 4 for t in terms}
    if not any(residues <= {r, (r + 1) % 4} for r in range(4)):
        raise ValueError(f"residues {sorted(residues)} not confined to two adjacent classes mod 4")
    if len(residues) != 1:
        raise LemmaViolationError(
            f"AP {list(terms)} confined to adjacent residues has mixed classes {sorted(residues)}"
        )
    return residues.pop()


def dxdy_class(ap: APWitness) -> tuple[int, int]:
    """The step of an AP of length >= 3, reduced mod 4.

    For APs drawn from a valid tiling the class is always (0, 0) or (2, 2);
    any other value raises :class:`LemmaViolationError`, signalling a bug in
    whatever produced the witness.
    """
    if ap.length < 3:
        raise ValueError(f"need length >= 3, got {ap.length}")
    cls = (ap.step[0] % 4, ap.step[1] % 4)
    if cls not in {(0, 0), (2, 2)}:
        raise LemmaViolationError(f"step {ap.step} has class {cls} mod 4, expected (0,0) or (2,2)")
    return cls

"""Detection and certification of arithmetic progressions of tiles.

An AP is a maximal run of same-orientation tiles whose anchors are equally
spaced.  Steps are anchor differences, which is well defined because all
tiles in an AP share one orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, Sequence

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

    def render(self) -> str:
        return (
            f"AP {self.orientation.value} start={self.start} "
            f"step=({self.step[0]},{self.step[1]}) len={self.length}"
        )


def _encode(anchors: Collection[Cell]) -> tuple[list[int], int, int]:
    """The sorted keys ``row * stride + (col - min_col)`` of ``anchors``, with ``stride`` and ``min_col``.

    ``stride`` is twice the column span plus one.  A key's column part then
    lies in 0..span, so key order is (row, col) order, and a step between
    two anchors moves the column part by at most the span: a step that
    leaves the columns on either side cannot land on another anchor's key.
    """
    cols = [c for _, c in anchors]
    if not cols:
        return [], 1, 0
    lo = min(cols)
    stride = 2 * (max(cols) - lo) + 1
    return sorted([r * stride + c - lo for r, c in anchors]), stride, lo


def _tiling_keys(tiling: Tiling) -> tuple[tuple[list[int], ...], int]:
    """Per orientation index, the sorted anchor keys of ``tiling`` (``min_col`` 0), and the stride.

    Every anchor column lies in 0..w-1, so ``2w - 1`` is a valid stride; the
    tiles come in (row, col) order, so each list comes out sorted.
    """
    stride = 2 * tiling.rect.width - 1
    groups: tuple[list[int], ...] = ([], [], [], [])
    for o, r, c in map(PLACEMENT_ORDER, tiling.tiles):
        groups[o].append(r * stride + c)
    return groups, stride


def _cell(key: int, stride: int, lo: int) -> Cell:
    r, c = divmod(key, stride)
    return (r, c + lo)


def _step(d: int, stride: int) -> Step:
    span = stride // 2
    dy, dx = divmod(d + span, stride)
    return (dy, dx - span)


def _runs(keys: list[int], min_len: int) -> Iterator[tuple[int, int, int]]:
    """Every maximal run of length >= min_len over sorted ``keys``: (start, step, length), in order.

    Each run of length >= 2 has exactly one first pair (a, a + step): the
    one whose ``a - step`` is absent.  Walking the sorted key pairs
    therefore visits each run once, and in (start, step) order, since for a
    fixed ``a`` the partners ``b`` and the steps ``b - a`` sort alike.  Once
    ``a + (min_len - 1) * step`` passes the largest key, no later partner of
    ``a`` can start a long enough run.
    """
    present = set(keys)
    last = keys[-1] if keys else 0
    reach = min_len - 1
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            d = b - a
            if a + reach * d > last:
                break
            if a - d in present:
                continue  # (a, b) is not the first pair of its run
            length = 2
            nxt = b + d
            while nxt in present:
                length += 1
                nxt += d
            if length >= min_len:
                yield a, d, length


def maximal_runs(anchors: set[Cell], min_len: int) -> list[tuple[Cell, Step, int]]:
    """All maximal equally-spaced runs of length >= min_len within ``anchors``.

    A run is maximal when it extends in neither direction.  Steps are taken
    positive in (row, col) lexicographic order, so each run is reported once.
    Runs come sorted by (start, step).  Requires ``min_len >= 2``.
    """
    if min_len < 2:
        raise ValueError(f"min_len must be >= 2, got {min_len}")
    keys, stride, lo = _encode(anchors)
    return [(_cell(a, stride, lo), _step(d, stride), n) for a, d, n in _runs(keys, min_len)]


def enumerate_aps(tiling: Tiling, min_len: int) -> list[APWitness]:
    """All maximal APs of length >= min_len, in canonical order.

    Canonical order: orientation U < D < L < R, then start anchor, then step.
    Every same-orientation tile pair lies inside some reported run, so
    ``min_len=2`` already accounts for all pairs.
    """
    if min_len < 2:
        raise ValueError(f"min_len must be >= 2, got {min_len}")
    groups, stride = _tiling_keys(tiling)
    return [
        APWitness(ORIENTATIONS[o], _cell(a, stride, 0), _step(d, stride), n)
        for o, keys in enumerate(groups)
        for a, d, n in _runs(keys, min_len)
    ]


def longest_ap(tiling: Tiling) -> APWitness:
    """An AP of maximum length; ties broken canonically.

    Tie-break: orientation U < D < L < R, then start row, start col, then
    step, all ascending.  A tiling with four distinct orientations and no
    repeats yields a length-1 witness with step (0, 0).  This is the scan of
    ``_runs`` inlined: runs are met in that order and only a strictly longer
    one replaces the best, so a pair that cannot beat the best is skipped.
    """
    if not tiling.tiles:
        raise ValueError("tiling has no tiles")
    groups, stride = _tiling_keys(tiling)
    best_len = 1
    best = None
    for o, keys in enumerate(groups):
        if len(keys) <= best_len:
            continue
        present = set(keys)
        last = keys[-1]
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                d = b - a
                if a + best_len * d > last:
                    break
                if a - d in present:
                    continue
                length = 2
                nxt = b + d
                while nxt in present:
                    length += 1
                    nxt += d
                if length > best_len:
                    best_len, best = length, (o, a, d)
    if best is None:
        first = min(tiling.tiles, key=PLACEMENT_ORDER)
        return APWitness(first.orientation, first.anchor, (0, 0), 1)
    o, a, d = best
    return APWitness(ORIENTATIONS[o], _cell(a, stride, 0), _step(d, stride), best_len)


def has_ap_of_length(tiling: Tiling, l: int) -> bool:
    """Whether any AP of length >= l exists; stops at the first one.  Requires ``l >= 2``."""
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    groups, _stride = _tiling_keys(tiling)
    return any(any(_runs(keys, l)) for keys in groups)


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

"""Coverings of consecutive squares along one side of a boundary line.

The boundary squares are row-0 cells 0..n-1; tiles lie entirely below the
line (rows 0..2), may stick out up to two columns on either side of the
covered range, and each must cover at least one of the n squares.  The
candidate placements come from the placement table of that band.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimitError
from .grid import TILING_ORDER, Rect, Tile, placement_table
from .aps import maximal_runs

MAX_BOUNDARY_LEN = 12

_COL_SLACK = 2


@dataclass(frozen=True)
class BoundaryCovering:
    """A set of disjoint tiles jointly covering boundary squares 0..n-1."""

    n: int
    tiles: tuple[Tile, ...]

    def longest_ap_length(self) -> int:
        by_orient: dict[int, set] = {}
        for t in self.tiles:
            by_orient.setdefault(t.orientation.index, set()).add(t.anchor)
        best = 1 if self.tiles else 0
        for anchors in by_orient.values():
            for _start, _step, length in maximal_runs(anchors, 2):
                best = max(best, length)
        return best

    def has_ap(self, l: int) -> bool:
        return self.longest_ap_length() >= l


def _candidates(n: int) -> list[list[tuple[int, Tile]]]:
    """Per boundary square, the (cell mask, tile) pairs of the placements covering it.

    The band ``Rect(3, n + 2 * _COL_SLACK)`` holds rows 0..2 and boundary
    columns -_COL_SLACK..n+_COL_SLACK-1, so square c is its flat cell
    ``c + _COL_SLACK``.  Masks are over the band's flat cells; tiles are moved
    back to boundary columns.  Each list is in placement order.
    """
    table = placement_table(Rect(3, n + 2 * _COL_SLACK))
    by_square: list[list[tuple[int, Tile]]] = [[] for _ in range(n)]
    for tile, cells in zip(table.tiles, table.cells):
        pair = (sum(1 << k for k in cells), tile.translated(0, -_COL_SLACK))
        for k in cells:
            if _COL_SLACK <= k < n + _COL_SLACK:
                by_square[k - _COL_SLACK].append(pair)
    return by_square


def enumerate_boundary_coverings(n: int) -> list[BoundaryCovering]:
    """All coverings of n consecutive boundary squares, scanning column by column.

    Coverings are identified by their tile set; each is produced exactly once
    because the tile covering the leftmost uncovered square is unique within
    a covering.  Tiles may extend at most ``_COL_SLACK`` columns beyond the
    covered range (the geometry never needs more).
    """
    if not 1 <= n <= MAX_BOUNDARY_LEN:
        raise ResourceLimitError(
            f"boundary length must be in 1..{MAX_BOUNDARY_LEN}, got {n}"
        )
    candidates = _candidates(n)
    coverings: list[BoundaryCovering] = []
    chosen: list[Tile] = []

    def search(occupied: int, col: int) -> None:
        while col < n and occupied >> (col + _COL_SLACK) & 1:
            col += 1
        if col == n:
            coverings.append(BoundaryCovering(n, tuple(sorted(chosen, key=TILING_ORDER))))
            return
        for m, tile in candidates[col]:
            if occupied & m:
                continue
            chosen.append(tile)
            search(occupied | m, col + 1)
            chosen.pop()

    search(0, 0)
    return coverings


def boundary_forces(n: int, l: int) -> bool:
    """Whether every covering of n consecutive boundary squares has an AP of length >= l."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    return all(cov.has_ap(l) for cov in enumerate_boundary_coverings(n))

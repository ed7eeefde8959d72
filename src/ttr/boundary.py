"""Coverings of consecutive squares along one side of a boundary line.

The boundary squares are row-0 cells 0..n-1; tiles lie entirely below the
line (rows 0..2), may stick out up to two columns on either side of the
covered range, and each must cover at least one of the n squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ResourceLimitError
from .grid import PLACEMENT_ORDER, TILING_ORDER, Orientation, Tile, tile_cells
from .aps import maximal_runs

MAX_BOUNDARY_LEN = 12

_COL_SLACK = 2


@dataclass(frozen=True)
class BoundaryCovering:
    """A set of disjoint tiles jointly covering boundary squares 0..n-1."""

    n: int
    tiles: tuple[Tile, ...]

    def longest_ap_length(self) -> int:
        by_orient: dict[Orientation, set] = {}
        for t in self.tiles:
            by_orient.setdefault(t.orientation, set()).add(t.anchor)
        best = 1 if self.tiles else 0
        for anchors in by_orient.values():
            for _start, _step, length in maximal_runs(anchors, 2):
                best = max(best, length)
        return best

    def has_ap(self, l: int) -> bool:
        return self.longest_ap_length() >= l


def _candidates_covering(col: int) -> list[Tile]:
    """Placements covering boundary square ``col``, canonically ordered.

    Only anchor-row-0 tiles can touch row 0: one per row-0 offset of each
    orientation, so a D bar can cover the square as any of its three cells.
    """
    cands = [Tile(o, 0, col - dc) for o in Orientation for dr, dc in o.offsets if dr == 0]
    return sorted(cands, key=PLACEMENT_ORDER)


def enumerate_boundary_coverings(n: int) -> list[BoundaryCovering]:
    """All coverings of n consecutive boundary squares, scanning column by column.

    Coverings are identified by their tile set; each is produced exactly once
    because the tile covering the leftmost uncovered square is unique within
    a covering.  Tiles may extend at most ``_COL_SLACK`` columns beyond the
    covered range (the geometry never needs more).
    """
    return list(iter_boundary_coverings(n))


def iter_boundary_coverings(n: int) -> Iterator[BoundaryCovering]:
    if not 1 <= n <= MAX_BOUNDARY_LEN:
        raise ResourceLimitError(
            f"boundary length must be in 1..{MAX_BOUNDARY_LEN}, got {n}"
        )
    # Bitmask geometry over rows 0..2, columns -2..n+1 (shifted by +2).
    width = n + 2 * _COL_SLACK

    def mask_of(tile: Tile) -> int:
        m = 0
        for r, c in tile_cells(tile):
            if not (0 <= r <= 2 and -_COL_SLACK <= c < n + _COL_SLACK):
                return -1
            m |= 1 << (r * width + c + _COL_SLACK)
        return m

    cand_by_col: list[list[tuple[int, Tile]]] = []
    for col in range(n):
        pairs = []
        for t in _candidates_covering(col):
            m = mask_of(t)
            if m >= 0:
                pairs.append((m, t))
        cand_by_col.append(pairs)

    chosen: list[Tile] = []

    def search(occupied: int, col: int) -> Iterator[BoundaryCovering]:
        while col < n and occupied >> (col + _COL_SLACK) & 1:
            col += 1
        if col == n:
            yield BoundaryCovering(n, tuple(sorted(chosen, key=TILING_ORDER)))
            return
        for m, tile in cand_by_col[col]:
            if occupied & m:
                continue
            chosen.append(tile)
            yield from search(occupied | m, col + 1)
            chosen.pop()

    yield from search(0, 0)


def boundary_forces(n: int, l: int) -> bool:
    """Whether every covering of n consecutive boundary squares has an AP of length >= l."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    return all(cov.has_ap(l) for cov in iter_boundary_coverings(n))

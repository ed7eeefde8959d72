"""Exhaustive backtracking enumeration of complete tilings.

The search always fills the first uncovered cell in row-major order and tries
candidate placements in canonical order (orientation U < D < L < R, then row,
then col), so the output stream is itself canonically ordered.  Subtrees that
are known to contain no completion are memoized on their frontier state, which
makes emptiness proofs (non-tileable rectangles) fast.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator

from .errors import ResourceLimitError
from .grid import ORIENTATIONS, TILE_BBOX, Rect, Tile, Tiling, tile_cells

DEFAULT_ENUM_AREA = 96


def placements(rect: Rect) -> tuple[Tile, ...]:
    """All placements that fit inside ``rect``, in canonical order."""
    out: list[Tile] = []
    for o in ORIENTATIONS:
        rows, cols = TILE_BBOX[o]
        for r in range(rect.height - rows + 1):
            for c in range(rect.width - cols + 1):
                out.append(Tile(o, r, c))
    return tuple(out)


def _candidates_by_first_cell(rect: Rect) -> list[list[tuple[int, Tile]]]:
    """For each cell index, the placements whose first covered cell is there.

    "First" means smallest row-major index; masks use bit ``r*w + c``.
    """
    w = rect.width
    by_cell: list[list[tuple[int, Tile]]] = [[] for _ in range(rect.area)]
    for tile in placements(rect):
        cells = sorted(tile_cells(tile))
        mask = 0
        for r, c in cells:
            mask |= 1 << (r * w + c)
        first = cells[0][0] * w + cells[0][1]
        by_cell[first].append((mask, tile))
    for lst in by_cell:
        lst.sort(key=lambda mt: (mt[1].orientation.index, mt[1].row, mt[1].col))
    return by_cell


@contextmanager
def _recursion_limit_at_least(depth: int) -> Iterator[None]:
    """Raise the interpreter's recursion limit to ``depth`` and restore it on exit."""
    old_limit = sys.getrecursionlimit()
    if old_limit < depth:
        sys.setrecursionlimit(depth)
    try:
        yield
    finally:
        if old_limit < depth:
            sys.setrecursionlimit(old_limit)


def enumerate_tilings(
    rect: Rect,
    limit: int | None = None,
    *,
    max_area: int = DEFAULT_ENUM_AREA,
) -> Iterator[Tiling]:
    """Yield every complete tiling of ``rect``, in canonical order.

    ``limit`` stops the stream after that many tilings (useful as an
    existence check).  Raises :class:`ResourceLimitError` when the area
    exceeds ``max_area``; raise the bound explicitly for larger searches.
    """
    if rect.area > max_area:
        raise ResourceLimitError(
            f"enumeration of {rect} ({rect.area} cells) exceeds the configured "
            f"bound of {max_area} cells"
        )
    if limit is not None and limit <= 0:
        return
    if rect.area % 4:
        return

    area = rect.area
    by_cell = _candidates_by_first_cell(rect)
    window_bits = 2 * rect.width + 2
    window_mask = (1 << window_bits) - 1
    full = (1 << area) - 1
    dead: set[tuple[int, int]] = set()
    stack: list[Tile] = []
    yielded = 0

    def search(covered: int, first_free: int) -> Iterator[Tiling]:
        nonlocal yielded
        if covered == full:
            yielded += 1
            yield Tiling(rect, stack)
            return
        while (covered >> first_free) & 1:
            first_free += 1
        key = (first_free, (covered >> first_free) & window_mask)
        if key in dead:
            return
        produced = yielded
        for mask, tile in by_cell[first_free]:
            if covered & mask:
                continue
            stack.append(tile)
            yield from search(covered | mask, first_free + 1)
            stack.pop()
            if limit is not None and yielded >= limit:
                return
        if yielded == produced:
            dead.add(key)

    with _recursion_limit_at_least(area // 4 + 80):
        for tiling in search(0, 0):
            yield tiling
            if limit is not None and yielded >= limit:
                return


def count_tilings(rect: Rect, *, max_area: int = DEFAULT_ENUM_AREA) -> int:
    """Number of complete tilings, via a memoized frontier count.

    Much faster than draining :func:`enumerate_tilings` because equal
    frontier states are counted once.
    """
    if rect.area > max_area:
        raise ResourceLimitError(
            f"counting for {rect} ({rect.area} cells) exceeds the configured "
            f"bound of {max_area} cells"
        )
    if rect.area % 4:
        return 0
    area = rect.area
    by_cell = _candidates_by_first_cell(rect)
    window_bits = 2 * rect.width + 2
    window_mask = (1 << window_bits) - 1
    full = (1 << area) - 1
    memo: dict[tuple[int, int], int] = {}

    def count(covered: int, first_free: int) -> int:
        if covered == full:
            return 1
        while (covered >> first_free) & 1:
            first_free += 1
        key = (first_free, (covered >> first_free) & window_mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = 0
        for mask, _tile in by_cell[first_free]:
            if not covered & mask:
                total += count(covered | mask, first_free + 1)
        memo[key] = total
        return total

    with _recursion_limit_at_least(area // 4 + 64):
        return count(0, 0)


def has_tiling(rect: Rect, *, max_area: int = 4096) -> bool:
    """Existence check backed by the same memoized frontier search."""
    if rect.area % 4:
        return False
    for _ in enumerate_tilings(rect, limit=1, max_area=max_area):
        return True
    return False

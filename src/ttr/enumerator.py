"""Exhaustive row-major frontier search over complete tilings.

:func:`frontier_search` is the one tiling search in the package.  It fills
the first uncovered cell in row-major order with each placement whose first
covered cell is there, tried in canonical order (orientation U < D < L < R,
then row, then col), so its output stream is itself canonically ordered.  It
searches over a given tuple of placements and takes an optional
``prune(tile, placed)`` hook that cuts a candidate given the tiles already
placed; :mod:`ttr.decide` passes its AP-window check there.

The frontier state is the first free cell plus the next ``2*width + 2``
cover bits.  The search memoizes dead states, which makes emptiness proofs
(non-tileable rectangles) fast.  A state is recorded as dead only when its
subtree yielded no tiling *and* the hook cut nothing inside it: only then
was the subtree searched in full, so no completion exists from that state
whatever was placed before it.  With no hook this is the plain dead-state
memo.

:func:`enumerate_tilings` is the search over every placement.
:func:`count_tilings` shares the candidate table, the frontier window and
the recursion guard, memoizes counts instead, and promises only the number.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from .errors import ResourceLimitError
from .grid import ORIENTATIONS, PLACEMENT_ORDER, Rect, Tile, Tiling, tile_cells

DEFAULT_ENUM_AREA = 96
#: The area bound of :func:`has_tiling`.
MAX_EXISTENCE_AREA = 4096


def placements(rect: Rect) -> tuple[Tile, ...]:
    """All placements that fit inside ``rect``, in canonical order."""
    out: list[Tile] = []
    for o in ORIENTATIONS:
        rows, cols = o.bbox
        for r in range(rect.height - rows + 1):
            for c in range(rect.width - cols + 1):
                out.append(Tile(o, r, c))
    return tuple(out)


def _frontier(rect: Rect, tiles: Sequence[Tile]) -> tuple[list[list[tuple[int, Tile]]], int, int]:
    """Candidate table, frontier window mask and full cover mask of a search.

    The table lists, for each cell index, the ``(mask, tile)`` pairs of the
    placements in ``tiles`` whose first covered cell ("first" means smallest
    row-major index) is there, in canonical order; masks use bit ``r*w + c``.
    """
    w = rect.width
    by_cell: list[list[tuple[int, Tile]]] = [[] for _ in range(rect.area)]
    for tile in sorted(tiles, key=PLACEMENT_ORDER):
        cells = sorted(tile_cells(tile))
        mask = 0
        for r, c in cells:
            mask |= 1 << (r * w + c)
        first = cells[0][0] * w + cells[0][1]
        by_cell[first].append((mask, tile))
    return by_cell, (1 << (2 * w + 2)) - 1, (1 << rect.area) - 1


@contextmanager
def _deep_enough(rect: Rect) -> Iterator[None]:
    """Let the recursion reach one frame per tile of ``rect``; restore the limit on exit."""
    depth = rect.area // 4 + 80
    old_limit = sys.getrecursionlimit()
    if old_limit < depth:
        sys.setrecursionlimit(depth)
    try:
        yield
    finally:
        if old_limit < depth:
            sys.setrecursionlimit(old_limit)


def frontier_search(
    rect: Rect,
    tiles: Sequence[Tile],
    *,
    prune: Callable[[Tile, Sequence[Tile]], bool] | None = None,
    limit: int | None = None,
) -> Iterator[Tiling]:
    """Yield every tiling of ``rect`` by placements from ``tiles``, in canonical order.

    ``prune(tile, placed)`` cuts a candidate placement that the caller rules
    out given the tiles placed so far; ``limit`` stops the stream after that
    many tilings.  The area is not bounded here; callers bound it.
    """
    if limit is not None and limit <= 0:
        return
    if rect.area % 4:
        return

    by_cell, window_mask, full = _frontier(rect, tiles)
    dead: set[tuple[int, int]] = set()
    placed: list[Tile] = []
    yielded = 0
    cuts = 0

    def search(covered: int, first_free: int) -> Iterator[Tiling]:
        nonlocal yielded, cuts
        if covered == full:
            yielded += 1
            yield Tiling(rect, placed)
            return
        while (covered >> first_free) & 1:
            first_free += 1
        key = (first_free, (covered >> first_free) & window_mask)
        if key in dead:
            return
        before = (yielded, cuts)
        for mask, tile in by_cell[first_free]:
            if covered & mask:
                continue
            if prune is not None and prune(tile, placed):
                cuts += 1
                continue
            placed.append(tile)
            yield from search(covered | mask, first_free + 1)
            placed.pop()
            if limit is not None and yielded >= limit:
                return
        if (yielded, cuts) == before:
            dead.add(key)

    with _deep_enough(rect):
        for tiling in search(0, 0):
            yield tiling
            if limit is not None and yielded >= limit:
                return


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
    yield from frontier_search(rect, placements(rect), limit=limit)


def count_tilings(rect: Rect, *, max_area: int = DEFAULT_ENUM_AREA) -> int:
    """Number of complete tilings, via a memoized frontier count.

    Much faster than draining :func:`enumerate_tilings` because equal
    frontier states are counted once.  A rectangle wider than it is tall is
    counted as its transpose: transposition maps T-tilings to T-tilings
    (U <-> L, D <-> R), so the number is the same, and the frontier key then
    spans the short side.  Keyed on the long side, frontier states rarely
    repeat and the work grows exponentially with the width.
    """
    if rect.area > max_area:
        raise ResourceLimitError(
            f"counting for {rect} ({rect.area} cells) exceeds the configured "
            f"bound of {max_area} cells"
        )
    if rect.width > rect.height:
        rect = Rect(rect.width, rect.height)
    return _count(rect, placements(rect))


def _count(rect: Rect, tiles: Sequence[Tile]) -> int:
    """Number of tilings of ``rect`` that use only placements from ``tiles`` (no transpose)."""
    if rect.area % 4:
        return 0
    by_cell, window_mask, full = _frontier(rect, tiles)
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

    with _deep_enough(rect):
        return count(0, 0)


def has_tiling(rect: Rect) -> bool:
    """Existence check backed by the same memoized frontier search.

    Raises :class:`ResourceLimitError` above ``MAX_EXISTENCE_AREA`` cells.
    """
    if rect.area % 4:
        return False
    for _ in enumerate_tilings(rect, limit=1, max_area=MAX_EXISTENCE_AREA):
        return True
    return False

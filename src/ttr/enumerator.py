"""Exhaustive row-major frontier search over complete tilings.

:func:`enumerate_tilings` is the one tiling search in the package.  It
fills the first uncovered cell in row-major order with each placement whose
first covered cell is there, tried in canonical order (orientation U < D <
L < R, then row, then col), so its output stream is itself canonically
ordered.

The frontier state is the first free cell plus the cover bits from there
on, a window of at most ``2*width`` bits: each placement's mask is relative
to its first cell, so no mask spans the whole rectangle.  The placements are
the interned tiles of ``grid.placement_table``.  The search records a state
as dead when its subtree yielded no tiling, which makes emptiness proofs
(non-tileable rectangles) fast.

:func:`count_tilings` shares the candidate table, the frontier window and
the recursion guard, memoizes counts instead, and promises only the number.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator, Sequence

from .errors import ResourceLimitError
from .grid import PLACEMENT_ORDER, Rect, Tile, Tiling, _flat_steps, placement_table

DEFAULT_ENUM_AREA = 96
#: The area bound of :func:`has_tiling`.
MAX_EXISTENCE_AREA = 4096


def placements(rect: Rect) -> tuple[Tile, ...]:
    """All placements that fit inside ``rect``, in canonical order (the placement table's tiles)."""
    return placement_table(rect).tiles


def _frontier(rect: Rect, tiles: Sequence[Tile]) -> list[list[tuple[int, Tile]]]:
    """Candidate table of a search: per cell index, the ``(mask, tile)`` pairs of the placements
    in ``tiles`` whose first (smallest row-major) cell is there, in canonical order.

    Bit ``i`` of a mask is the cell ``i`` places after that first cell, so
    each orientation has one mask at a given width.
    """
    w = rect.width
    relative = []
    for steps in _flat_steps(w):
        first = min(steps)
        relative.append((first, sum(1 << (s - first) for s in steps)))
    by_cell: list[list[tuple[int, Tile]]] = [[] for _ in range(rect.area)]
    for tile in sorted(tiles, key=PLACEMENT_ORDER):
        first, mask = relative[tile.orientation.index]
        by_cell[tile.row * w + tile.col + first].append((mask, tile))
    return by_cell


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


def enumerate_tilings(rect: Rect, *, max_area: int = DEFAULT_ENUM_AREA) -> Iterator[Tiling]:
    """Yield every complete tiling of ``rect``, in canonical order.

    Only enumerations run it (the tests' oracles and ``has_tiling``); no
    forcing answer does.  The stream is lazy: a caller that stops early
    (``has_tiling``, ``itertools.islice``) pays only for the tilings it took.  Raises
    :class:`ResourceLimitError` when the area exceeds ``max_area``; raise
    the bound explicitly for larger searches.
    """
    if rect.area > max_area:
        raise ResourceLimitError(
            f"enumeration of {rect} ({rect.area} cells) exceeds the configured "
            f"bound of {max_area} cells"
        )
    if rect.area % 4:
        return

    by_cell = _frontier(rect, placements(rect))
    area = rect.area
    dead: set[tuple[int, int]] = set()
    placed: list[Tile] = []
    yielded = 0

    def search(window: int, first_free: int) -> Iterator[Tiling]:
        nonlocal yielded
        while window & 1:
            window >>= 1
            first_free += 1
        if first_free == area:
            yielded += 1
            yield Tiling(rect, placed)
            return
        key = (first_free, window)
        if key in dead:
            return
        before = yielded
        for mask, tile in by_cell[first_free]:
            if window & mask:
                continue
            placed.append(tile)
            yield from search((window | mask) >> 1, first_free + 1)
            placed.pop()
        if yielded == before:
            dead.add(key)

    with _deep_enough(rect):
        yield from search(0, 0)


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
    by_cell = _frontier(rect, tiles)
    area = rect.area
    memo: dict[tuple[int, int], int] = {}

    def count(window: int, first_free: int) -> int:
        while window & 1:
            window >>= 1
            first_free += 1
        if first_free == area:
            return 1
        key = (first_free, window)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = 0
        for mask, _tile in by_cell[first_free]:
            if not window & mask:
                total += count((window | mask) >> 1, first_free + 1)
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
    for _ in enumerate_tilings(rect, max_area=MAX_EXISTENCE_AREA):
        return True
    return False

"""Exhaustive row-major frontier search over complete tilings.

:func:`enumerate_tilings` is the one tiling search in the package.  It
fills the first uncovered cell in row-major order with each placement whose
first covered cell is there, tried in canonical order (orientation U < D <
L < R, then row, then col), so its output stream is itself canonically
ordered.

The frontier state is the first free cell plus the cover bits from there
on, a window of at most ``2*width`` bits: each placement's mask is relative
to its first cell, so no mask spans the whole rectangle.  The placements are
the interned tiles of ``grid.placement_table``.  The search keeps its own
stack of parent states, so its depth (one state per tile) has no recursion
limit, and it records a state as dead when its subtree yielded no tiling.

:func:`count_tilings` shares the candidate table and the frontier window,
and counts forward: the ways to reach each state, bucketed by first free cell.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import ResourceLimitError
from .grid import Rect, Tile, Tiling, _flat_steps, placement_table

DEFAULT_ENUM_AREA = 96
#: The area bound of :func:`has_tiling`.
MAX_EXISTENCE_AREA = 4096


def _frontier(rect: Rect, tiles: Sequence[Tile]) -> list[list[tuple[int, Tile]]]:
    """Candidate table of a search: per cell index, the ``(mask, tile)`` pairs of the placements
    in ``tiles`` whose first (smallest row-major) cell is there, in the order of ``tiles``.

    Bit ``i`` of a mask is the cell ``i`` places after that first cell, so
    each orientation has one mask at a given width.
    """
    w = rect.width
    relative = []
    for steps in _flat_steps(w):
        first = min(steps)
        relative.append((first, sum(1 << (s - first) for s in steps)))
    by_cell: list[list[tuple[int, Tile]]] = [[] for _ in range(rect.area)]
    for tile in tiles:
        first, mask = relative[tile.orientation.index]
        by_cell[tile.row * w + tile.col + first].append((mask, tile))
    return by_cell


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

    by_cell = _frontier(rect, placement_table(rect).tiles)
    area = rect.area
    dead: list[set[int]] = [set() for _ in range(area)]  # dead windows by first free cell
    placed: list[Tile] = []
    parents: list[tuple[int, int, Iterator[tuple[int, Tile]], int]] = []
    yielded = 0
    # The current state: first free cell, window, untried candidates, tilings yielded on entry.
    free, window, untried, before = 0, 0, iter(by_cell[0]), 0
    while True:
        for mask, tile in untried:
            if not window & mask:
                break
        else:
            if yielded == before:
                dead[free].add(window)
            if not parents:
                return
            free, window, untried, before = parents.pop()
            placed.pop()
            continue
        child, to = (window | mask) >> 1, free + 1
        while child & 1:
            child >>= 1
            to += 1
        if to == area:
            yielded += 1
            yield Tiling(rect, [*placed, tile])
        elif child not in dead[to]:
            placed.append(tile)
            parents.append((free, window, untried, before))
            free, window, untried, before = to, child, iter(by_cell[to]), yielded


def count_tilings(rect: Rect, *, max_area: int = DEFAULT_ENUM_AREA) -> int:
    """Number of complete tilings, via a forward frontier count.

    Much faster than draining :func:`enumerate_tilings`: the paths into
    equal frontier states merge into one number.  A rectangle wider than it
    is tall is counted as its transpose: transposition maps T-tilings to
    T-tilings (U <-> L, D <-> R), so the number is the same, and the
    frontier key then spans the short side.  Keyed on the long side,
    frontier states rarely repeat and the work grows exponentially.
    """
    if rect.area > max_area:
        raise ResourceLimitError(
            f"counting for {rect} ({rect.area} cells) exceeds the configured "
            f"bound of {max_area} cells"
        )
    if rect.width > rect.height:
        rect = Rect(rect.width, rect.height)
    return _count(rect, placement_table(rect).tiles)


def _count(rect: Rect, tiles: Sequence[Tile]) -> int:
    """Number of tilings of ``rect`` that use only placements from ``tiles`` (no transpose)."""
    if rect.area % 4:
        return 0
    by_cell = _frontier(rect, tiles)
    area = rect.area
    # ways[f][window]: paths into the state (f, window); every placement moves f forward.
    ways: list[dict[int, int]] = [{} for _ in range(area + 1)]
    ways[0][0] = 1
    for free in range(area):
        for window, n in ways[free].items():
            for mask, _tile in by_cell[free]:
                if window & mask:
                    continue
                child, to = (window | mask) >> 1, free + 1
                while child & 1:
                    child >>= 1
                    to += 1
                bucket = ways[to]
                bucket[child] = bucket.get(child, 0) + n
        ways[free] = {}
    return ways[area].get(0, 0)


def has_tiling(rect: Rect) -> bool:
    """Existence check: whether :func:`enumerate_tilings` yields a first tiling.

    A rectangle wider than it is tall is searched as its transpose, as in
    :func:`count_tilings`: transposition maps tilings to tilings, so the
    answer is the same, and the frontier window, which grows with the
    width, then spans the short side.  Raises :class:`ResourceLimitError`
    above ``MAX_EXISTENCE_AREA`` cells.
    """
    if rect.area % 4:
        return False
    if rect.width > rect.height:
        rect = Rect(rect.width, rect.height)
    for _ in enumerate_tilings(rect, max_area=MAX_EXISTENCE_AREA):
        return True
    return False

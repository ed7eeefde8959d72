"""Chain graphs: block decomposition, antiblock shading, and the HV construction.

Subdivide the rectangle into 2x2 blocks.  Every tile of a valid tiling has
three cells in one block (its majority) and one in an orthogonally adjacent
block (its minority); drawing one directed edge per tile from majority to
minority yields the chain graph.  The 2x2 boxes of block-centers are the
*antiblocks*, checkerboard-colored so that the boxes centered at grid points
congruent to (0,0) or (2,2) mod 4 are gray.  Each edge then has exactly one
gray antiblock beside it, and (edge, gray side) determines the tile.

By Walkup's cut structure the placements in ``grid.WALKUP_CLASSES`` and the
block steps inside the block grid pair up one to one, so a tile is the same
thing as its shaded arrow.  ``chain_table(rect)`` is that bijection, built
whole on first use from ``majority_minority`` and cached like
``grid.placement_table``: the edge of every Walkup placement and, the other
way round, the index of each edge's placement in the placement table.
Building a chain graph looks its tiles up in it.  Both decoders,
``chain_to_tiling`` and ``tile_for_arrow``, look edges up in it through one
helper, which first reports a bad edge in the order flanks, then adjacency,
then bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from typing import Iterable, Iterator, NamedTuple

from .errors import ResourceLimitError, StructureError
from .grid import CUT_CLASSES, PLACEMENT_ORDER, Cell, Rect, Tile, Tiling, placement_table, tile_cells
from .aps import maximal_runs

Block = tuple[int, int]
Edge = tuple[Block, Block]

MAX_HV_AREA = 128


@dataclass(frozen=True)
class Antiblock:
    """A 2x2 box of chain-graph vertices, identified by its center grid point."""

    center: Cell
    color: str  # "gray" or "white"


@dataclass(frozen=True)
class ShadedArrow:
    """A directed chain edge together with the side its gray antiblock lies on."""

    edge: Edge
    side: str  # "L" or "R", walking along the arrow

    @property
    def source(self) -> Block:
        return self.edge[0]

    @property
    def direction(self) -> tuple[int, int]:
        (r1, c1), (r2, c2) = self.edge
        return (r2 - r1, c2 - c1)


class ChainGraph:
    """Directed graph on the (h/2)x(w/2) grid of block centers, one edge per tile."""

    __slots__ = ("rect", "edges")

    def __init__(self, rect: Rect, edges: Iterable[Edge]):
        if rect.height % 2 or rect.width % 2:
            raise ValueError(f"rectangle sides must be even, got {rect}")
        self.rect = rect
        self.edges = frozenset(edges)

    def canonical_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def reversed(self) -> "ChainGraph":
        return ChainGraph(self.rect, [(v, u) for u, v in self.edges])

    def __eq__(self, other) -> bool:
        return isinstance(other, ChainGraph) and self.rect == other.rect and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.rect, self.edges))

    def __repr__(self) -> str:
        return f"ChainGraph({self.rect}, {len(self.edges)} edges)"


def _is_gray_center(center: Cell) -> bool:
    return (center[0] % 4, center[1] % 4) in CUT_CLASSES


def antiblock_coloring(rect: Rect) -> list[Antiblock]:
    """All antiblocks of the rectangle with their checkerboard colors.

    Antiblock (a, b) has center grid point (2a, 2b) and corners at the four
    vertices around it; side-adjacent antiblocks get opposite colors.
    """
    if rect.height % 4 or rect.width % 4:
        raise ValueError(f"rectangle sides must be multiples of 4, got {rect}")
    out = []
    for a in range(1, rect.height // 2):
        for b in range(1, rect.width // 2):
            center = (2 * a, 2 * b)
            out.append(Antiblock(center, "gray" if _is_gray_center(center) else "white"))
    return out


def majority_minority(tile: Tile) -> tuple[Block, Block]:
    """The blocks holding three cells and one cell of the tile; raises unless it splits 3+1.

    The single cell touches one of the other three, so the two blocks are adjacent.
    """
    counts: dict[Block, int] = {}
    for r, c in tile_cells(tile):
        blk = (r // 2, c // 2)
        counts[blk] = counts.get(blk, 0) + 1
    if sorted(counts.values()) != [1, 3]:
        raise StructureError(f"tile {tile} does not split 3+1 across two blocks: {counts}")
    return max(counts, key=counts.__getitem__), min(counts, key=counts.__getitem__)


class ChainTable(NamedTuple):
    """The chain edges of a rectangle's Walkup placements, both ways round.

    ``edges`` maps a placement's ``PLACEMENT_ORDER`` key to its chain edge;
    ``tile_index`` maps that edge to the placement's index in
    ``placement_table(rect).tiles``.  Indices, not tiles, so that decoding
    returns the live placement table's own tiles after either cache evicts.
    """

    edges: dict[tuple[int, int, int], Edge]
    tile_index: dict[Edge, int]


@lru_cache(maxsize=32)
def chain_table(rect: Rect) -> ChainTable:
    """The chain table of ``rect``; the most recently used 32 are kept."""
    table = placement_table(rect)
    edges, tile_index = {}, {}
    for i, tile in compress(enumerate(table.tiles), table.walkup):
        edge = edges[PLACEMENT_ORDER(tile)] = majority_minority(tile)
        tile_index[edge] = i
    return ChainTable(edges, tile_index)


def build_chain_graph(tiling: Tiling) -> ChainGraph:
    """One directed edge per tile, from its majority block to its minority block, looked up in the chain table."""
    rect = tiling.rect
    if rect.height % 4 or rect.width % 4:
        raise ValueError(f"rectangle sides must be multiples of 4, got {rect}")
    try:
        edges = list(map(chain_table(rect).edges.__getitem__, map(PLACEMENT_ORDER, tiling.tiles)))
    except KeyError as e:
        # Walkup's theorem puts every tile of a valid tiling in the table.
        raise StructureError(f"placement {e.args[0]} is outside the Walkup classes") from None
    graph = ChainGraph(rect, edges)
    if len(graph.edges) != len(edges):
        raise StructureError("duplicate chain edges; input is not a valid tiling")
    return graph


def _gray_side(edge: Edge) -> str:
    """Which side of the (directed) edge its gray antiblock lies on.

    The flank centers lie one grid unit either side of the edge's midpoint;
    walking along direction (dy, dx), the left-hand side is (-dx, dy).  The
    checkerboard pattern extends periodically past the rectangle edge, so a
    flanking box may lie (partly) outside; its color still shades the edge.
    The two flank centers of a block step always fall in opposite classes.
    """
    (r1, c1), (r2, c2) = edge
    mid_r, mid_c = r1 + r2 + 1, c1 + c2 + 1
    dy, dx = r2 - r1, c2 - c1
    left_gray = _is_gray_center((mid_r - dx, mid_c + dy))
    right_gray = _is_gray_center((mid_r + dx, mid_c - dy))
    if left_gray == right_gray:
        raise StructureError(f"edge {edge} has {int(left_gray) + int(right_gray)} gray flanks")
    return "L" if left_gray else "R"


def arrow_for_tile(tile: Tile) -> ShadedArrow:
    """The shaded arrow corresponding to a tile of a valid tiling."""
    edge = majority_minority(tile)
    return ShadedArrow(edge, _gray_side(edge))


def _placement_index(rect: Rect, edge: Edge) -> int:
    """The index in ``placement_table(rect).tiles`` of the tile whose chain edge is ``edge``.

    Both decoders report a bad edge here, checking its flanks
    (``_gray_side``), then adjacency, then bounds.  The checks come before
    the lookup: on an odd side the chain table also holds placements that
    reach into the partial last row or column of blocks, outside the
    (h/2)x(w/2) block grid, and those are no arrows.
    """
    _gray_side(edge)
    (r1, c1), (r2, c2) = edge
    if abs(r2 - r1) + abs(c2 - c1) != 1:
        raise StructureError(f"edge {edge} endpoints are not adjacent blocks")
    for blk in edge:
        if not (0 <= blk[0] < rect.height // 2 and 0 <= blk[1] < rect.width // 2):
            raise StructureError(f"block {blk} outside {rect}")
    # Walkup's pairing puts every block step inside the grid in the table.
    return chain_table(rect).tile_index[edge]


def tile_for_arrow(rect: Rect, arrow: ShadedArrow) -> Tile:
    """The unique tile realizing a shaded arrow; inverse of :func:`arrow_for_tile`."""
    i = _placement_index(rect, arrow.edge)
    if _gray_side(arrow.edge) != arrow.side:
        raise StructureError(f"arrow {arrow} shading inconsistent with the antiblock coloring")
    return placement_table(rect).tiles[i]


def chain_to_tiling(graph: ChainGraph) -> Tiling:
    """Map every edge to its tile; valid exactly for HV-constructible graphs.

    Each edge is looked up in the chain table, so the tiles are the placement
    table's own; ``Tiling`` puts them in canonical order.  On a miss the
    edges are checked in canonical order and the first bad one raises.
    """
    rect = graph.rect
    tile_index = chain_table(rect).tile_index
    try:
        indices = list(map(tile_index.__getitem__, graph.edges))
    except KeyError:
        indices = [_placement_index(rect, edge) for edge in graph.canonical_edges()]
    return Tiling(rect, map(placement_table(rect).tiles.__getitem__, indices))


def shaded_arrows(graph: ChainGraph) -> list[ShadedArrow]:
    return [ShadedArrow(e, _gray_side(e)) for e in graph.canonical_edges()]


@dataclass(frozen=True)
class ArrowProgression:
    """Equally spaced arrows of one direction and shading side."""

    direction: tuple[int, int]
    side: str
    start: Block
    step: tuple[int, int]
    length: int


def shaded_arrow_aps(graph: ChainGraph, min_len: int) -> list[ArrowProgression]:
    """All maximal APs of shaded arrows of length >= min_len, canonically ordered."""
    if min_len < 2:
        raise ValueError(f"min_len must be >= 2, got {min_len}")
    groups: dict[tuple[tuple[int, int], str], set[Block]] = {}
    for arrow in shaded_arrows(graph):
        groups.setdefault((arrow.direction, arrow.side), set()).add(arrow.source)
    out: list[ArrowProgression] = []
    for (direction, side), sources in sorted(groups.items()):
        for start, step, length in maximal_runs(sources, min_len):
            out.append(ArrowProgression(direction, side, start, step, length))
    return out


def _cycles(edges: list[Edge]) -> list[list[Block]]:
    """The cycles of a 2-regular edge set, by least vertex, each walked from its least
    vertex toward the lesser of that vertex's two neighbours."""
    adj: dict[Block, list[Block]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for u, nbrs in adj.items():
        if len(nbrs) != 2:
            raise StructureError(f"vertex {u} has degree {len(nbrs)} in HV edge set")
    seen: set[Block] = set()
    cycles = []
    for start in sorted(adj):
        if start in seen:
            continue
        cycle, prev, node = [start], start, min(adj[start])
        while node != start:
            cycle.append(node)
            a, b = adj[node]
            prev, node = node, b if a == prev else a
        seen.update(cycle)
        cycles.append(cycle)
    return cycles


def hv_enumerate(rect: Rect) -> Iterator[ChainGraph]:
    """Generate every chain graph of a rectangle of at most ``MAX_HV_AREA`` cells.

    Step 1 forces an edge along each gray-antiblock side with no adjacent
    antiblock, that is, each side on the outer ring; step 2 tries both
    horizontal edges / both vertical edges for each white antiblock
    (row-major, H before V); step 3 orients each cycle of the resulting
    2-regular graph both ways (canonical direction first).  Steps 2 and 3
    are Cartesian products, so the graphs come in that order: the last
    white antiblock, and within a choice the last cycle, varies fastest.
    """
    if rect.height % 4 or rect.width % 4:
        raise ValueError(f"rectangle sides must be multiples of 4, got {rect}")
    if rect.area > MAX_HV_AREA:
        raise ResourceLimitError(
            f"HV enumeration of {rect} ({rect.area} cells) exceeds the bound of {MAX_HV_AREA} cells"
        )
    rows, cols = rect.height // 2, rect.width // 2
    forced: list[Edge] = []
    # Per white antiblock, its (H pair, V pair) of edge choices.
    whites: list[tuple[tuple[Edge, Edge], tuple[Edge, Edge]]] = []
    for a in range(1, rows):
        for b in range(1, cols):
            tl, tr, bl, br = (a - 1, b - 1), (a - 1, b), (a, b - 1), (a, b)
            top, bottom, left, right = (tl, tr), (bl, br), (tl, bl), (tr, br)
            if _is_gray_center((2 * a, 2 * b)):
                forced += compress((top, bottom, left, right), (a == 1, a == rows - 1, b == 1, b == cols - 1))
            else:
                whites.append(((top, bottom), (left, right)))

    # One pair per white antiblock, then one of (forward, reverse) per cycle.
    for picks in product(*whites):
        ways = []
        for cyc in _cycles(forced + [edge for pick in picks for edge in pick]):
            fwd = list(zip(cyc, cyc[1:] + cyc[:1]))
            ways.append((fwd, [(v, u) for u, v in fwd]))
        for directed in product(*ways):
            yield ChainGraph(rect, [edge for cyc in directed for edge in cyc])


# --------------------------------------------------------------------------
# CHAIN text format
#
#   line 1:  CHAIN 1
#   line 2:  <h> <w>            (cell dimensions of the rectangle, both even)
#   then one line per edge: r1 c1 r2 c2  (block indices, lexicographic order;
#   ASCII decimal, rows below h/2 and cols below w/2)

CHAIN_MAGIC = "CHAIN 1"


def write_chain(graph: ChainGraph) -> str:
    lines = [CHAIN_MAGIC, f"{graph.rect.height} {graph.rect.width}"]
    for (r1, c1), (r2, c2) in graph.canonical_edges():
        lines.append(f"{r1} {c1} {r2} {c2}")
    return "\n".join(lines) + "\n"

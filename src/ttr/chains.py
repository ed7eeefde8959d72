"""Chain graphs: block decomposition, antiblock shading, and the HV construction.

Subdivide the rectangle into 2x2 blocks.  Every tile of a valid tiling has
three cells in one block (its majority) and one in an orthogonally adjacent
block (its minority); drawing one directed edge per tile from majority to
minority yields the chain graph.  The 2x2 boxes of block-centers are the
*antiblocks*, checkerboard-colored so that the boxes centered at grid points
congruent to (0,0) or (2,2) mod 4 are gray.  Each edge then has exactly one
gray antiblock beside it, and (edge, gray side) determines the tile.

By Walkup's cut structure the placements in ``grid.WALKUP_CLASSES`` and the
block steps inside the block grid pair up one to one.  ``chain_table(rect)``
holds that pairing, built whole on first use and cached like
``grid.placement_table``: the edge of every Walkup placement and, the other
way round, the index of each edge's placement in the placement table.
Building and decoding chain graphs look tiles and edges up in it.
``majority_minority`` builds it; ``_gray_side`` and ``_checked_direction``
report an edge it lacks, and with ``ARROW_TILE_TABLE`` they decode single
shaded arrows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterable, Iterator, NamedTuple

from .errors import ParseError, ResourceLimitError, StructureError
from .grid import (
    CUT_CLASSES, ORIENTATIONS, PLACEMENT_ORDER, Cell, Orientation, Rect, Tile, Tiling, _is_decimal, placement_table,
    read_header, tile_cells,
)
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


def _split_blocks(tile: Tile) -> tuple[Block, Block]:
    """Count the tile's cells per block; raises unless they split 3+1 across adjacent blocks."""
    counts: dict[Block, int] = {}
    for r, c in tile_cells(tile):
        blk = (r // 2, c // 2)
        counts[blk] = counts.get(blk, 0) + 1
    if sorted(counts.values()) != [1, 3]:
        raise StructureError(f"tile {tile} does not split 3+1 across two blocks: {counts}")
    maj = next(b for b, n in counts.items() if n == 3)
    mino = next(b for b, n in counts.items() if n == 1)
    if abs(maj[0] - mino[0]) + abs(maj[1] - mino[1]) != 1:
        raise StructureError(f"tile {tile} majority/minority blocks are not adjacent")
    return maj, mino


def _split_table() -> dict[tuple[int, int, int], tuple[Block, Block]]:
    """(orientation index, row & 1, col & 1) -> block offsets of (majority, minority).

    Moving a tile by an even vector moves its blocks by half that vector, so
    the anchor's parities fix the split.  A class left out does not split 3+1.
    """
    table = {}
    for o in ORIENTATIONS:
        for pr in (0, 1):
            for pc in (0, 1):
                try:
                    table[(o.index, pr, pc)] = _split_blocks(Tile(o, pr, pc))
                except StructureError:
                    pass
    return table


_SPLITS = _split_table()


def majority_minority(tile: Tile) -> tuple[Block, Block]:
    """The blocks holding three cells and one cell of the tile."""
    r, c = tile.row, tile.col
    split = _SPLITS.get((tile.orientation.index, r & 1, c & 1))
    if split is None:
        return _split_blocks(tile)  # raises StructureError
    (mr, mc), (nr, nc) = split
    br, bc = r >> 1, c >> 1
    return (br + mr, bc + mc), (br + nr, bc + nc)


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


def _edge_flanks(edge: Edge) -> tuple[Cell, Cell, Cell]:
    """(midpoint, left flank center, right flank center) in grid coordinates.

    Walking along direction (dy, dx), the left-hand side is (-dx, dy).
    """
    (r1, c1), (r2, c2) = edge
    v1 = (2 * r1 + 1, 2 * c1 + 1)
    v2 = (2 * r2 + 1, 2 * c2 + 1)
    mid = ((v1[0] + v2[0]) // 2, (v1[1] + v2[1]) // 2)
    dy, dx = (v2[0] - v1[0]) // 2, (v2[1] - v1[1]) // 2
    left = (mid[0] - dx, mid[1] + dy)
    right = (mid[0] + dx, mid[1] - dy)
    return mid, left, right


def _gray_side(edge: Edge) -> str:
    """Which side of the (directed) edge its gray antiblock lies on.

    The checkerboard pattern extends periodically past the rectangle edge, so
    a flanking box may lie (partly) outside; its color still shades the edge.
    The two flank centers always fall in opposite classes.
    """
    _, left, right = _edge_flanks(edge)
    left_gray = _is_gray_center(left)
    right_gray = _is_gray_center(right)
    if left_gray == right_gray:
        raise StructureError(f"edge {edge} has {int(left_gray) + int(right_gray)} gray flanks")
    return "L" if left_gray else "R"


# For each (edge direction in block coords, gray side): the tile's orientation
# and its anchor offset from the majority block's top-left cell.  Derived by
# brute force over enumerated tilings and frozen; a regression test re-derives it.
ARROW_TILE_TABLE: dict[tuple[tuple[int, int], str], tuple[Orientation, tuple[int, int]]] = {
    ((0, 1), "L"): (Orientation.U, (0, 0)),
    ((0, 1), "R"): (Orientation.D, (0, 0)),
    ((0, -1), "L"): (Orientation.D, (0, -1)),
    ((0, -1), "R"): (Orientation.U, (0, -1)),
    ((1, 0), "L"): (Orientation.R, (0, 0)),
    ((1, 0), "R"): (Orientation.L, (0, 0)),
    ((-1, 0), "L"): (Orientation.L, (-1, 0)),
    ((-1, 0), "R"): (Orientation.R, (-1, 0)),
}


def arrow_for_tile(tiling: Tiling, tile: Tile) -> ShadedArrow:
    """The shaded arrow corresponding to a tile of a valid tiling."""
    edge = majority_minority(tile)
    return ShadedArrow(edge, _gray_side(edge))


def _checked_direction(rect: Rect, edge: Edge) -> tuple[int, int]:
    """The block step of ``edge``; raises unless it joins adjacent blocks inside ``rect``."""
    (r1, c1), (r2, c2) = edge
    d = (r2 - r1, c2 - c1)
    if abs(d[0]) + abs(d[1]) != 1:
        raise StructureError(f"edge {edge} endpoints are not adjacent blocks")
    for blk in edge:
        if not (0 <= blk[0] < rect.height // 2 and 0 <= blk[1] < rect.width // 2):
            raise StructureError(f"block {blk} outside {rect}")
    return d


def tile_for_arrow(rect: Rect, arrow: ShadedArrow) -> Tile:
    """The unique tile realizing a shaded arrow; inverse of :func:`arrow_for_tile`."""
    d = _checked_direction(rect, arrow.edge)
    if _gray_side(arrow.edge) != arrow.side:
        raise StructureError(f"arrow {arrow} shading inconsistent with the antiblock coloring")
    orient, (dr, dc) = ARROW_TILE_TABLE[(d, arrow.side)]
    r1, c1 = arrow.source
    return Tile(orient, 2 * r1 + dr, 2 * c1 + dc)


def chain_to_tiling(graph: ChainGraph) -> Tiling:
    """Map every edge to its tile; valid exactly for HV-constructible graphs.

    Each edge is looked up in the chain table, so the tiles are the placement
    table's own; ``Tiling`` puts them in canonical order.  On a miss the
    edges are checked in canonical order and the first bad one raises: its
    flanks first (``_gray_side``), then adjacency and bounds
    (``_checked_direction``).
    """
    rect = graph.rect
    tile_index = chain_table(rect).tile_index
    try:
        indices = list(map(tile_index.__getitem__, graph.edges))
    except KeyError:
        for edge in graph.canonical_edges():
            if edge not in tile_index:
                _gray_side(edge)
                _checked_direction(rect, edge)
                # Walkup's pairing puts every block step inside the grid in the table.
                raise StructureError(f"edge {edge} has no placement in {rect}") from None
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


def hv_enumerate(rect: Rect) -> Iterator[ChainGraph]:
    """Generate every chain graph of a rectangle of at most ``MAX_HV_AREA`` cells.

    Step 1 forces an edge along each gray-antiblock side with no adjacent
    antiblock; step 2 tries both horizontal edges / both vertical edges for
    each white antiblock (row-major, H before V); step 3 orients each cycle
    of the resulting 2-regular graph both ways (canonical direction first).
    """
    if rect.height % 4 or rect.width % 4:
        raise ValueError(f"rectangle sides must be multiples of 4, got {rect}")
    if rect.area > MAX_HV_AREA:
        raise ResourceLimitError(
            f"HV enumeration of {rect} ({rect.area} cells) exceeds the bound of {MAX_HV_AREA} cells"
        )
    rows, cols = rect.height // 2, rect.width // 2

    def box_sides(a: int, b: int) -> dict[str, tuple[Block, Block]]:
        tl, tr = (a - 1, b - 1), (a - 1, b)
        bl, br = (a, b - 1), (a, b)
        return {"top": (tl, tr), "bottom": (bl, br), "left": (tl, bl), "right": (tr, br)}

    neighbor = {"top": (-1, 0), "bottom": (1, 0), "left": (0, -1), "right": (0, 1)}

    forced: list[tuple[Block, Block]] = []
    whites: list[dict[str, tuple[Block, Block]]] = []
    for a in range(1, rows):
        for b in range(1, cols):
            sides = box_sides(a, b)
            if _is_gray_center((2 * a, 2 * b)):
                for name, edge in sides.items():
                    da, db = neighbor[name]
                    if not (1 <= a + da <= rows - 1 and 1 <= b + db <= cols - 1):
                        forced.append(edge)
            else:
                whites.append(sides)

    def undirected_choices(idx: int, edges: list[tuple[Block, Block]]) -> Iterator[list[tuple[Block, Block]]]:
        if idx == len(whites):
            yield edges
            return
        sides = whites[idx]
        for pick in ("top", "bottom"), ("left", "right"):
            yield from undirected_choices(idx + 1, edges + [sides[pick[0]], sides[pick[1]]])

    def cycles_of(edges: list[tuple[Block, Block]]) -> list[list[Block]]:
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
            first = min(adj[start])
            cycle = [start, first]
            seen.add(start)
            seen.add(first)
            while True:
                nxt = [x for x in adj[cycle[-1]] if x != cycle[-2]]
                node = nxt[0]
                if node == start:
                    break
                cycle.append(node)
                seen.add(node)
            cycles.append(cycle)
        return cycles

    def orient(cycles: list[list[Block]], idx: int, acc: list[Edge]) -> Iterator[frozenset[Edge]]:
        if idx == len(cycles):
            yield frozenset(acc)
            return
        cyc = cycles[idx]
        fwd = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
        yield from orient(cycles, idx + 1, acc + fwd)
        rev = [(v, u) for u, v in fwd]
        yield from orient(cycles, idx + 1, acc + rev)

    for undirected in undirected_choices(0, list(forced)):
        for directed in orient(cycles_of(undirected), 0, []):
            yield ChainGraph(rect, directed)


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


def read_chain(data: str | bytes) -> ChainGraph:
    """Parse the CHAIN format; every malformed line is a :class:`ParseError`."""
    h, w, body = read_header(data, CHAIN_MAGIC)
    if h % 2 or w % 2:
        raise ParseError(2, 1, f"dimensions must be even, got {h} {w}")
    block_rows, block_cols = h // 2, w // 2
    edges: set[Edge] = set()
    for i, line in enumerate(body, start=3):
        toks = line.split()
        if len(toks) != 4 or not all(_is_decimal(t) for t in toks):
            raise ParseError(i, 1, "expected 'r1 c1 r2 c2' in decimal digits")
        r1, c1, r2, c2 = (int(t) for t in toks)
        if max(r1, r2) >= block_rows or max(c1, c2) >= block_cols:
            raise ParseError(i, 1, f"block outside the {block_rows}x{block_cols} block grid")
        edge = ((r1, c1), (r2, c2))
        if edge in edges:
            raise ParseError(i, 1, "repeated edge")
        edges.add(edge)
    return ChainGraph(Rect(h, w), edges)

"""Reference implementations kept as test oracles for faster rewrites.

Each function is the program's code as it stood before the rewrite it
checks, so the tests can require identical output, identical error texts
and identical clause lists from the current code.
"""

from __future__ import annotations

from ttr.chains import ARROW_TILE_TABLE, ChainGraph, _checked_direction, _gray_side
from ttr.cnf import CNF, Clause
from ttr.errors import ParseError, TilingError
from ttr.grid import (
    FORMAT_MAGIC,
    ORIENTATIONS,
    WALKUP_CLASSES,
    Orientation,
    Rect,
    Tile,
    Tiling,
    ValidityReport,
    Violation,
    ViolationKind,
    _flat_steps,
    _is_decimal,
    is_tileable,
    read_header,
    rotate_tile_180,
    tile_cells,
)


def runs(anchors: set[tuple[int, int]]):
    """Every maximal run of length >= 2 over tuple anchors, in (start, step) order."""
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


def maximal_runs(anchors: set[tuple[int, int]], min_len: int) -> list:
    """The maximal runs of length >= min_len, filtered from ``runs``."""
    if min_len < 2:
        raise ValueError(f"min_len must be >= 2, got {min_len}")
    return [run for run in runs(anchors) if run[2] >= min_len]


def _edge_tile_table() -> dict:
    """(dy, dx, r1 & 1, c1 & 1) -> (gray side, orientation, anchor row, anchor col offsets).

    Keyed by the block step of an edge and the parities of its source block
    (r1, c1); the anchor offsets are from the source block's top-left cell.
    Moving an edge by an even block vector moves its flanks by a multiple of
    4 cells, so these keys cover every edge between adjacent blocks.
    """
    table = {}
    for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        for pr in (0, 1):
            for pc in (0, 1):
                side = _gray_side(((pr, pc), (pr + dy, pc + dx)))
                orient, (dr, dc) = ARROW_TILE_TABLE[((dy, dx), side)]
                table[(dy, dx, pr, pc)] = (side, orient, dr, dc)
    return table


_EDGE_TILES = _edge_tile_table()


def _edge_entry(edge):
    """The parity-table entry of ``edge``; None unless it joins adjacent blocks."""
    (r1, c1), (r2, c2) = edge
    return _EDGE_TILES.get((r2 - r1, c2 - c1, r1 & 1, c1 & 1))


def chain_to_tiling(graph: ChainGraph) -> Tiling:
    """The chain decoder that maps every edge through the parity table, one by one."""
    rect = graph.rect
    rows, cols = rect.height // 2, rect.width // 2
    tiles = []
    for edge in graph.canonical_edges():
        entry = _edge_entry(edge)
        (r1, c1), (r2, c2) = edge
        if entry is None or not (0 <= r1 < rows and 0 <= c1 < cols and 0 <= r2 < rows and 0 <= c2 < cols):
            _gray_side(edge)
            _checked_direction(rect, edge)
        _side, orient, dr, dc = entry
        tiles.append(Tile(orient, 2 * r1 + dr, 2 * c1 + dc))
    return Tiling(rect, tiles)


def placements(rect: Rect) -> tuple[Tile, ...]:
    """Every placement that fits, built one by one in canonical order."""
    out: list[Tile] = []
    for o in ORIENTATIONS:
        rows, cols = o.bbox
        for r in range(rect.height - rows + 1):
            for c in range(rect.width - cols + 1):
                out.append(Tile(o, r, c))
    return tuple(out)


def walkup_index(rect: Rect) -> tuple[tuple[Tile, ...], dict[tuple[int, int], list[int]]]:
    """The CNF placement index built by filtering ``placements``: (tiles, ids per cell)."""
    tiles = placements(rect)
    if is_tileable(rect):
        tiles = tuple(t for t in tiles if (t.orientation, t.row % 4, t.col % 4) in WALKUP_CLASSES)
    by_cell: dict[tuple[int, int], list[int]] = {cell: [] for cell in rect.cells()}
    for i, t in enumerate(tiles):
        for cell in tile_cells(t):
            by_cell[cell].append(i)
    return tiles, by_cell


def ap_blocking_clauses(cnf: CNF, l: int) -> list[Clause]:
    """The AP-blocking clauses, from every ordered pair of same-orientation anchors."""
    anchors_by_orient: dict[Orientation, list[tuple[tuple[int, int], int]]] = {o: [] for o in ORIENTATIONS}
    for i, t in enumerate(cnf.index.tiles):
        anchors_by_orient[t.orientation].append((t.anchor, i))
    new_clauses: list[Clause] = []
    for orient in ORIENTATIONS:
        anchors = sorted(anchors_by_orient[orient])
        id_at = dict(anchors)
        for k, ((r0, c0), first) in enumerate(anchors):
            for (r1, c1), second in anchors[k + 1:]:
                dy, dx = r1 - r0, c1 - c0
                if r0 + (l - 1) * dy >= cnf.rect.height:
                    break  # rows only grow from here on, so no later pair fits either
                window = [-(first + 1), -(second + 1)]
                rr, cc = r1, c1
                for _ in range(l - 2):
                    rr += dy
                    cc += dx
                    nxt = id_at.get((rr, cc))
                    if nxt is None:
                        break
                    window.append(-(nxt + 1))
                else:
                    new_clauses.append(tuple(window))
    return new_clauses


def rot180_clauses(cnf: CNF) -> list[Clause]:
    """The rotation-symmetry clauses, pairing ids through a tile-to-id dict."""
    id_of = {t: i for i, t in enumerate(cnf.index.tiles)}
    new_clauses: list[Clause] = []
    for i, t in enumerate(cnf.index.tiles):
        j = id_of[rotate_tile_180(cnf.rect, t)]
        if i < j:
            new_clauses.append((-(i + 1), j + 1))
            new_clauses.append((-(j + 1), i + 1))
    return new_clauses


def _flat_shapes(width: int) -> dict[tuple[int, int, int], tuple[Orientation, int]]:
    """Shape key -> (orientation, column of its first cell from the anchor), at ``width`` columns."""
    shapes = {}
    for o, steps in zip(ORIENTATIONS, _flat_steps(width)):
        if o.bbox[1] <= width:
            k0, k1, k2, k3 = sorted(steps)
            shapes[(k1 - k0, k2 - k0, k3 - k0)] = (o, min(o.offsets)[1])
    return shapes


def read_tiling(data: str | bytes) -> Tiling:
    """The TTILING reader that builds one ``Tile`` per id from its shape."""
    h, w, body = read_header(data, FORMAT_MAGIC)
    if len(body) > h:
        raise ParseError(h + 3, 1, f"unexpected content after {h} grid rows")

    ids: list[int] = []
    for r in range(h):
        if r >= len(body):
            raise ParseError(len(body) + 3, 1, f"expected {h} grid rows, found {r}")
        row_tokens = body[r].split()
        if len(row_tokens) != w:
            raise ParseError(3 + r, 1, f"expected {w} ids, found {len(row_tokens)}")
        if not _is_decimal("".join(row_tokens)):
            token = next(t for t in row_tokens if not _is_decimal(t))
            raise ParseError(3 + r, body[r].index(token) + 1, f"bad tile id {token!r}")
        ids.extend(map(int, row_tokens))
    cells_by_id: dict[int, list[int]] = {}
    for k, tid in enumerate(ids):
        cells = cells_by_id.get(tid)
        if cells is None:
            cells_by_id[tid] = [k]
        else:
            cells.append(k)

    violations: list[Violation] = []
    n_expected = (h * w) // 4 if (h * w) % 4 == 0 else -1
    if n_expected < 0 or set(cells_by_id) != set(range(n_expected)):
        violations.append(
            Violation(
                ViolationKind.BAD_SHAPE,
                note=f"tile ids must be exactly 0..{max(n_expected - 1, 0)}, "
                f"got {len(cells_by_id)} distinct ids",
            )
        )
    shapes = _flat_shapes(w)
    tiles: list[Tile] = []
    for tid, cells in sorted(cells_by_id.items()):
        if len(cells) != 4:
            violations.append(
                Violation(
                    ViolationKind.BAD_SHAPE, cell=divmod(cells[0], w), note=f"id {tid} covers {len(cells)} cells"
                )
            )
            continue
        k0, k1, k2, k3 = cells
        r0, c = divmod(k0, w)
        shape = shapes.get((k1 - k0, k2 - k0, k3 - k0))
        if shape is not None:
            orient, dc = shape
            if dc <= c <= w - orient.bbox[1] + dc:
                tiles.append(Tile(orient, r0, c - dc))
                continue
        c0 = min(k % w for k in cells)
        violations.append(
            Violation(ViolationKind.BAD_SHAPE, cell=(r0, c0), note=f"id {tid} is not a T-tetromino")
        )
    if violations:
        raise TilingError(ValidityReport(tuple(violations)))
    return Tiling(Rect(h, w), tiles)

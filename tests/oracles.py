"""Reference implementations kept as test oracles for faster rewrites.

Each function is the program's code as it stood before the rewrite it
checks, so the tests can require identical output, identical error texts
and identical clause lists from the current code.  A few checks that only
the tests use live here too, and the readers of the CHAIN and TCOLOR
formats, which the package writes but never reads.
"""

from __future__ import annotations

import string
from bisect import bisect_right
from typing import Sequence

from ttr.aps import APWitness
from ttr.chains import CHAIN_MAGIC, ChainGraph, Edge, ShadedArrow, _gray_side
from ttr.cnf import CNF, Clause
from ttr.enumerator import enumerate_tilings
from ttr.errors import ParseError, ResourceLimitError, StructureError, TilingError
from ttr.grid import (
    FORMAT_MAGIC,
    ORIENTATIONS,
    TILING_ORDER,
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
from ttr.vdw import TCOLOR_MAGIC, GridAP, GridColoring, _ap_candidates
from ttr.width4 import MAX_UNIT_LEN, UNIT_A_TILES, UNIT_B_TILES, Unit, fault_columns


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


def verifies_against(ap: APWitness, tiling: Tiling) -> bool:
    """True when every tile of the progression is present in ``tiling``."""
    anchors = tiling.anchors_by_orientation()[ap.orientation]
    return all(a in anchors for a in ap.anchors())


# The chain decoder's frozen arrow table and its edge check, as the program
# kept them before the chain table became the one record of the tile <->
# shaded-arrow bijection.  For each (edge direction in block coords, gray
# side): the tile's orientation and its anchor offset from the majority
# block's top-left cell.  Derived by brute force over enumerated tilings and
# frozen; a regression test re-derives it.
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


def _checked_direction(rect: Rect, edge) -> tuple[int, int]:
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
    """The arrow decoder through the frozen table: adjacency and bounds, then flanks and side."""
    d = _checked_direction(rect, arrow.edge)
    if _gray_side(arrow.edge) != arrow.side:
        raise StructureError(f"arrow {arrow} shading inconsistent with the antiblock coloring")
    orient, (dr, dc) = ARROW_TILE_TABLE[(d, arrow.side)]
    r1, c1 = arrow.source
    return Tile(orient, 2 * r1 + dr, 2 * c1 + dc)


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

def placements(rect: Rect) -> tuple[Tile, ...]:
    """Every placement that fits, built one by one in canonical order."""
    out: list[Tile] = []
    for o in ORIENTATIONS:
        rows, cols = o.bbox
        for r in range(rect.height - rows + 1):
            for c in range(rect.width - cols + 1):
                out.append(Tile(o, r, c))
    return tuple(out)


def walkup_placements(rect: Rect) -> tuple[Tile, ...]:
    """The CNF's variables, built by filtering ``placements`` through the Walkup classes."""
    tiles = placements(rect)
    if is_tileable(rect):
        tiles = tuple(t for t in tiles if (t.orientation, t.row % 4, t.col % 4) in WALKUP_CLASSES)
    return tiles


def cover_clauses(rect: Rect) -> list[Clause]:
    """The clauses of ``cnf.build_cnf``: per cell in row-major order, the ids of
    ``walkup_placements`` covering it, then their at-most-one pairs from a nested loop."""
    by_cell: dict[tuple[int, int], list[int]] = {cell: [] for cell in rect.cells()}
    for i, t in enumerate(walkup_placements(rect)):
        for cell in tile_cells(t):
            by_cell[cell].append(i)
    clauses: list[Clause] = []
    for ids in by_cell.values():
        clauses.append(tuple(i + 1 for i in ids))
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                clauses.append((-(ids[a] + 1), -(ids[b] + 1)))
    return clauses


def ap_blocking_clauses(cnf: CNF, l: int) -> list[Clause]:
    """The AP-blocking clauses, from every ordered pair of same-orientation anchors."""
    anchors_by_orient: dict[Orientation, list[tuple[tuple[int, int], int]]] = {o: [] for o in ORIENTATIONS}
    for i, t in enumerate(cnf.tiles):
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


def ap_blocking_windows(cnf: CNF, l: int) -> list[Clause]:
    """The AP-blocking clauses of ``cnf.add_ap_blocking`` on tuple anchors.

    The frozen reference for the packed-position windows: the same Walkup
    class filter, the same row cut and the same clause order, with anchors
    kept as (row, col) tuples in a sorted list and looked up in a tuple dict.
    """
    anchors_by_orient: dict[Orientation, list[tuple[tuple[int, int], int]]] = {o: [] for o in ORIENTATIONS}
    for i, t in enumerate(cnf.tiles):
        anchors_by_orient[t.orientation].append((t.anchor, i))
    height, extra = cnf.rect.height, range(l - 2)
    new_clauses: list[Clause] = []
    for orient in ORIENTATIONS:
        anchors = sorted(anchors_by_orient[orient])
        id_at = dict(anchors)
        classes = {(r & 3, c & 3) for (r, c), _ in anchors}
        # Per first-anchor class, the anchors in (row, col) order that may be its second term.
        seconds = {
            (ar, ac): [
                p for p in anchors
                if l < 3 or ((2 * (p[0][0] & 3) - ar) & 3, (2 * (p[0][1] & 3) - ac) & 3) in classes
            ]
            for ar, ac in classes
        }
        for pair_start in anchors:
            (r0, c0), first = pair_start
            later = seconds[(r0 & 3, c0 & 3)]
            for (r1, c1), second in later[bisect_right(later, pair_start):]:
                dy, dx = r1 - r0, c1 - c0
                if r0 + (l - 1) * dy >= height:
                    break  # rows only grow from here on, so no later pair fits either
                window = [-(first + 1), -(second + 1)]
                rr, cc = r1, c1
                for _ in extra:
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
    id_of = {t: i for i, t in enumerate(cnf.tiles)}
    new_clauses: list[Clause] = []
    for i, t in enumerate(cnf.tiles):
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



def read_tcolor(data: str | bytes) -> GridColoring:
    """Parse TCOLOR; errors name the line and column of the first bad row or color."""
    h, w, body = read_header(data, TCOLOR_MAGIC)
    if len(body) != h:  # report the first missing or the first extra line
        raise ParseError(min(len(body), h) + 3, 1, f"expected {h} rows, found {len(body)}")
    for r, row in enumerate(body):
        if len(row) != w:
            raise ParseError(3 + r, 1, f"expected {w} characters, found {len(row)}")
        for c, ch in enumerate(row):
            if ch not in "AB":
                raise ParseError(3 + r, c + 1, f"bad color {ch!r} (want A or B)")
    return GridColoring(tuple(tuple(0 if ch == "A" else 1 for ch in row) for row in body))

def grid_mono_ap(coloring: GridColoring, l: int) -> GridAP | None:
    """The canonically first monochromatic l-AP, by a scan over every candidate AP of cells."""
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    h, w = coloring.height, coloring.width
    best: GridAP | None = None
    for cells in _ap_candidates(h, w, l):
        c0 = coloring.color(cells[0])
        if all(coloring.color(cell) == c0 for cell in cells[1:]):
            dy = cells[1][0] - cells[0][0]
            dx = cells[1][1] - cells[0][1]
            cand = GridAP(cells[0], (dy, dx), l)
            key = (cand.start, cand.step)
            if best is None or key < (best.start, best.step):
                best = cand
    return best


def _has_ap_ending_at(colors: list[int], pos: int, l: int) -> bool:
    """Monochromatic l-AP among colors[0..pos] whose last term is pos."""
    c = colors[pos]
    for step in range(1, pos // (l - 1) + 1):
        if all(colors[pos - k * step] == c for k in range(1, l)):
            return True
    return False


def longest_apfree_length(l: int) -> tuple[int, ...]:
    """The first longest l-AP-free 2-coloring in depth-first order; its length is W(2, l) - 1.

    The first color is fixed to 0 by symmetry, and color 0 is tried before 1.
    This is the list-based scan that ``vdw._longest_apfree_length`` replaced.
    """
    best: tuple[int, ...] = ()
    colors: list[int] = []

    def extend() -> None:
        nonlocal best
        if len(colors) > len(best):
            best = tuple(colors)
        for c in (0, 1) if colors else (0,):
            colors.append(c)
            if not _has_ap_ending_at(colors, len(colors) - 1, l):
                extend()
            colors.pop()

    extend()
    return best


def _first_col_signature(tiles: Sequence[Tile]) -> frozenset[Tile]:
    """The tiles touching the leftmost column, translated so that column is 0."""
    min_col = min(c for t in tiles for _, c in tile_cells(t))
    return frozenset(t.translated(0, -min_col) for t in tiles if min(c for _, c in tile_cells(t)) == min_col)


_A_SIGNATURE = _first_col_signature(UNIT_A_TILES)
_B_SIGNATURE = _first_col_signature(UNIT_B_TILES)


def first_column_class(tiles: Sequence[Tile]) -> str:
    """'A' or 'B' according to which unit's first column ``tiles`` matches."""
    sig = _first_col_signature(tiles)
    if sig == _A_SIGNATURE:
        return "A"
    if sig == _B_SIGNATURE:
        return "B"
    raise StructureError(f"first column {sorted(sig, key=TILING_ORDER)} matches neither A nor B")


def enumerate_units(max_len: int) -> list[Unit]:
    """The unit catalog up to ``max_len`` from every fault-free tiling of 4x4 .. 4x``max_len``.

    Sorted by (length, first-column class A before B, canonical tile order)
    and named 'A', 'B', 'C', ... in that order: the catalog ``ttr.width4``
    built before it laid units out from their closed form.
    """
    if max_len % 4 or max_len < 4:
        raise ValueError(f"max_len must be a positive multiple of 4, got {max_len}")
    if max_len > MAX_UNIT_LEN:
        raise ResourceLimitError(f"unit catalog bounded at length {MAX_UNIT_LEN}, got {max_len}")
    units: list[Unit] = []
    names = string.ascii_uppercase
    for k in range(4, max_len + 1, 4):
        found = []
        for t in enumerate_tilings(Rect(4, k)):
            if not fault_columns(t):
                found.append((first_column_class(t.tiles) != "A", list(map(TILING_ORDER, t.tiles)), t.tiles))
        found.sort()
        for _, _, tiles in found:
            if len(units) >= len(names):
                raise ResourceLimitError("unit catalog exceeds single-letter names")
            units.append(Unit(names[len(units)], k, tiles))
    return units


def segments(tiling: Tiling) -> list[tuple[int, int, tuple[Tile, ...]]]:
    """``width4._segments`` before it put each tile in its segment in one pass:
    one filter over every tile per segment, then a sort."""
    if tiling.rect.height != 4:
        raise ValueError(f"expected a height-4 tiling, got {tiling.rect}")
    cuts = [0] + fault_columns(tiling) + [tiling.rect.width]
    out = []
    for left, right in zip(cuts, cuts[1:]):
        seg = tuple(
            sorted(
                (t.translated(0, -left) for t in tiling.tiles if left <= t.col < right),
                key=TILING_ORDER,
            )
        )
        out.append((left, right - left, seg))
    return out


def propagate(solver) -> list[int] | None:
    """``cdcl._Solver._propagate`` before the lazy watch swap, for ``solver``.

    Every visited long clause is put in order first, the other watch at
    position 0 and the false one at position 1, even when the other watch is
    true; the literals from position 2 on are tried one by one.
    """
    assign = solver.assign
    watches = solver.watches
    binwatch = solver.binwatch
    level = solver.level
    reason = solver.reason
    trail = solver.trail
    lvl = len(solver.trail_lim)
    qhead = start = solver.qhead
    while qhead < len(trail):
        p = trail[qhead]
        qhead += 1
        fl = p ^ 1
        for q, cl in binwatch[fl]:
            a = assign[q]
            if a == 0:
                assign[q] = 1
                assign[q ^ 1] = -1
                level[q >> 1] = lvl
                reason[q >> 1] = cl
                trail.append(q)
            elif a < 0:
                solver.qhead = qhead
                solver.propagations += qhead - start
                return cl
        wl = watches[fl]
        if not wl:
            continue
        keep = watches[fl] = []
        it = iter(wl)
        for cl in it:
            first = cl[0]
            if first == fl:
                first = cl[0] = cl[1]
                cl[1] = fl
            if assign[first] > 0:
                keep.append(cl)
                continue
            for k in range(2, len(cl)):
                lk = cl[k]
                if assign[lk] >= 0:
                    cl[1] = lk
                    cl[k] = fl
                    watches[lk].append(cl)
                    break
            else:
                keep.append(cl)
                if assign[first] < 0:
                    keep.extend(it)
                    solver.qhead = qhead
                    solver.propagations += qhead - start
                    return cl
                assign[first] = 1
                assign[first ^ 1] = -1
                level[first >> 1] = lvl
                reason[first >> 1] = cl
                trail.append(first)
    solver.qhead = qhead
    solver.propagations += qhead - start
    return None


def watch_invariant(solver, dropped=()) -> None:
    """Check the clause references of a ``cdcl._Solver`` after a run.

    Every clause of three or more literals in the watch lists sits exactly
    once in ``watches[cl[0]]`` and once in ``watches[cl[1]]`` and nowhere
    else, and every learnt clause of that size is among them; no clause in
    ``dropped`` (what ``_reduce_db`` removed) is left in any list; every
    distinct binary clause has one implication entry per literal, pointing
    at the other literal.
    """
    seen: dict[int, tuple[list[int], list[int]]] = {}
    for lit, wl in enumerate(solver.watches):
        for cl in wl:
            seen.setdefault(id(cl), (cl, []))[1].append(lit)
    for cl, lits in seen.values():
        assert len(cl) >= 3, f"watched clause {cl} has fewer than three literals"
        assert sorted(lits) == sorted(cl[:2]), f"clause {cl} is watched at {lits}"
    for cl, _ in solver.learnts:
        if len(cl) >= 3:
            assert id(cl) in seen, f"learnt clause {cl} is not watched"
    dead = {id(cl) for cl in dropped}
    assert not dead & seen.keys(), "a reduced clause is still watched"
    assert not dead & {id(cl) for cl, _ in solver.learnts}, "a reduced clause is still registered"
    entries: dict[frozenset[int], list[int]] = {}
    for lit, bl in enumerate(solver.binwatch):
        for other, cl in bl:
            assert len(cl) == 2 and sorted(cl) == sorted((lit, other)), f"entry {other} at {lit} for {cl}"
            entries.setdefault(frozenset(cl), []).append(lit)
    for key, lits in entries.items():
        assert sorted(lits) == sorted(key), f"binary clause {sorted(key)} has entries at {lits}"


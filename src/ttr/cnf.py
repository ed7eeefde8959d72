"""CNF encodings of tiling questions, and the DIMACS wire format.

One boolean variable per placement, taken from the rectangle's interned
placement table (``grid.placement_table``).  Per cell: an at-least-one
clause over the placements covering it plus pairwise at-most-one clauses,
so models correspond exactly to complete tilings.  AP blocking adds one
clause per window of l equally spaced same-orientation placements; it pairs
anchors only where the classes mod 4 leave room for a third term.

When both sides are multiples of 4, only placements in the Walkup classes
(``grid.WALKUP_CLASSES``) get a variable: no complete tiling uses any other,
so the models are the same tilings with a fraction of the variables.  The
enumerator and ``has_tiling`` keep every placement and serve as the
independent oracles for this restriction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import compress
from operator import attrgetter
from typing import Sequence

from .errors import ParseError
from .grid import ORIENTATIONS, Orientation, Rect, Tile, Tiling, _is_decimal, is_tileable, placement_table

Clause = tuple[int, ...]


class PlacementIndex:
    """Dense ids for the placements that get a variable, canonical order.

    A view of the rectangle's placement table: every placement that fits,
    restricted to the Walkup classes when both sides of the rectangle are
    multiples of 4.  ``ids_by_cell[r * w + c]`` lists the ids covering cell
    (r, c) in increasing order.
    """

    def __init__(self, rect: Rect):
        self.rect = rect
        table = placement_table(rect)
        tiles, cells = table.tiles, table.cells
        if is_tileable(rect):
            tiles, cells = tuple(compress(tiles, table.walkup)), compress(cells, table.walkup)
        self.tiles: tuple[Tile, ...] = tiles
        self.ids_by_cell: list[list[int]] = [[] for _ in range(rect.area)]
        for i, quad in enumerate(cells):
            for k in quad:
                self.ids_by_cell[k].append(i)

    def __len__(self) -> int:
        return len(self.tiles)


@dataclass(frozen=True)
class CNF:
    """A propositional encoding plus the variable-to-placement map.

    Variables are 1-based; variable i+1 corresponds to ``index.tiles[i]``.
    ``blocked_len``/``rot180`` record which extra constraint groups were added
    so witnesses can be re-verified independently after decoding.
    """

    rect: Rect
    num_vars: int
    clauses: tuple[Clause, ...]
    index: PlacementIndex = field(compare=False, repr=False)
    blocked_len: int | None = None
    rot180: bool = False

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def build_cnf(rect: Rect) -> CNF:
    """Exact-cover encoding of complete tilings of ``rect``.

    Any rectangle whose every cell is coverable is accepted; rectangles that
    admit no tiling simply yield an unsatisfiable formula.
    """
    index = PlacementIndex(rect)
    clauses: list[Clause] = []
    for k, ids in enumerate(index.ids_by_cell):
        if not ids:
            raise ValueError(f"cell {divmod(k, rect.width)} of {rect} cannot be covered by any placement")
        clauses.append(tuple(i + 1 for i in ids))
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                clauses.append((-(ids[a] + 1), -(ids[b] + 1)))
    return CNF(rect, len(index), tuple(clauses), index)


def add_ap_blocking(cnf: CNF, l: int) -> CNF:
    """Forbid every window of l equally spaced same-orientation placements.

    A window is found from its first two anchors, an ordered pair in (row,
    col) order whose difference is the step, extended by that step; for l >= 3
    an anchor of class a (row, col mod 4) is paired only with anchors of a
    class b whose third term's class 2b - a has placements, half the pairs
    under Walkup.  The result is satisfiable exactly when a tiling without
    any l-term AP exists.
    """
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    anchors_by_orient: dict[Orientation, list[tuple[tuple[int, int], int]]] = {o: [] for o in ORIENTATIONS}
    for i, t in enumerate(cnf.index.tiles):
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
    return replace(cnf, clauses=cnf.clauses + tuple(new_clauses), blocked_len=l)


def add_rot180_symmetry(cnf: CNF) -> CNF:
    """Constrain models to 180-degree rotationally symmetric tilings.

    Ids run in row-major blocks U, D, L, R; the rotation maps the U block onto
    the D block reversed, and L onto R.  So id i of the U or L block ending at
    ``end`` pairs with id 2 * end - 1 - i, and no tile is built or hashed.
    """
    tiles = cnf.index.tiles
    u_end, l_start, l_end = (bisect_left(tiles, k, key=attrgetter("orientation.index")) for k in (1, 2, 3))
    assert l_start == 2 * u_end and len(tiles) == 2 * l_end - l_start, "rotation partners differ in count"
    new_clauses: list[Clause] = []
    for start, end in ((0, u_end), (l_start, l_end)):
        for i in range(start, end):
            j = 2 * end - 1 - i
            new_clauses.append((-(i + 1), j + 1))
            new_clauses.append((-(j + 1), i + 1))
    return replace(cnf, clauses=cnf.clauses + tuple(new_clauses), rot180=True)


def decode_model(cnf: CNF, model: Sequence[bool]) -> Tiling:
    """Rebuild the tiling from a satisfying assignment (model[v] for var v)."""
    tiles = [cnf.index.tiles[v - 1] for v in range(1, cnf.num_vars + 1) if model[v]]
    return Tiling(cnf.rect, tiles)


# --------------------------------------------------------------------------
# DIMACS CNF and the variable-map sidecar


def clauses_to_dimacs(num_vars: int, clauses: Sequence[Clause]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def to_dimacs(cnf: CNF) -> str:
    return clauses_to_dimacs(cnf.num_vars, cnf.clauses)


def var_map_sidecar(cnf: CNF) -> str:
    """One line per variable: ``<var> <orient-letter> <row> <col>``."""
    lines = [
        f"{i + 1} {t.orientation.value} {t.row} {t.col}"
        for i, t in enumerate(cnf.index.tiles)
    ]
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[Clause]]:
    """Parse a DIMACS CNF file; returns (num_vars, clauses)."""
    num_vars = None
    num_clauses = None
    clauses: list[Clause] = []
    pending: list[int] = []
    for ln, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(ln, 1, f"bad problem line {line!r}")
            if not (_is_decimal(parts[2]) and _is_decimal(parts[3])):
                raise ParseError(ln, 1, f"problem line counts must be decimal and >= 0, got {line!r}")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise ParseError(ln, 1, "clause before problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(ln, 1, f"bad literal {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise ParseError(ln, 1, f"literal {lit} out of range (p cnf {num_vars} ...)")
                pending.append(lit)
    if pending:
        clauses.append(tuple(pending))
    if num_vars is None:
        raise ParseError(1, 1, "missing problem line")
    if num_clauses is not None and num_clauses != len(clauses):
        raise ParseError(1, 1, f"problem line declares {num_clauses} clauses, found {len(clauses)}")
    return num_vars, clauses

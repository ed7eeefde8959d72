"""CNF encodings of tiling questions, and the DIMACS wire format.

One boolean variable per placement.  Per cell: an at-least-one clause over
the placements covering it plus pairwise at-most-one clauses, so models
correspond exactly to complete tilings.  AP blocking adds one clause per
window of l equally spaced same-orientation placements.

When both sides are multiples of 4, only placements in the Walkup classes
(``grid.WALKUP_CLASSES``) get a variable: no complete tiling uses any other,
so the models are the same tilings with a fraction of the variables.  The
enumerator and ``has_tiling`` keep every placement and serve as the
independent oracles for this restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import ParseError
from .grid import (
    ORIENTATIONS,
    WALKUP_CLASSES,
    Orientation,
    Rect,
    Tile,
    Tiling,
    is_tileable,
    rotate_tile_180,
    tile_cells,
)
from .enumerator import placements

Clause = tuple[int, ...]


class PlacementIndex:
    """Dense ids for the placements that get a variable, canonical order.

    Every placement that fits, restricted to the Walkup classes when both
    sides of the rectangle are multiples of 4.
    """

    def __init__(self, rect: Rect):
        self.rect = rect
        tiles = placements(rect)
        if is_tileable(rect):
            tiles = tuple(t for t in tiles if (t.orientation, t.row % 4, t.col % 4) in WALKUP_CLASSES)
        self.tiles: tuple[Tile, ...] = tiles
        self.id_of: dict[Tile, int] = {t: i for i, t in enumerate(self.tiles)}
        by_cell: dict[tuple[int, int], list[int]] = {cell: [] for cell in rect.cells()}
        for i, t in enumerate(self.tiles):
            for cell in tile_cells(t):
                by_cell[cell].append(i)
        self.ids_by_cell = by_cell

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
    for cell in rect.cells():
        ids = index.ids_by_cell[cell]
        if not ids:
            raise ValueError(f"cell {cell} of {rect} cannot be covered by any placement")
        clauses.append(tuple(i + 1 for i in ids))
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                clauses.append((-(ids[a] + 1), -(ids[b] + 1)))
    return CNF(rect, len(index), tuple(clauses), index)


def add_ap_blocking(cnf: CNF, l: int) -> CNF:
    """Forbid every window of l equally spaced same-orientation placements.

    A window is found from its first two anchors, an ordered pair in (row,
    col) order whose difference is the step, extended by that step.  The
    result is satisfiable exactly when a tiling without any l-term AP exists.
    """
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
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
    return replace(cnf, clauses=cnf.clauses + tuple(new_clauses), blocked_len=l)


def add_rot180_symmetry(cnf: CNF) -> CNF:
    """Constrain models to 180-degree rotationally symmetric tilings."""
    index = cnf.index
    new_clauses: list[Clause] = []
    for i, t in enumerate(index.tiles):
        j = index.id_of[rotate_tile_180(cnf.rect, t)]
        if i < j:
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

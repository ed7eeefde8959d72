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
enumerator restricts its search the same way.  ``count_tilings`` keeps
every placement and is the independent oracle: the tests check that the
restricted model count and the enumerator's stream length both equal it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import combinations, compress, islice
from operator import attrgetter
from typing import Sequence

from .errors import ParseError
from .grid import ORIENTATIONS, Rect, Tile, Tiling, _is_decimal, is_tileable, placement_table

Clause = tuple[int, ...]


@dataclass(frozen=True)
class CNF:
    """A propositional encoding plus the variable-to-placement map.

    Variables are 1-based; variable i+1 corresponds to ``tiles[i]``, a
    placement of the rectangle's placement table.  ``blocked_len``/``rot180``
    record which extra constraint groups were added so witnesses can be
    re-verified independently after decoding.
    """

    rect: Rect
    clauses: tuple[Clause, ...]
    tiles: tuple[Tile, ...] = field(compare=False, repr=False)
    blocked_len: int | None = None
    rot180: bool = False

    @property
    def num_vars(self) -> int:
        return len(self.tiles)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def build_cnf(rect: Rect) -> CNF:
    """Exact-cover encoding of complete tilings of ``rect``.

    The variables are the placement table's tiles, only those in the Walkup
    classes when both sides are multiples of 4.  Any rectangle whose every
    cell is coverable is accepted; rectangles that admit no tiling simply
    yield an unsatisfiable formula.
    """
    table = placement_table(rect)
    tiles, cells = table.tiles, table.cells
    if is_tileable(rect):
        tiles, cells = tuple(compress(tiles, table.walkup)), compress(cells, table.walkup)
    ids_by_cell: list[list[int]] = [[] for _ in range(rect.area)]
    for i, quad in enumerate(cells, start=1):
        for k in quad:
            ids_by_cell[k].append(i)
    clauses: list[Clause] = []
    for k, ids in enumerate(ids_by_cell):
        if not ids:
            raise ValueError(f"cell {divmod(k, rect.width)} of {rect} cannot be covered by any placement")
        clauses.append(tuple(ids))
        clauses += combinations([-i for i in ids], 2)
    return CNF(rect, tuple(clauses), tiles)


def add_ap_blocking(cnf: CNF, l: int) -> CNF:
    """Forbid every window of l equally spaced same-orientation placements.

    A window is found from its first two anchors, an ordered pair in (row,
    col) order whose difference is the step, extended by that step; for l >= 3
    an anchor of class a (row, col mod 4) is paired only with anchors of a
    class b whose third term's class 2b - a has placements, half the pairs
    under Walkup.  The result is satisfiable exactly when a tiling without
    any l-term AP exists.

    Anchors are packed as ``r * m + c`` with ``m = 2 * l * (w + 1)``, so a
    window's terms are ``p, q, 2q - p, ...`` in packed form.  The packing is
    unique on every term: each term's column lies within (l - 1)(w - 1) of
    the range 0..w-1, an interval of fewer than m columns, so two terms with
    the same packed value have the same row and column.  Membership is then
    one dict lookup, and since packed anchors sort in (row, col) order, the
    second terms a first anchor can use are one slice of a sorted list, cut
    where a second term's row leaves no room for the l-th term.
    """
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    height, m = cnf.rect.height, 2 * l * (cnf.rect.width + 1)
    # Placement order runs by orientation, then row, then col: each list is sorted.
    keys_by_orient: list[list[int]] = [[] for _ in ORIENTATIONS]
    lits_by_orient: list[list[int]] = [[] for _ in ORIENTATIONS]
    for i, t in enumerate(cnf.tiles):
        keys_by_orient[t.orientation.index].append(t.row * m + t.col)
        lits_by_orient[t.orientation.index].append(-(i + 1))
    extra = range(l - 2)
    new_clauses: list[Clause] = []
    for keys, lits in zip(keys_by_orient, lits_by_orient):
        get = dict(zip(keys, lits)).get
        # Class (row mod 4, col mod 4) of each anchor, coded 4 * (row & 3) + (col & 3).
        codes = [(k // m & 3) << 2 | (k % m & 3) for k in keys]
        present = set(codes)
        # Per first-anchor class, the anchors in (row, col) order that may be its second term.
        seconds: dict[int, tuple[list[int], list[int]]] = {}
        for a in present:
            fits = {
                b for b in present
                if l < 3 or ((2 * (b >> 2) - (a >> 2)) & 3) << 2 | ((2 * b - a) & 3) in present
            }
            usable = [b in fits for b in codes]
            seconds[a] = list(compress(keys, usable)), list(compress(lits, usable))
        for k0, n0, a in zip(keys, lits, codes):
            later_keys, later_lits = seconds[a]
            lo = bisect_right(later_keys, k0)
            r0 = k0 // m
            hi = bisect_left(later_keys, (r0 + (height - 1 - r0) // (l - 1) + 1) * m, lo)
            pairs = zip(later_keys[lo:hi], later_lits[lo:hi])
            if l == 3:
                new_clauses += [(n0, n1, n2) for k1, n1 in pairs if (n2 := get(2 * k1 - k0))]
                continue
            for k1, n1 in pairs:
                step = k1 - k0
                window = [n0, n1]
                for _ in extra:
                    k1 += step
                    nxt = get(k1)
                    if nxt is None:
                        break
                    window.append(nxt)
                else:
                    new_clauses.append(tuple(window))
    return replace(cnf, clauses=cnf.clauses + tuple(new_clauses), blocked_len=l)


def add_rot180_symmetry(cnf: CNF) -> CNF:
    """Constrain models to 180-degree rotationally symmetric tilings.

    Ids run in row-major blocks U, D, L, R; the rotation maps the U block onto
    the D block reversed, and L onto R.  So id i of the U or L block ending at
    ``end`` pairs with id 2 * end - 1 - i, and no tile is built or hashed.
    """
    tiles = cnf.tiles
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
    return Tiling(cnf.rect, compress(cnf.tiles, islice(model, 1, None)))


# --------------------------------------------------------------------------
# DIMACS CNF and the variable-map sidecar


def clauses_to_dimacs(num_vars: int, clauses: Sequence[Clause]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def var_map_sidecar(cnf: CNF) -> str:
    """One line per variable: ``<var> <orient-letter> <row> <col>``."""
    lines = [
        f"{i + 1} {t.orientation.value} {t.row} {t.col}"
        for i, t in enumerate(cnf.tiles)
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
            if num_vars is not None:
                raise ParseError(ln, 1, f"second problem line {line!r}")
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
            if not _is_decimal(tok.removeprefix("-")):
                raise ParseError(ln, 1, f"bad literal {tok!r}")
            lit = int(tok)
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

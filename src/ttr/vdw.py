"""Classical and two-dimensional van der Waerden computations.

``vdw_number(l)`` computes W(2, l) by depth-first search over colorings,
independent of any SAT machinery so it can serve as an oracle.  Each node's
AP check is a bit-set check (see ``_longest_apfree_length``); the list-based
scan it replaced is kept in the tests as their oracle.

The 2D analogue asks for monochromatic APs of *cells* in a 2-colored grid,
where steps range over all nonzero integer vectors (diagonal and knight-like
steps included).

:class:`GridColoring` is the package's one 2-coloring type.  A one-row
coloring is also the A/B projection of a width-4 tiling (``ttr.width4``),
with color 0 read as A and 1 as B, the letters of its ``TCOLOR`` text form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aps import maximal_runs
from .errors import ResourceLimitError
from .grid import Cell, Rect
from .solver import DecideResult, ScanResult, SearchConfig, decide_sat, greatest_forced

MAX_VDW_LEN = 4


def vdw_number(l: int) -> int:
    """The least W such that every 2-coloring of {1..W} has a monochromatic l-AP."""
    return extremal_coloring(l).width + 1


def extremal_coloring(l: int) -> GridColoring:
    """A one-row 2-coloring of length W(2, l) - 1 with no monochromatic l-AP."""
    if l < 2 or l > MAX_VDW_LEN:
        raise ResourceLimitError(f"l must be in 2..{MAX_VDW_LEN}, got {l}")
    return GridColoring((_longest_apfree_length(l),))


def _longest_apfree_length(l: int) -> tuple[int, ...]:
    """The first longest l-AP-free 2-coloring in depth-first order; its length is W(2, l) - 1.

    The first color is fixed to 0 by symmetry, and color 0 is tried before 1.
    Each color's positions are one integer bit-set.  ``step_masks[pos]`` holds,
    for each step s with (l - 1) * s <= pos, the bits pos - s, ..., pos - (l - 1) * s;
    a color may take pos unless its set covers one of those masks.  The table
    is filled the first time the search reaches each position.
    """
    best_len = 0
    best_ones = 0  # the color-1 set of the longest coloring so far
    step_masks: list[list[int]] = []

    def extend(pos: int, zeros: int, ones: int) -> None:
        nonlocal best_len, best_ones
        if pos > best_len:
            best_len, best_ones = pos, ones
        if pos == len(step_masks):
            step_masks.append(
                [sum(1 << (pos - k * s) for k in range(1, l)) for s in range(1, pos // (l - 1) + 1)]
            )
        masks = step_masks[pos]
        bit = 1 << pos
        for m in masks:
            if zeros & m == m:
                break
        else:
            extend(pos + 1, zeros | bit, ones)
        if pos:
            for m in masks:
                if ones & m == m:
                    break
            else:
                extend(pos + 1, zeros, ones | bit)

    extend(0, 0, 0)
    return tuple((best_ones >> i) & 1 for i in range(best_len))


# TCOLOR text format
#
#   line 1:       TCOLOR 1
#   line 2:       <h> <w>
#   lines 3..h+2: w characters from {A, B}; A is color 0, B is color 1

TCOLOR_MAGIC = "TCOLOR 1"


@dataclass(frozen=True)
class GridColoring:
    """An h x w grid of colors 0/1; ``str`` gives its rows over {A, B}, 0 as A."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ValueError("grid must be nonempty")
        w = len(self.rows[0])
        if any(len(r) != w for r in self.rows):
            raise ValueError("grid rows must have equal length")
        if any(c not in (0, 1) for r in self.rows for c in r):
            raise ValueError("colors must be 0 or 1")

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @classmethod
    def from_bits(cls, h: int, w: int, bits: int) -> "GridColoring":
        rows = tuple(
            tuple((bits >> (r * w + c)) & 1 for c in range(w)) for r in range(h)
        )
        return cls(rows)

    def color(self, cell: Cell) -> int:
        return self.rows[cell[0]][cell[1]]

    def __str__(self) -> str:
        return "\n".join("".join("AB"[c] for c in row) for row in self.rows)

    def to_tcolor(self) -> str:
        return f"{TCOLOR_MAGIC}\n{self.height} {self.width}\n{self}\n"


@dataclass(frozen=True)
class GridAP:
    """l grid cells in arithmetic progression."""

    start: Cell
    step: tuple[int, int]
    length: int

    def cells(self) -> list[Cell]:
        r, c = self.start
        dy, dx = self.step
        return [(r + i * dy, c + i * dx) for i in range(self.length)]


def _ap_candidates(h: int, w: int, l: int) -> list[tuple[Cell, ...]]:
    """Every set of l cells in AP inside the grid, one orientation per line."""
    out: list[tuple[Cell, ...]] = []
    for dy in range(0, h):
        for dx in range(-w + 1, w):
            if dy == 0 and dx <= 0:
                continue
            if (l - 1) * abs(dx) >= w or (l - 1) * dy >= h:
                continue
            for r in range(h - (l - 1) * dy):
                for c in range(max(0, -(l - 1) * dx), w - max(0, (l - 1) * dx)):
                    out.append(tuple((r + k * dy, c + k * dx) for k in range(l)))
    return out


def grid_mono_ap(coloring: GridColoring, l: int) -> GridAP | None:
    """The canonically first monochromatic l-AP of cells, or None.

    Canonical order is (start, step), steps positive in (row, col) order.
    Every l-AP lies in a maximal same-color run with its step that starts no
    later, so each color's first run of length >= l starts that color's
    first l-AP, and the earlier of the two is the answer.
    """
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    firsts = []
    for color in (0, 1):
        cells = {(r, c) for r, row in enumerate(coloring.rows) for c, x in enumerate(row) if x == color}
        runs = maximal_runs(cells, l)
        if runs:
            firsts.append(runs[0][:2])
    if not firsts:
        return None
    start, step = min(firsts)
    return GridAP(start, step, l)


def _forced_brute(h: int, w: int, l: int) -> tuple[bool, GridColoring | None]:
    """(every coloring has a mono l-AP, an avoiding coloring if one exists).

    Scans all 2^(h*w - 1) colorings, so its cost doubles with every cell.
    Production goes through :func:`_forced_sat`; this scan is the
    independent oracle the tests compare that route against.
    """
    masks: list[int] = []
    for cells in _ap_candidates(h, w, l):
        m = 0
        for r, c in cells:
            m |= 1 << (r * w + c)
        masks.append(m)
    n = h * w
    # Fix cell 0's color to halve the scan; color-swap symmetry preserves APs.
    for bits in range(0, 1 << n, 2):
        mono = False
        for m in masks:
            x = bits & m
            if x == m or x == 0:
                mono = True
                break
        if not mono:
            return False, GridColoring.from_bits(h, w, bits)
    return True, None


def _forced_sat(h: int, w: int, l: int, config: SearchConfig) -> DecideResult:
    """Whether every 2-coloring of the h x w grid has a monochromatic l-AP.

    Asks :func:`ttr.solver.decide_sat`: one variable per cell, each
    candidate AP blocked in both colors.  An avoiding coloring is re-checked
    with :func:`grid_mono_ap`.
    """
    clauses = []
    for cells in _ap_candidates(h, w, l):
        lits = [r * w + c + 1 for r, c in cells]
        clauses.append(tuple(-v for v in lits))
        clauses.append(tuple(lits))

    def recheck(model: list[bool]) -> tuple[GridColoring, str | None]:
        coloring = GridColoring(tuple(tuple(int(model[r * w + c + 1]) for c in range(w)) for r in range(h)))
        ap = grid_mono_ap(coloring, l)
        return coloring, None if ap is None else f"monochromatic {l}-AP from {ap.start} with step {ap.step}"

    return decide_sat(h, w, l, h * w, clauses, recheck, config)


def compute_Lvdw(h: int, w: int, config: SearchConfig | None = None) -> ScanResult:
    """Greatest l such that every 2-coloring of h x w has a monochromatic l-AP.

    Any two cells form a 2-AP, so by pigeonhole a grid of at least 3 cells
    forces l = 2 and the scan starts at l = 3 (at l = 2 on smaller grids).
    No AP has more terms than the longer side, so that side plus one is
    always avoidable.  The witness is an avoiding coloring with no
    (value + 1)-term monochromatic AP; on budget exhaustion the result is
    the proven bracket [l - 1, inf).
    """
    rect = Rect(h, w)
    config = config or SearchConfig()
    first = 3 if rect.area >= 3 else 2
    return greatest_forced(range(first, max(h, w) + 2), lambda l: _forced_sat(h, w, l, config), config)

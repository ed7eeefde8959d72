"""Classical and two-dimensional van der Waerden computations.

``vdw_number(l)`` computes W(2, l) by depth-first search over colorings with
AP pruning, independent of any SAT machinery so it can serve as an oracle.
The 2D analogue asks for monochromatic APs of *cells* in a 2-colored grid,
where steps range over all nonzero integer vectors (diagonal and knight-like
steps included).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndeterminateError, ResourceLimitError
from .grid import Cell
from .solver import SearchConfig, SolverStatus, run_sat
from .width4 import read_tcolor, write_tcolor

MAX_VDW_LEN = 4


def _has_ap_ending_at(colors: list[int], pos: int, l: int) -> bool:
    """Monochromatic l-AP among colors[0..pos] whose last term is pos."""
    c = colors[pos]
    for step in range(1, pos // (l - 1) + 1):
        if all(colors[pos - k * step] == c for k in range(1, l)):
            return True
    return False


def vdw_number(l: int) -> int:
    """The least W such that every 2-coloring of {1..W} has a monochromatic l-AP."""
    return len(extremal_coloring(l)) + 1


def extremal_coloring(l: int) -> tuple[int, ...]:
    """A 2-coloring of length W(2, l) - 1 with no monochromatic l-AP."""
    if l < 2 or l > MAX_VDW_LEN:
        raise ResourceLimitError(f"l must be in 2..{MAX_VDW_LEN}, got {l}")
    return _longest_apfree_length(l)


def _longest_apfree_length(l: int) -> tuple[int, ...]:
    """The first longest l-AP-free 2-coloring in depth-first order; its length is W(2, l) - 1.

    The first color is fixed to 0 by symmetry, and color 0 is tried before 1.
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


@dataclass(frozen=True)
class GridColoring:
    """An h x w grid of colors 0/1."""

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

    def to_tcolor(self) -> str:
        return write_tcolor(["".join("AB"[c] for c in row) for row in self.rows])

    @classmethod
    def from_tcolor(cls, data: str | bytes) -> "GridColoring":
        rows = read_tcolor(data)
        return cls(tuple(tuple(0 if ch == "A" else 1 for ch in row) for row in rows))


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
    """The canonically first monochromatic l-AP of cells, or None."""
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


def _forced_sat(h: int, w: int, l: int, config: SearchConfig) -> tuple[bool | None, GridColoring | None]:
    """SAT route: one variable per cell; block each candidate AP in both colors."""
    clauses = []
    for cells in _ap_candidates(h, w, l):
        lits = [r * w + c + 1 for r, c in cells]
        clauses.append(tuple(-v for v in lits))
        clauses.append(tuple(lits))
    status, model = run_sat(h * w, clauses, config)
    if status is SolverStatus.UNKNOWN:
        return None, None
    if status is SolverStatus.UNSAT:
        return True, None
    assert model is not None
    bits = 0
    for v in range(1, h * w + 1):
        if model[v]:
            bits |= 1 << (v - 1)
    coloring = GridColoring.from_bits(h, w, bits)
    if grid_mono_ap(coloring, l) is not None:
        raise AssertionError("SAT avoidance witness re-verification failed")
    return False, coloring


def mono_ap_forced(h: int, w: int, l: int, config: SearchConfig | None = None) -> tuple[bool, GridColoring | None]:
    """Whether every 2-coloring of the h x w grid has a monochromatic l-AP.

    Returns the forced flag plus an avoiding coloring when not forced.  The
    question goes to the SAT route; any avoiding coloring it returns is
    re-checked with :func:`grid_mono_ap` before it is returned.
    """
    config = config or SearchConfig()
    forced, coloring = _forced_sat(h, w, l, config)
    if forced is None:
        raise IndeterminateError(f"budget exhausted on L_vdW({h},{w}) at l={l}")
    return forced, coloring


@dataclass
class LvdwResult:
    value: int
    avoider: GridColoring | None  # certificate with no (value+1)-term mono AP


def compute_Lvdw(h: int, w: int, config: SearchConfig | None = None) -> LvdwResult:
    """Greatest l such that every 2-coloring of h x w has a monochromatic l-AP.

    Ascends l from 2 (avoidability is monotone in l); raises
    :class:`IndeterminateError` with the proven bracket on budget exhaustion.
    """
    config = config or SearchConfig()
    l = 2
    while True:
        try:
            forced, avoider = mono_ap_forced(h, w, l, config)
        except IndeterminateError as e:
            raise IndeterminateError(str(e), lower=l - 1) from None
        if not forced:
            return LvdwResult(l - 1, avoider)
        l += 1

"""Deciding whether every tiling of a rectangle is forced to contain long APs.

``decide_forces(h, w, l)`` answers whether every complete tiling of the h x w
rectangle contains an AP of length >= l, either through the CNF/SAT pipeline
(blocking clauses; UNSAT means forced) or by exhaustive enumeration with AP
pruning.  ``compute_T`` and ``compute_L`` scan those answers for the least
forcing length and the greatest forced AP length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import IndeterminateError, LemmaViolationError, ResourceLimitError
from .enumerator import DEFAULT_ENUM_AREA, frontier_search, placements
from .grid import Rect, Tile, Tiling
from .aps import longest_ap
from .cnf import add_ap_blocking, build_cnf
from .solver import SearchConfig, SolverStatus, solve
from .vdw import vdw_number

MAX_T_SCAN = 400


@dataclass
class DecideResult:
    """Answer to "does (h, w) force an l-term AP?", with certificate."""

    height: int
    width: int
    length: int
    forced: bool
    witness: Tiling | None = None  # AP-free certificate when not forced
    method: str = "sat"

    def __bool__(self) -> bool:
        return self.forced


def _completes_ap(l: int) -> Callable[[Tile, Sequence[Tile]], bool]:
    """Prune hook: does the new tile complete l equally spaced same-orientation anchors?

    Cutting such a placement as soon as it is tried keeps every partial
    tiling the search explores free of l-term APs.
    """

    def completes(tile: Tile, placed: Sequence[Tile]) -> bool:
        o = tile.orientation
        same = {t.anchor for t in placed if t.orientation is o}
        r, c = tile.row, tile.col
        for (br, bc) in same:
            dy, dx = r - br, c - bc
            # Longest run through (r, c) with step (dy, dx), counting both sides.
            run = 1
            rr, cc = r - dy, c - dx
            while (rr, cc) in same:
                run += 1
                rr -= dy
                cc -= dx
            rr, cc = r + dy, c + dx
            while (rr, cc) in same:
                run += 1
                rr += dy
                cc += dx
            if run >= l:
                return True
        return False

    return completes


def decide_forces(
    h: int,
    w: int,
    l: int,
    config: SearchConfig | None = None,
    *,
    witness_hint: Tiling | None = None,
) -> DecideResult:
    """True iff every tiling of h x w contains an AP of length >= l.

    A ``witness_hint`` (an alleged AP-free tiling, e.g. from a stacked-row
    construction) is verified and, if good, answers the question immediately.
    SAT answers are cross-checked against the exhaustive enumerator on
    rectangles of at most ``DEFAULT_ENUM_AREA`` cells.  Budget exhaustion
    raises :class:`IndeterminateError`; it is never coerced to a boolean.
    """
    if h % 4 or w % 4:
        raise ValueError(f"sides must be multiples of 4, got {h}x{w}")
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    config = config or SearchConfig()

    if witness_hint is not None:
        if witness_hint.rect != Rect(h, w):
            raise ValueError(f"witness is for {witness_hint.rect}, expected {h}x{w}")
        if longest_ap(witness_hint).length < l:
            return DecideResult(h, w, l, forced=False, witness=witness_hint, method="hint")
        # A bad hint proves nothing; fall through to the search.

    if config.engine == "internal-backtracking":
        return _decide_by_enumeration(h, w, l)

    cnf = add_ap_blocking(build_cnf(Rect(h, w)), l)
    verdict = solve(cnf, config)
    if verdict.status is SolverStatus.UNKNOWN:
        raise IndeterminateError(f"budget exhausted deciding ({h},{w}) -> {l}")
    result = DecideResult(h, w, l, forced=verdict.status is SolverStatus.UNSAT,
                          witness=verdict.witness, method="sat")
    if h * w <= DEFAULT_ENUM_AREA:
        oracle = _decide_by_enumeration(h, w, l)
        if oracle.forced != result.forced:
            raise LemmaViolationError(
                f"solver and enumerator disagree on ({h},{w}) -> {l}: "
                f"sat={result.forced} enumeration={oracle.forced}"
            )
    return result


def _decide_by_enumeration(h: int, w: int, l: int) -> DecideResult:
    rect = Rect(h, w)
    if rect.area > DEFAULT_ENUM_AREA and rect.height > 4:
        raise ResourceLimitError(
            f"exhaustive decision for {rect} exceeds the enumeration bound; use the sat engine"
        )
    for tiling in frontier_search(rect, placements(rect), prune=_completes_ap(l), limit=1):
        return DecideResult(h, w, l, forced=False, witness=tiling, method="enumeration")
    return DecideResult(h, w, l, forced=True, method="enumeration")


@dataclass
class ScanResult:
    """Exact value when pinned; otherwise the bracketing interval [lower, upper]."""

    value: int | None
    lower: int
    upper: int | None

    @property
    def exact(self) -> bool:
        return self.value is not None


def compute_T(w: int, l: int, config: SearchConfig | None = None) -> ScanResult:
    """Least length N (multiple of 4) such that (w, N) forces an l-term AP.

    Scans N = 4, 8, ... upward (forcedness is not known to be monotone in N
    for general widths, so no binary search).  For widths 4..16 and l in
    {3, 4} the scan is capped by the 4*W(2, l) ceiling; reaching the ceiling
    without a forced answer indicates a bug and raises.  Other scans stop
    after N = ``MAX_T_SCAN`` with the value unknown.
    """
    if w % 4:
        raise ValueError(f"width must be a multiple of 4, got {w}")
    config = config or SearchConfig()
    ceiling: int | None = None
    if w in (4, 8, 12, 16) and 3 <= l <= 4:
        ceiling = 4 * vdw_number(l)
    lengths = range(4, (ceiling or MAX_T_SCAN) + 1, 4)
    for n in lengths:
        try:
            forced = decide_forces(w, n, l, config).forced
        except IndeterminateError:
            return ScanResult(None, n, ceiling)
        if forced:
            return ScanResult(n, n, n)
    if ceiling is not None:
        raise LemmaViolationError(
            f"scan passed the 4*W(2,{l}) = {ceiling} ceiling for width {w} without forcing"
        )
    return ScanResult(None, MAX_T_SCAN + 4, None)


def compute_L(h: int, w: int, config: SearchConfig | None = None) -> ScanResult:
    """Greatest l such that every tiling of h x w contains an l-term AP.

    Every nonempty tiling contains a 1-term AP, so the floor is 1; the scan
    ascends l = 2, 3, ... until an AP-free-at-l tiling exists (a tiling that
    avoids l-APs also avoids longer ones, so the first avoidable l pins L).
    """
    Rect(h, w)  # rejects a side <= 0, which the % 4 test lets through
    if h % 4 or w % 4:
        raise ValueError(f"sides must be multiples of 4, got {h}x{w}")
    config = config or SearchConfig()
    ceiling = h * w // 4 + 1  # more terms than tiles is trivially avoidable
    for l in range(2, ceiling + 1):
        try:
            forced = decide_forces(h, w, l, config).forced
        except IndeterminateError:
            return ScanResult(None, l - 1, None)
        if not forced:
            return ScanResult(l - 1, l - 1, l - 1)
    raise LemmaViolationError(f"every length up to {ceiling} is forced on {h}x{w}; impossible")

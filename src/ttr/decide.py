"""Deciding whether every tiling of a rectangle is forced to contain long APs.

``decide_forces(h, w, l)`` answers whether every complete tiling of the h x w
rectangle contains an AP of length >= l: ``solver.solve`` takes the
AP-blocking CNF to the one SAT route, and UNSAT means forced.  No answer
enumerates tilings; ``_decide_by_enumeration``, which filters the plain
enumeration through the AP kernel, is the tests' oracle for that route on
every rectangle of at most 96 cells.  ``compute_T`` and ``compute_L``
check the deadline before each question as they scan for the least forcing
length and the greatest forced AP length; below its 4*W(2, l) ceiling the
T scan answers from a verified stacked van der Waerden strip instead.
"""

from __future__ import annotations

from .errors import IndeterminateError, LemmaViolationError
from .enumerator import enumerate_tilings
from .grid import Rect, Tiling
from .aps import has_ap_of_length, longest_ap
from .cnf import add_ap_blocking, build_cnf
from .solver import DecideResult, ScanResult, SearchConfig, greatest_forced, solve
from .vdw import GridColoring, extremal_coloring
from .width4 import stack_rows

MAX_T_SCAN = 400


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
    construction) is verified and, if good, answers the question immediately;
    otherwise ``solve`` answers.  Budget exhaustion raises
    :class:`IndeterminateError`; it is never coerced to a boolean.
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
            return DecideResult(h, w, l, forced=False, method="hint", witness=witness_hint)
        # A bad hint proves nothing; fall through to the search.

    return solve(add_ap_blocking(build_cnf(Rect(h, w)), l), config)


def _decide_by_enumeration(h: int, w: int, l: int) -> DecideResult:
    """The oracle: the first tiling of h x w, in canonical order, without an l-term AP."""
    for tiling in enumerate_tilings(Rect(h, w)):
        if not has_ap_of_length(tiling, l):
            return DecideResult(h, w, l, forced=False, method="enumeration", witness=tiling)
    return DecideResult(h, w, l, forced=True, method="enumeration")


def compute_T(w: int, l: int, config: SearchConfig | None = None) -> ScanResult:
    """Least length N (multiple of 4) such that (w, N) forces an l-term AP.

    Scans N = 4, 8, ... upward (forcedness is not known to be monotone in N
    for general widths, so no binary search), checking the deadline before
    each question.  For widths 4..16 and l in {3, 4} the scan is capped by
    the 4*W(2, l) ceiling, read off one extremal l-AP-free coloring; reaching
    the ceiling without a forced answer indicates a bug and raises, so a
    deadline that passes at the ceiling question still pins T there.  Below
    the ceiling, when w/4 < l, each question's ``witness_hint`` is w/4
    stacked strip tilings of the coloring's first N/4 colors: ``decide_forces``
    re-checks it, and one that fails falls through to the solver.  (At
    w/4 >= l the stack holds a vertical l-term AP, so none is built.)  Other
    scans stop after N = ``MAX_T_SCAN`` with the value unknown.
    """
    Rect(4, w)  # rejects a width <= 0, which the % 4 test lets through
    if w % 4:
        raise ValueError(f"width must be a multiple of 4, got {w}")
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")
    config = config or SearchConfig()
    ceiling: int | None = None
    strip: tuple[int, ...] | None = None  # the colors whose stacked prefixes are the hints
    if w in (4, 8, 12, 16) and 3 <= l <= 4:
        colors = extremal_coloring(l).rows[0]
        ceiling = 4 * (len(colors) + 1)
        if w // 4 < l:
            strip = colors
    lengths = range(4, (ceiling or MAX_T_SCAN) + 1, 4)
    for n in lengths:
        if config.remaining_s() == 0:
            break
        hint = None
        if strip is not None and n < ceiling:
            hint = stack_rows(GridColoring((strip[: n // 4],)), w // 4)
        try:
            forced = decide_forces(w, n, l, config, witness_hint=hint).forced
        except IndeterminateError:
            break
        if forced:
            return ScanResult(n, n, n)
    else:
        if ceiling is not None:
            raise LemmaViolationError(
                f"scan passed the 4*W(2,{l}) = {ceiling} ceiling for width {w} without forcing"
            )
        return ScanResult(None, MAX_T_SCAN + 4, None)
    # Out of time at n with every shorter length avoidable; at the ceiling that pins T.
    return ScanResult(n, n, n) if n == ceiling else ScanResult(None, n, ceiling)


def compute_L(h: int, w: int, config: SearchConfig | None = None) -> ScanResult:
    """Greatest l such that every tiling of h x w contains an l-term AP.

    With at least 5 tiles, two share an orientation and form a 2-term AP, so
    by pigeonhole the scan starts at l = 3 (at l = 2 on 4x4, whose tilings
    use all four orientations once).  The first AP-free-at-l tiling pins L
    and is the result's witness; on budget exhaustion the result is the
    proven bracket [l - 1, inf).
    """
    Rect(h, w)  # rejects a side <= 0, which the % 4 test lets through
    if h % 4 or w % 4:
        raise ValueError(f"sides must be multiples of 4, got {h}x{w}")
    config = config or SearchConfig()
    tiles = h * w // 4
    ceiling = tiles + 1  # more terms than tiles is trivially avoidable
    first = 3 if tiles >= 5 else 2
    return greatest_forced(range(first, ceiling + 1), lambda l: decide_forces(h, w, l, config), config)

"""The four benchmark workloads, each one pass over a fixed instance list.

A pass function calls ``run(name, fn, verdict)`` once per operation; the
runner times ``fn``, counts an exception or a failing ``verdict`` as a failed
operation, and returns ``fn``'s result (None when it raised).  The seed only
permutes the order of operations within a pass; an operation that reads a
file another one writes always runs after it.

``construct``, ``scan`` and ``vdw`` go through ``ttr.cli.main`` as a user
would, so parsing, printing and file writes are included.  ``sweep`` calls
the library's public functions, because the CLI has no "all tilings" command.
Every name is looked up at call time, so a traced run sees its wrappers.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable

import ttr
import ttr.cli

import check

Run = Callable[[str, Callable[[], object], Callable[[object], "str | None"]], object]


def cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = ttr.cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _exit_error(res) -> str | None:
    code, out, err = res
    if code != 0:
        return f"exit {code}: {(err or out).strip()[:200]}"
    return None


def _answer_is(expected: int) -> Callable[[object], str | None]:
    def verdict(res) -> str | None:
        answer = res[1].strip()
        wrong = answer != str(expected)
        return _exit_error(res) or (f"answered {answer!r}, reference {expected}" if wrong else None)
    return verdict


def _fresh(path: Path) -> Path:
    path.unlink(missing_ok=True)
    return path


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# --------------------------------------------------------------------------
# construct: SAT witnesses, then verify and render the symmetric one

APFREE = [(12, 20, False), (16, 16, False), (8, 32, False), (20, 20, True)]


def construct_pass(run: Run, rng: random.Random, ref: dict, work: Path) -> None:
    witness = work / "apfree-20x20-rot180.ttiling"
    for h, w, sym in _shuffled(rng, APFREE):
        argv = ["apfree", "--height", str(h), "--width", str(w), "--len", "3"]
        if sym:
            argv += ["--symmetry", "rot180", "--out", str(_fresh(witness))]

        def verdict(res, h=h, w=w, sym=sym) -> str | None:
            text = witness.read_text(encoding="utf-8") if sym else res[1]
            return _exit_error(res) or check.check_witness(text, h, w, 3, rot180=sym)

        run(f"apfree {h}x{w}" + " rot180" * sym, lambda: cli(argv), verdict)

    svg = work / "apfree-20x20-rot180.svg"
    for name in _shuffled(rng, ["verify", "render"]):
        if name == "verify":
            run("verify 20x20", lambda: cli(["verify", "--in", str(witness), "--max-ap", "3"]),
                lambda res: _exit_error(res) or _verify_report_error(res[1], witness))
        else:
            argv = ["render", "--in", str(witness), "--format", "svg", "--highlight-ap", "--out", str(_fresh(svg))]
            run("render 20x20 svg", lambda: cli(argv),
                lambda res: _exit_error(res) or check.check_svg(svg.read_text(encoding="utf-8"),
                                                                 witness.read_text(encoding="utf-8")))


def _verify_report_error(out: str, witness: Path) -> str | None:
    h, w, tiles = check.parse_ttiling(witness.read_text(encoding="utf-8"))
    lines = out.splitlines()
    expected = f"OK {h}x{w} tiles={len(tiles)} structure=ok"
    longest = check.longest_ap_length(tiles)
    if len(lines) != 2 or lines[0] != expected or not lines[1].endswith(f" len={longest}"):
        return f"verify printed {out!r}, expected {expected!r} and an AP of length {longest}"
    return None


# --------------------------------------------------------------------------
# scan: T(4,3), T(8,3) and L(12,12), about twenty small CNFs

SCAN = [
    (["tvalue", "--width", "4", "--len", "3"], "tvalue 4 3"),
    (["tvalue", "--width", "8", "--len", "3"], "tvalue 8 3"),
    (["lvalue", "--height", "12", "--width", "12"], "lvalue 12 12"),
]


def scan_pass(run: Run, rng: random.Random, ref: dict, work: Path) -> None:
    for argv, key in _shuffled(rng, SCAN):
        run(key, lambda: cli(argv), _answer_is(ref[key]))


# --------------------------------------------------------------------------
# vdw: W(2,4) by backtracking, L_vdW by brute force (3x5, 4x6) and SAT (8x8)

VDW2D = [(3, 5), (4, 6), (8, 8)]


def vdw_pass(run: Run, rng: random.Random, ref: dict, work: Path) -> None:
    questions = [("vdw 4", None)] + [(f"vdw2d {h} {w}", (h, w)) for h, w in VDW2D]
    for key, rect in _shuffled(rng, questions):
        if rect is None:
            run(key, lambda: cli(["vdw", "--len", "4"]), _answer_is(ref[key]))
            continue
        h, w = rect
        avoider = _fresh(work / f"vdw2d-{h}x{w}.tcolor")
        argv = ["vdw2d", "--height", str(h), "--width", str(w), "--out", str(avoider)]

        def verdict(res, key=key, h=h, w=w, avoider=avoider) -> str | None:
            return _answer_is(ref[key])(res) or check.check_avoider(
                avoider.read_text(encoding="utf-8"), h, w, ref[key] + 1)

        run(key, lambda: cli(argv), verdict)


# --------------------------------------------------------------------------
# sweep: every tiling of small rectangles through the analysis layers

SWEEP_RECTS = [(8, 12), (12, 8), (4, 24), (24, 4)]
COUNT_RECTS = [(4, 32), (32, 4)]
WIDTH4_RECT = (4, 16)


def _fields(tiling) -> set[tuple[str, int, int]]:
    return {(t.orientation.value, t.row, t.col) for t in tiling.tiles}


def analyse(tiling) -> tuple:
    """Longest AP, chain-graph and TTILING round trips, cut check."""
    text = ttr.write_tiling(tiling)
    return (
        tiling,
        text,
        ttr.write_tiling(ttr.read_tiling(text)),
        ttr.longest_ap(tiling).length,
        ttr.chain_to_tiling(ttr.build_chain_graph(tiling)),
        ttr.cut_cornerless_ok(tiling),
    )


def analysis_error(res) -> str | None:
    tiling, text, again, ap_len, chained, cut_ok = res
    _h, _w, tiles = check.parse_ttiling(text)
    if set(tiles) != _fields(tiling):
        return "TTILING text does not match the tiling"
    if again != text:
        return "TTILING round trip changed the text"
    if _fields(chained) != set(tiles):
        return "chain-graph round trip changed the tiling"
    own = check.longest_ap_length(tiles)
    if ap_len != own:
        return f"longest_ap says {ap_len}, own scan says {own}"
    return None if cut_ok is True else "cut_cornerless_ok rejected a valid tiling"


def width4(tiling) -> tuple:
    """Unit decomposition and A/B projection of a height-4 tiling."""
    mapped = ttr.ab_map(tiling)
    return tiling, ttr.decompose(tiling), mapped, ttr.tiling_to_coloring(mapped)


def width4_error(res) -> str | None:
    tiling, units, mapped, coloring = res
    width = tiling.rect.width
    tiles = _fields(mapped)
    err = check.cover_error(4, width, tiles)
    if err:
        return f"ab_map: {err}"
    if sum(units.lengths) != width:
        return f"decompose covers {sum(units.lengths)} of {width} columns"
    d1 = {t for t in _fields(tiling) if t[0] == "d" and t[1] == 0}
    if d1 != {t for t in tiles if t[0] == "d" and t[1] == 0}:
        return "ab_map moved a d1 tile"
    colors = str(coloring)
    if len(colors) != width // 4:
        return f"coloring {colors!r} has the wrong length"
    for i, color in enumerate(colors):
        block = {(o, r, c - 4 * i) for o, r, c in tiles if 4 * i <= c < 4 * i + 4}
        if block != (check.UNIT_A if color == "A" else check.UNIT_B):
            return f"block {i} of the projection is not unit {color}"
    return None


def sweep_pass(run: Run, rng: random.Random, ref: dict, work: Path) -> None:
    counts: dict[tuple[int, int], int] = {}

    def count_error(n, h: int, w: int) -> str | None:
        counts[(h, w)] = n
        expected = ref[f"count {h} {w}"]
        if n != expected:
            return f"{n} tilings of {h}x{w}, reference {expected}"
        if counts.get((w, h), n) != n:
            return f"count({h},{w}) = {n} but count({w},{h}) = {counts[(w, h)]}"
        return None

    groups = [("enumerate", r) for r in SWEEP_RECTS + [WIDTH4_RECT]] + [("count", r) for r in COUNT_RECTS]
    for kind, (h, w) in _shuffled(rng, groups):
        rect = ttr.Rect(h, w)
        if kind == "count":
            run(f"count {h}x{w}", lambda: ttr.count_tilings(rect, max_area=rect.area),
                lambda n, h=h, w=w: count_error(n, h, w))
            continue
        tilings = run(f"enumerate {h}x{w}", lambda: list(ttr.enumerate_tilings(rect)),
                      lambda ts, h=h, w=w: count_error(len(ts), h, w)) or []
        fn, error = (width4, width4_error) if (h, w) == WIDTH4_RECT else (analyse, analysis_error)
        for i in _shuffled(rng, range(len(tilings))):
            run(f"{fn.__name__} {h}x{w} #{i}", lambda: fn(tilings[i]), error)


WORKLOADS: dict[str, Callable[[Run, random.Random, dict, Path], None]] = {
    "construct": construct_pass,
    "scan": scan_pass,
    "sweep": sweep_pass,
    "vdw": vdw_pass,
}

#: What ``ops_per_s`` counts on each workload.
OPS_UNIT = {
    "construct": "CLI questions answered",
    "scan": "CLI questions answered",
    "sweep": "tilings analysed (plus enumerate and count calls)",
    "vdw": "CLI questions answered",
}

"""Command-line front end.

Each subcommand accepts only the options its handler reads.  Exit codes: 0
when the computation completed (including negative answers such as
AVOIDABLE or "no tiling"), 1 for invalid input data or a file that cannot be
read or written, 2 for usage errors, 3 for solver failures, 4 when a budget
ran out before an answer (bracketing information is printed when available).

Every ``main`` call in a process shares one parser, built on the first call.
Each handler imports the modules it runs when it is called, so a process
loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import IndeterminateError, ParseError, SolverError, TilingError, TtrError
from .grid import Rect, cut_cornerless_ok, is_tileable, read_tiling, write_tiling
from .cnf import add_ap_blocking, add_rot180_symmetry, build_cnf

if TYPE_CHECKING:
    from .solver import ScanResult, SearchConfig

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_UNKNOWN = 4


def _add_rect(p: argparse.ArgumentParser) -> None:
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)


def _add_len(p: argparse.ArgumentParser) -> None:
    p.add_argument("--len", dest="length", type=int, required=True)


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=None, help="write the main artifact here")


def _add_search(p: argparse.ArgumentParser) -> None:
    """The flags ``_config`` reads."""
    p.add_argument("--solver", default=None, help="external DIMACS solver command (overrides TTR_SOLVER)")
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="wall-clock bound on the whole command's search")


def _config(args: argparse.Namespace) -> SearchConfig:
    """The search settings; the budget's deadline starts counting here."""
    from .solver import SearchConfig

    return SearchConfig(solver_cmd=args.solver, time_budget_s=args.budget_seconds)


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8", newline="")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ttr`` parser, built once per process: callers share it and must not change it."""
    # --help shows the module docstring without its last paragraph, a note for callers of main.
    parser = argparse.ArgumentParser(prog="ttr", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tile", help="produce one tiling of the rectangle")
    _add_rect(p)
    _add_out(p)

    p = sub.add_parser("apfree", help="search for a tiling with no L-term AP")
    _add_rect(p)
    _add_len(p)
    _add_out(p)
    _add_search(p)
    p.add_argument("--symmetry", choices=["rot180"], default=None)

    p = sub.add_parser("decide", help="FORCED/AVOIDABLE: must every tiling contain an L-term AP?")
    _add_rect(p)
    _add_len(p)
    _add_out(p)
    _add_search(p)

    p = sub.add_parser("tvalue", help="least length forcing an L-term AP at the given width")
    p.add_argument("--width", type=int, required=True)
    _add_len(p)
    _add_search(p)

    p = sub.add_parser("lvalue", help="greatest AP length forced by the rectangle")
    _add_rect(p)
    _add_search(p)

    p = sub.add_parser("vdw", help="classical two-color van der Waerden number W(2, L)")
    _add_len(p)

    p = sub.add_parser("vdw2d", help="greatest forced monochromatic AP length in a 2-colored grid")
    _add_rect(p)
    _add_out(p)
    _add_search(p)

    p = sub.add_parser("chaingraph", help="chain graph of a tiling, in CHAIN format")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    _add_out(p)

    p = sub.add_parser("verify", help="validate a TTILING file and report its AP structure")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--max-ap", type=int, default=None,
                   help="fail when an AP of at least this length is present")

    p = sub.add_parser("render", help="render a TTILING file")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--highlight-ap", action="store_true", help="stroke every longest AP (svg)")
    p.add_argument("--cell-size", type=int, default=None, help="pixels per cell (svg; default 20)")
    p.add_argument("--borders", action="store_true", help="draw tile boundaries (ascii)")
    _add_out(p)

    return parser


def _cmd_tile(args: argparse.Namespace) -> int:
    from .vdw import GridColoring
    from .width4 import stack_rows

    rect = Rect(args.height, args.width)
    if not is_tileable(rect):
        print(f"NONE (no complete tiling of {rect} exists)")
        return EXIT_OK
    # Walkup's construction: h/4 x w/4 copies of the 4x4 block (unit B).
    tiling = stack_rows(GridColoring(((1,) * (rect.width // 4),)), rect.height // 4)
    _emit(write_tiling(tiling), args.out)
    return EXIT_OK


def _cmd_apfree(args: argparse.Namespace) -> int:
    from .solver import solve

    config = _config(args)
    rect = Rect(args.height, args.width)
    if args.length < 2:
        raise ValueError(f"l must be >= 2, got {args.length}")
    if not is_tileable(rect):
        print(f"NONE (no complete tiling of {rect} exists)")
        return EXIT_OK
    cnf = add_ap_blocking(build_cnf(rect), args.length)
    if args.symmetry == "rot180":
        cnf = add_rot180_symmetry(cnf)
    try:
        result = solve(cnf, config)
    except IndeterminateError:
        print(f"UNKNOWN (budget exhausted; no {args.length}-AP-free tiling of {rect} found,"
              f" none ruled out)")
        return EXIT_UNKNOWN
    if result.forced:
        print(f"NONE (every tiling of {rect} contains an AP of length >= {args.length})")
        return EXIT_OK
    _emit(write_tiling(result.witness), args.out)
    return EXIT_OK


def _cmd_decide(args: argparse.Namespace) -> int:
    from .decide import decide_forces

    result = decide_forces(args.height, args.width, args.length, _config(args))
    if result.forced:
        print("FORCED")
        return EXIT_OK
    assert result.witness is not None
    out = args.out or Path(f"ttr-cert-{args.height}x{args.width}-l{args.length}.ttiling")
    out.write_text(write_tiling(result.witness), encoding="utf-8", newline="")
    print(f"AVOIDABLE certificate={out}")
    return EXIT_OK


def _print_scan(name: str, result: ScanResult) -> int:
    """Print a scan's value, or its bracket when the budget ran out first."""
    if result.exact:
        print(result.value)
        return EXIT_OK
    print(f"UNKNOWN {name} in [{result.lower}, {'inf' if result.upper is None else result.upper}]")
    return EXIT_UNKNOWN


def _cmd_tvalue(args: argparse.Namespace) -> int:
    from .decide import compute_T

    return _print_scan("T", compute_T(args.width, args.length, _config(args)))


def _cmd_lvalue(args: argparse.Namespace) -> int:
    from .decide import compute_L

    return _print_scan("L", compute_L(args.height, args.width, _config(args)))


def _cmd_vdw(args: argparse.Namespace) -> int:
    from .vdw import vdw_number

    print(vdw_number(args.length))
    return EXIT_OK


def _cmd_vdw2d(args: argparse.Namespace) -> int:
    from .vdw import compute_Lvdw

    result = compute_Lvdw(args.height, args.width, _config(args))
    if args.out is not None and result.witness is not None:
        args.out.write_text(result.witness.to_tcolor(), encoding="utf-8", newline="")
    return _print_scan("L_vdW", result)


def _cmd_chaingraph(args: argparse.Namespace) -> int:
    from .chains import build_chain_graph, write_chain

    tiling = read_tiling(args.infile.read_bytes())
    _emit(write_chain(build_chain_graph(tiling)), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .aps import longest_ap

    if args.max_ap is not None and args.max_ap < 2:
        raise ValueError(f"--max-ap must be >= 2, got {args.max_ap}")
    tiling = read_tiling(args.infile.read_bytes())
    structural = cut_cornerless_ok(tiling)
    ap = longest_ap(tiling)
    print(f"OK {tiling.rect} tiles={tiling.tile_count} structure={'ok' if structural else 'BROKEN'}")
    print(ap.render())
    if not structural:
        return EXIT_DATA
    if args.max_ap is not None and ap.length >= args.max_ap:
        print(f"FAIL contains an AP of length {ap.length} >= {args.max_ap}")
        return EXIT_DATA
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    from .aps import enumerate_aps, longest_ap
    from .render import render_ascii, render_svg

    other_format = {"svg": [("--borders", args.borders)],
                    "ascii": [("--cell-size", args.cell_size is not None), ("--highlight-ap", args.highlight_ap)]}
    refused = [flag for flag, given in other_format[args.format] if given]
    if refused:
        print(f"ttr render: error: {refused[0]} does not apply to --format {args.format}", file=sys.stderr)
        return EXIT_USAGE
    tiling = read_tiling(args.infile.read_bytes())
    if args.format == "ascii":
        _emit(render_ascii(tiling, borders=args.borders), args.out)
        return EXIT_OK
    highlight = ()
    if args.highlight_ap:
        best = longest_ap(tiling)
        highlight = tuple(enumerate_aps(tiling, best.length)) if best.length > 1 else (best,)
    cell_size = 20 if args.cell_size is None else args.cell_size
    _emit(render_svg(tiling, cell_size=cell_size, highlight=highlight), args.out)
    return EXIT_OK


_HANDLERS = {
    "tile": _cmd_tile,
    "apfree": _cmd_apfree,
    "decide": _cmd_decide,
    "tvalue": _cmd_tvalue,
    "lvalue": _cmd_lvalue,
    "vdw": _cmd_vdw,
    "vdw2d": _cmd_vdw2d,
    "chaingraph": _cmd_chaingraph,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except IndeterminateError as e:
        print(f"UNKNOWN {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    except SolverError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (ParseError, TilingError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"file error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (TtrError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()

"""Standalone DIMACS solving entry point: ``python -m ttr.dimacs <file.cnf>``.

Reads a DIMACS CNF, runs the built-in CDCL solver, and prints the standard
SAT-competition output (``s`` status line plus ``v`` value lines).  Exit
codes follow solver convention: 10 for SAT, 20 for UNSAT, 0 for UNKNOWN;
a file that cannot be read or parsed is reported in one line on stderr
with exit code 1.

This doubles as a reference implementation of the external-solver contract:
pointing ``--solver``/``TTR_SOLVER`` at this command exercises exactly the
same code path a third-party solver would.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cdcl import solve_clauses
from .cnf import parse_dimacs
from .errors import ParseError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m ttr.dimacs", description=__doc__)
    parser.add_argument("cnf_file", help="path to a DIMACS CNF file")
    parser.add_argument("--time-budget", type=float, default=None, help="seconds before giving up")
    args = parser.parse_args(argv)

    try:
        num_vars, clauses = parse_dimacs(Path(args.cnf_file).read_text(encoding="utf-8"))
    except (ParseError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    result = solve_clauses(num_vars, clauses, time_budget=args.time_budget)
    if result.status == "SAT":
        print("s SATISFIABLE")
        model = result.model
        assert model is not None
        lits = [v if model[v] else -v for v in range(1, num_vars + 1)]
        for i in range(0, len(lits), 20):
            print("v " + " ".join(str(l) for l in lits[i : i + 20]))
        print("v 0")
        return 10
    if result.status == "UNSAT":
        print("s UNSATISFIABLE")
        return 20
    print("s UNKNOWN")
    return 0


if __name__ == "__main__":
    sys.exit(main())

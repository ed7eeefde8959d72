from __future__ import annotations

import stat
import sys

import pytest

from ttr.errors import SolverError
from ttr.grid import Rect
from ttr.cnf import add_ap_blocking, build_cnf
from ttr.solver import (
    SearchConfig,
    SolverStatus,
    parse_solver_output,
    run_sat,
    solve,
)

DIMACS_SOLVER = f"{sys.executable} -m ttr.dimacs"


def test_parse_solver_output_sat():
    out = "c hello\ns SATISFIABLE\nv 1 -2\nv 3 0\n"
    status, model = parse_solver_output(out, 3)
    assert status is SolverStatus.SAT
    assert model[1:] == [True, False, True]


def test_parse_solver_output_unsat_and_unknown():
    assert parse_solver_output("s UNSATISFIABLE\n", 2)[0] is SolverStatus.UNSAT
    assert parse_solver_output("s UNKNOWN\n", 2)[0] is SolverStatus.UNKNOWN


def test_parse_solver_output_rejects_garbage():
    with pytest.raises(SolverError):
        parse_solver_output("no status here\n", 2)
    with pytest.raises(SolverError):
        parse_solver_output("s MAYBE\n", 2)
    with pytest.raises(SolverError):
        parse_solver_output("s SATISFIABLE\nv 1 0\n", 2)  # var 2 unassigned
    with pytest.raises(SolverError):
        parse_solver_output("s SATISFIABLE\nv 1 5 0\n", 2)  # out of range


def test_internal_engine_solves_and_reverifies():
    cnf = add_ap_blocking(build_cnf(Rect(4, 8)), 3)
    verdict = solve(cnf, SearchConfig())
    assert verdict.status is SolverStatus.SAT
    assert verdict.witness is not None
    assert verdict.engine == "internal"


def test_builtin_solver_takes_any_number_of_variables():
    # The built-in solver has no variable cap; only the time budget bounds it.
    n = 6000
    status, model = run_sat(n, [(v if v % 2 else -v,) for v in range(1, n + 1)], SearchConfig())
    assert status is SolverStatus.SAT
    assert model[1:] == [v % 2 == 1 for v in range(1, n + 1)]


@pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_time_budget_must_be_positive_and_finite(budget):
    with pytest.raises(ValueError, match="positive finite"):
        SearchConfig(time_budget_s=budget)
    assert SearchConfig(time_budget_s=0.5).time_budget_s == 0.5


def test_external_solver_contract_sat_and_unsat():
    config = SearchConfig(solver_cmd=DIMACS_SOLVER)
    sat_cnf = build_cnf(Rect(4, 4))
    verdict = solve(sat_cnf, config)
    assert verdict.status is SolverStatus.SAT
    assert verdict.engine == "external"
    assert verdict.witness is not None and verdict.witness.rect == Rect(4, 4)

    unsat_cnf = build_cnf(Rect(4, 6))
    assert solve(unsat_cnf, config).status is SolverStatus.UNSAT


def test_external_solver_not_found():
    config = SearchConfig(solver_cmd="definitely-not-a-solver-binary")
    with pytest.raises(SolverError):
        run_sat(2, [(1,), (2,)], config)


def test_env_var_configures_solver(monkeypatch):
    monkeypatch.setenv("TTR_SOLVER", DIMACS_SOLVER)
    assert SearchConfig().resolved_solver_cmd() == DIMACS_SOLVER
    # the explicit flag wins over the environment
    assert SearchConfig(solver_cmd="other").resolved_solver_cmd() == "other"
    verdict = solve(build_cnf(Rect(4, 4)), SearchConfig())
    assert verdict.engine == "external"
    assert verdict.status is SolverStatus.SAT


def test_lying_external_solver_is_caught(tmp_path, monkeypatch):
    # A "solver" that claims SAT with an all-false model must fail re-verification.
    script = tmp_path / "liar.sh"
    lines = ["#!/bin/sh", 'echo "s SATISFIABLE"']
    cnf = add_ap_blocking(build_cnf(Rect(4, 8)), 3)
    lits = " ".join(str(-v) for v in range(1, cnf.num_vars + 1))
    lines.append(f'echo "v {lits} 0"')
    script.write_text("\n".join(lines) + "\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    from ttr.errors import TilingError

    with pytest.raises(TilingError):
        solve(cnf, SearchConfig(solver_cmd=str(script)))


def test_external_witness_ap_bound_reverified(tmp_path):
    # A solver that returns a *valid tiling* which violates the AP bound: take
    # the periodic answer for the unblocked CNF and replay it against the
    # blocked one.
    base = build_cnf(Rect(4, 8))
    from ttr.cdcl import solve_clauses

    honest = solve_clauses(base.num_vars, base.clauses)
    assert honest.status == "SAT"
    lits = " ".join(str(v if honest.model[v] else -v) for v in range(1, base.num_vars + 1))
    script = tmp_path / "replay.sh"
    script.write_text(f'#!/bin/sh\necho "s SATISFIABLE"\necho "v {lits} 0"\n')
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    blocked = add_ap_blocking(base, 2)
    with pytest.raises(SolverError):
        solve(blocked, SearchConfig(solver_cmd=str(script)))

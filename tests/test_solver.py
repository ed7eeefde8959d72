from __future__ import annotations

import stat
import sys
import time

import pytest

import ttr.cdcl
import ttr.solver
from ttr.cdcl import SatResult, solve_clauses
from ttr.errors import IndeterminateError, SolverError
from ttr.grid import Rect
from ttr.aps import longest_ap
from ttr.cnf import add_ap_blocking, add_rot180_symmetry, build_cnf
from ttr.solver import (
    SearchConfig,
    SolverStatus,
    parse_solver_output,
    run_sat,
    solve,
)
from ttr.vdw import _forced_sat
from ttr.width4 import concatenate

DIMACS_SOLVER = f"{sys.executable} -m ttr.dimacs"


def test_parse_solver_output_sat():
    out = "c hello\ns SATISFIABLE\nv 1 -2\nv 3 0\n"
    result = parse_solver_output(out, 3)
    assert result.status is SolverStatus.SAT
    assert result.model[1:] == [True, False, True]


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


def test_value_lines_may_not_assert_a_variable_both_ways():
    with pytest.raises(SolverError, match="variable 1 both true and false"):
        parse_solver_output("s SATISFIABLE\nv 1 -1 2 0", 2)
    with pytest.raises(SolverError, match="variable 2 both true and false"):
        parse_solver_output("s SATISFIABLE\nv 1 -2\nv 2 0\n", 2)
    # Repeating a literal the same way is not a contradiction.
    assert parse_solver_output("s SATISFIABLE\nv 1 -2 1 0\n", 2)[1][1:] == [True, False]


def test_status_lines_must_agree():
    with pytest.raises(SolverError, match="contradicts an earlier SAT line"):
        parse_solver_output("s SATISFIABLE\nv 1 2 0\ns UNSATISFIABLE", 2)
    with pytest.raises(SolverError, match="contradicts an earlier UNKNOWN line"):
        parse_solver_output("s UNKNOWN\ns UNSATISFIABLE\n", 2)
    assert parse_solver_output("s UNSATISFIABLE\ns UNSATISFIABLE\n", 2) == SatResult(SolverStatus.UNSAT)
    result = parse_solver_output("s SATISFIABLE\nv 1 -2 0\ns SATISFIABLE\n", 2)
    assert result.status is SolverStatus.SAT and result.model[1:] == [True, False]


def test_value_list_ends_at_its_zero():
    with pytest.raises(SolverError) as exc:
        parse_solver_output("s SATISFIABLE\nv 1 0 -2 0\n", 2)
    assert str(exc.value) == "literal '-2' after the 0 that ends the value list"
    with pytest.raises(SolverError, match="literal '1' after the 0"):
        parse_solver_output("s SATISFIABLE\nv 1 -2 0\nv 1 0\n", 2)
    with pytest.raises(SolverError, match="literal '0' after the 0"):
        parse_solver_output("s SATISFIABLE\nv 1 -2 0 0\n", 2)


@pytest.mark.parametrize("token", ["+2", "1_0", "\u0663", "\u00b2", "1.0", "x", "--1"])
def test_value_lines_take_signed_ascii_decimal_literals(token):
    with pytest.raises(SolverError) as exc:
        parse_solver_output(f"s SATISFIABLE\nv 1 {token} 0\n", 2)
    assert repr(token) in str(exc.value)


def test_internal_engine_solves_and_reverifies():
    cnf = add_ap_blocking(build_cnf(Rect(4, 8)), 3)
    result = solve(cnf, SearchConfig())
    assert (result.height, result.width, result.length) == (4, 8, 3)
    assert result.forced is False
    assert result.witness is not None
    assert result.method == "internal"


def test_unknown_raises_with_the_question():
    cnf = add_ap_blocking(build_cnf(Rect(4, 8)), 3)
    with pytest.raises(IndeterminateError, match=r"^budget exhausted deciding \(4,8\) -> 3$"):
        solve(cnf, SearchConfig(time_budget_s=1e-9))


def test_builtin_solver_takes_any_number_of_variables():
    # The built-in solver has no variable cap; only the time budget bounds it.
    n = 6000
    result = run_sat(n, [(v if v % 2 else -v,) for v in range(1, n + 1)], SearchConfig())
    assert result.status is SolverStatus.SAT
    assert result.model[1:] == [v % 2 == 1 for v in range(1, n + 1)]


def test_one_status_type_from_engine_to_package():
    assert ttr.SolverStatus is ttr.solver.SolverStatus is ttr.cdcl.SolverStatus
    assert list(SolverStatus) == ["SAT", "UNSAT", "UNKNOWN"]


@pytest.mark.parametrize("blocked_len, status", [(3, SolverStatus.SAT), (2, SolverStatus.UNSAT)])
def test_run_sat_answers_with_a_sat_result_on_every_path(blocked_len, status):
    cnf = add_ap_blocking(build_cnf(Rect(4, 8)), blocked_len)
    engine = solve_clauses(cnf.num_vars, cnf.clauses)
    assert engine.status is status and engine.conflicts + engine.propagations > 0

    builtin = run_sat(cnf.num_vars, cnf.clauses, SearchConfig())
    assert isinstance(builtin, SatResult)
    assert builtin == engine  # the engine's own answer, counters included

    external = run_sat(cnf.num_vars, cnf.clauses, SearchConfig(solver_cmd=DIMACS_SOLVER))
    assert isinstance(external, SatResult)
    assert external == SatResult(status, engine.model)  # a command reports no counters

    config = SearchConfig(time_budget_s=1e-9)
    time.sleep(0.001)
    assert run_sat(cnf.num_vars, cnf.clauses, config) == SatResult(SolverStatus.UNKNOWN, None, 0, 0, 0)


@pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_time_budget_must_be_positive_and_finite(budget):
    with pytest.raises(ValueError, match="positive finite"):
        SearchConfig(time_budget_s=budget)
    assert SearchConfig(time_budget_s=0.5).time_budget_s == 0.5


def test_external_solver_contract_sat_and_unsat():
    config = SearchConfig(solver_cmd=DIMACS_SOLVER)
    sat_cnf = build_cnf(Rect(4, 4))
    result = solve(sat_cnf, config)
    assert result.forced is False
    assert result.method == "external"
    assert result.witness is not None and result.witness.rect == Rect(4, 4)

    unsat = solve(build_cnf(Rect(4, 6)), config)
    assert (unsat.forced, unsat.witness, unsat.method) == (True, None, "external")


def test_external_solver_not_found():
    config = SearchConfig(solver_cmd="definitely-not-a-solver-binary")
    with pytest.raises(SolverError):
        run_sat(2, [(1,), (2,)], config)


def test_env_var_configures_solver(monkeypatch):
    monkeypatch.setenv("TTR_SOLVER", DIMACS_SOLVER)
    assert SearchConfig().solver_cmd == DIMACS_SOLVER
    # the explicit flag wins over the environment
    assert SearchConfig(solver_cmd="other").solver_cmd == "other"
    result = solve(build_cnf(Rect(4, 4)), SearchConfig())
    assert result.method == "external"
    assert result.forced is False


def test_lying_external_solver_is_caught(tmp_path, monkeypatch):
    # A "solver" that claims SAT with an all-false model must fail re-verification.
    script = tmp_path / "liar.sh"
    lines = ["#!/bin/sh", 'echo "s SATISFIABLE"']
    cnf = add_ap_blocking(build_cnf(Rect(4, 8)), 3)
    lits = " ".join(str(-v) for v in range(1, cnf.num_vars + 1))
    lines.append(f'echo "v {lits} 0"')
    script.write_text("\n".join(lines) + "\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    with pytest.raises(SolverError, match="witness re-verification failed"):
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


def test_external_witness_rotation_reverified(tmp_path):
    # A solver that returns a valid tiling which meets the AP bound but is not its
    # own 180-degree rotation: replay the A/B strip against the rot180 CNF.
    cnf = add_rot180_symmetry(add_ap_blocking(build_cnf(Rect(4, 8)), 3))
    tiling = concatenate(["A", "B"])
    assert longest_ap(tiling).length < 3 and tiling != tiling.rotated_180()
    lits = " ".join(str(v if tile in tiling.tiles else -v) for v, tile in enumerate(cnf.tiles, start=1))
    script = tmp_path / "replay.sh"
    script.write_text(f'#!/bin/sh\necho "s SATISFIABLE"\necho "v {lits} 0"\n')
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    with pytest.raises(SolverError, match="^witness re-verification failed: not rotationally symmetric$"):
        solve(cnf, SearchConfig(solver_cmd=str(script)))


def test_timeout_kills_the_solver_commands_children(tmp_path, monkeypatch):
    # A wrapper script whose children outlive it unless the whole process group is killed.
    mark = tmp_path / "mark"
    monkeypatch.setenv("MARK", str(mark))
    script = tmp_path / "wrapper.sh"
    script.write_text('#!/bin/sh\n(sleep 0.5; touch "$MARK") &\nsleep 5\n')
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    config = SearchConfig(solver_cmd=str(script), time_budget_s=0.2)
    assert run_sat(2, [(1,), (2,)], config) == SatResult(SolverStatus.UNKNOWN)
    time.sleep(1.0)
    assert not mark.exists()


def test_external_wait_is_capped_and_the_cap_answers_unknown(tmp_path, monkeypatch):
    script = tmp_path / "slow.sh"
    script.write_text("#!/bin/sh\nsleep 5\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    monkeypatch.setattr(ttr.solver, "MAX_EXTERNAL_WAIT_S", 0.2)
    start = time.monotonic()
    config = SearchConfig(solver_cmd=str(script), time_budget_s=1e10)
    assert run_sat(2, [(1,), (2,)], config) == SatResult(SolverStatus.UNKNOWN)
    assert time.monotonic() - start < 4


QUESTIONS = {
    "tiling": ((4, 8, 3), lambda config: solve(add_ap_blocking(build_cnf(Rect(4, 8)), 3), config)),
    "coloring": ((3, 3, 3), lambda config: _forced_sat(3, 3, 3, config)),
}


@pytest.mark.parametrize("kind", QUESTIONS)
def test_both_question_kinds_answer_through_the_one_route(kind, monkeypatch):
    (h, w, l), ask = QUESTIONS[kind]
    status = SolverStatus.UNKNOWN

    def stub(num_vars, clauses, config):
        return SatResult(status, [False] * (num_vars + 1) if status is SolverStatus.SAT else None)

    monkeypatch.setattr(ttr.solver, "run_sat", stub)
    with pytest.raises(IndeterminateError) as exc:
        ask(SearchConfig())
    assert str(exc.value) == f"budget exhausted deciding ({h},{w}) -> {l}"

    status = SolverStatus.UNSAT
    for solver_cmd, method in [(None, "internal"), ("never-started", "external")]:
        result = ask(SearchConfig(solver_cmd=solver_cmd))
        assert (result.height, result.width, result.length) == (h, w, l)
        assert (result.forced, result.method, result.witness) == (True, method, None)

    status = SolverStatus.SAT  # an all-false model is no avoider of either kind
    with pytest.raises(SolverError) as exc:
        ask(SearchConfig())
    assert str(exc.value).startswith("witness re-verification failed: ")

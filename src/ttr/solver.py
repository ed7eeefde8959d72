"""Solver orchestration: external DIMACS commands or the internal CDCL engine.

The external contract is the SAT-competition one: the command receives a
DIMACS file path as its final argument and prints ``s SATISFIABLE`` /
``s UNSATISFIABLE`` plus ``v`` value lines.  Configure it with
``SearchConfig.solver_cmd``, the CLI ``--solver`` flag, or the ``TTR_SOLVER``
environment variable; otherwise the built-in CDCL solver is used.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from . import cdcl
from .errors import SolverError
from .aps import longest_ap
from .cnf import CNF, Clause, clauses_to_dimacs, decode_model
from .grid import Tiling

SOLVER_ENV_VAR = "TTR_SOLVER"

DEFAULT_INTERNAL_VAR_LIMIT = 5000


class SolverStatus(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


@dataclass
class SearchConfig:
    """Settings shared by the decision procedures; each one changes what runs.

    ``engine`` selects between the CNF/SAT pipeline and the exhaustive
    internal backtracker for decide-style questions.  ``solver_cmd`` (or the
    TTR_SOLVER environment variable) switches SAT solving to an external
    DIMACS command.  ``time_budget_s`` bounds each solver call, and
    ``internal_var_limit`` refuses instances too large for the built-in CDCL
    solver.  ``oracle_cross_check`` re-decides SAT answers with the
    enumerator on rectangles of at most ``enumerator.DEFAULT_ENUM_AREA``
    cells.
    """

    engine: str = "sat"  # "sat" or "internal-backtracking"
    solver_cmd: str | None = None
    time_budget_s: float | None = None
    internal_var_limit: int = DEFAULT_INTERNAL_VAR_LIMIT
    oracle_cross_check: bool = True

    def __post_init__(self):
        if self.engine not in ("sat", "internal-backtracking"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise ValueError("time budget must be positive")
        if self.internal_var_limit < 0:
            raise ValueError(f"internal variable limit must be >= 0, got {self.internal_var_limit}")

    def resolved_solver_cmd(self) -> str | None:
        return self.solver_cmd or os.environ.get(SOLVER_ENV_VAR) or None


@dataclass
class SolverVerdict:
    status: SolverStatus
    witness: Tiling | None = None
    engine: str = "internal"


def run_sat(
    num_vars: int,
    clauses: Sequence[Clause],
    config: SearchConfig | None = None,
) -> tuple[SolverStatus, list[bool] | None]:
    """Solve a raw CNF, dispatching to the configured backend."""
    config = config or SearchConfig()
    cmd = config.resolved_solver_cmd()
    if cmd:
        return _run_external(cmd, num_vars, clauses, config.time_budget_s)
    if num_vars > config.internal_var_limit:
        raise SolverError(
            f"no external solver configured and the instance has {num_vars} variables "
            f"(internal limit {config.internal_var_limit}); set --solver/{SOLVER_ENV_VAR} "
            f"or raise the limit"
        )
    result = cdcl.solve_clauses(num_vars, clauses, time_budget=config.time_budget_s)
    return SolverStatus(result.status), result.model


def solve(cnf: CNF, config: SearchConfig | None = None) -> SolverVerdict:
    """Solve a tiling CNF and re-verify any witness independently.

    A SAT witness is decoded and checked again from scratch: the tiling must
    validate, must beat the AP bound recorded on the CNF, and must equal its
    own 180-degree rotation when symmetry clauses were added.  UNSAT answers
    are taken on trust from the solver (no proof logging); the decision layer
    cross-checks them against the exhaustive enumerator at desk scale.
    """
    config = config or SearchConfig()
    engine = "external" if config.resolved_solver_cmd() else "internal"
    status, model = run_sat(cnf.num_vars, cnf.clauses, config)
    if status is not SolverStatus.SAT:
        return SolverVerdict(status, engine=engine)
    assert model is not None
    witness = decode_model(cnf, model)  # Tiling constructor re-validates
    if cnf.blocked_len is not None and longest_ap(witness).length >= cnf.blocked_len:
        raise SolverError(
            f"witness re-verification failed: contains an AP of length >= {cnf.blocked_len}"
        )
    if cnf.rot180 and witness != witness.rotated_180():
        raise SolverError("witness re-verification failed: not rotationally symmetric")
    return SolverVerdict(SolverStatus.SAT, witness=witness, engine=engine)


def _run_external(
    cmd: str,
    num_vars: int,
    clauses: Sequence[Clause],
    time_budget_s: float | None,
) -> tuple[SolverStatus, list[bool] | None]:
    dimacs = clauses_to_dimacs(num_vars, clauses)
    argv = shlex.split(cmd)
    with tempfile.TemporaryDirectory(prefix="ttr-sat-") as tmp:
        path = Path(tmp) / "instance.cnf"
        path.write_text(dimacs, encoding="utf-8")
        try:
            proc = subprocess.run(
                argv + [str(path)],
                capture_output=True,
                text=True,
                timeout=time_budget_s,
            )
        except FileNotFoundError:
            raise SolverError(f"solver command not found: {argv[0]!r}") from None
        except subprocess.TimeoutExpired:
            return SolverStatus.UNKNOWN, None
    return parse_solver_output(proc.stdout, num_vars)


def parse_solver_output(output: str, num_vars: int) -> tuple[SolverStatus, list[bool] | None]:
    """Parse SAT-competition style output (``s`` status line, ``v`` value lines)."""
    status: SolverStatus | None = None
    values: list[int] = []
    for line in output.splitlines():
        line = line.strip()
        if line.startswith("s "):
            word = line[2:].strip()
            if word == "SATISFIABLE":
                status = SolverStatus.SAT
            elif word == "UNSATISFIABLE":
                status = SolverStatus.UNSAT
            elif word == "UNKNOWN":
                status = SolverStatus.UNKNOWN
            else:
                raise SolverError(f"unrecognized status line {line!r}")
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                try:
                    values.append(int(tok))
                except ValueError:
                    raise SolverError(f"bad literal {tok!r} in value line") from None
    if status is None:
        raise SolverError("solver output contained no 's' status line")
    if status is not SolverStatus.SAT:
        return status, None
    model = [False] * (num_vars + 1)
    seen = set()
    for lit in values:
        if lit == 0:
            continue
        v = abs(lit)
        if v > num_vars:
            raise SolverError(f"solver asserted out-of-range variable {v}")
        model[v] = lit > 0
        seen.add(v)
    if len(seen) < num_vars:
        missing = num_vars - len(seen)
        raise SolverError(f"solver value lines left {missing} variables unassigned")
    return status, model

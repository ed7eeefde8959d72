"""Solver orchestration: external DIMACS commands or the internal CDCL engine.

The external contract is the SAT-competition one: the command receives a
DIMACS file path as its final argument and prints ``s SATISFIABLE`` /
``s UNSATISFIABLE`` plus ``v`` value lines.  Configure it with
``SearchConfig.solver_cmd``, the CLI ``--solver`` flag, or the ``TTR_SOLVER``
environment variable; otherwise the built-in CDCL solver is used.  Either
backend takes any instance size; ``SearchConfig.time_budget_s`` is the one
resource bound, a deadline for everything solved under that config.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from . import cdcl
from .cdcl import SatResult, SolverStatus
from .errors import IndeterminateError, LemmaViolationError, SolverError, TilingError
from .aps import longest_ap
from .cnf import CNF, Clause, clauses_to_dimacs, decode_model
from .grid import _is_decimal

SOLVER_ENV_VAR = "TTR_SOLVER"
#: The longest budgeted external-solver wait, in s: ``poll`` takes a C int of milliseconds.
MAX_EXTERNAL_WAIT_S = (2**31 - 1) // 1000
#: The words of an ``s`` status line.
_STATUS_WORDS = {
    "SATISFIABLE": SolverStatus.SAT,
    "UNSATISFIABLE": SolverStatus.UNSAT,
    "UNKNOWN": SolverStatus.UNKNOWN,
}


@dataclass
class SearchConfig:
    """Settings shared by the decision procedures; each one changes what runs.

    ``solver_cmd`` switches SAT solving to an external DIMACS command; when
    it is not given, the TTR_SOLVER environment variable is read once, when
    the config is built.  ``time_budget_s`` is a positive finite number of
    seconds, or None for no bound; it fixes one monotonic ``deadline`` when
    the config is built, and every question asked under the config shares it.
    """

    solver_cmd: str | None = None
    time_budget_s: float | None = None
    deadline: float | None = field(init=False, repr=False)

    def __post_init__(self):
        budget = self.time_budget_s
        if budget is not None and not 0 < budget < math.inf:
            raise ValueError(f"time budget must be a positive finite number of seconds, got {budget}")
        self.deadline = None if budget is None else time.monotonic() + budget
        self.solver_cmd = self.solver_cmd or os.environ.get(SOLVER_ENV_VAR) or None

    def remaining_s(self) -> float | None:
        """Seconds left before the deadline, 0 once it has passed; None without a budget."""
        return None if self.deadline is None else max(0.0, self.deadline - time.monotonic())


@dataclass
class ScanResult:
    """Exact value when pinned; otherwise the bracketing interval [lower, upper].

    ``witness`` is the certificate that the value is not larger, when the
    scan found one: the AP-free tiling or the avoiding coloring.
    """

    value: int | None
    lower: int
    upper: int | None
    witness: object | None = None

    @property
    def exact(self) -> bool:
        return self.value is not None


@dataclass
class DecideResult:
    """Answer to "does every h x w object force an l-term AP?", with certificate.

    ``witness`` is the avoider when not forced: an AP-free tiling for the
    tiling question, an avoiding coloring for the van der Waerden one.
    ``method`` names what answered: the SAT engine that :func:`decide_sat`
    ran ("internal" or "external") or a verified ``"hint"``; only the tests'
    oracle ``decide._decide_by_enumeration`` answers ``"enumeration"``.
    ``length`` is None only for a tiling CNF without AP blocking, where
    "forced" means no tiling exists.
    """

    height: int
    width: int
    length: int | None
    forced: bool
    method: str
    witness: object | None = None


def greatest_forced(lengths: range, decide: Callable[[int], DecideResult], config: SearchConfig) -> ScanResult:
    """Ascend ``lengths`` to the first avoidable l; the greatest forced length is l - 1.

    Every length below ``lengths.start`` must already be known forced, and
    the last length must be trivially avoidable: a tiling or coloring that
    avoids l-APs also avoids longer ones, so the first avoidable l pins the
    value, and its avoider is the result's witness.  The deadline is checked
    before each question; once it passes the result is the proven bracket [l - 1, inf).
    """
    for l in lengths:
        if config.remaining_s() == 0:
            return ScanResult(None, l - 1, None)
        try:
            result = decide(l)
        except IndeterminateError:
            return ScanResult(None, l - 1, None)
        if not result.forced:
            return ScanResult(l - 1, l - 1, l - 1, result.witness)
    raise LemmaViolationError(
        f"every length up to {result.length} is forced on {result.height}x{result.width}; impossible"
    )


def run_sat(
    num_vars: int,
    clauses: Sequence[Clause],
    config: SearchConfig | None = None,
) -> SatResult:
    """Solve a raw CNF on the configured backend, within the time left before the deadline.

    Once the deadline has passed the answer is UNKNOWN without solving.
    """
    config = config or SearchConfig()
    left = config.remaining_s()
    if left == 0:
        return SatResult(SolverStatus.UNKNOWN)
    if config.solver_cmd:
        return _run_external(config.solver_cmd, num_vars, clauses, left)
    return cdcl.solve_clauses(num_vars, clauses, time_budget=left)


def decide_sat(
    h: int, w: int, l: int | None, num_vars: int, clauses: Sequence[Clause],
    recheck: Callable[[list[bool]], tuple[object, str | None]], config: SearchConfig,
) -> DecideResult:
    """The one SAT route: UNSAT is forced, UNKNOWN raises :class:`IndeterminateError`.

    On SAT, ``recheck(model)`` decodes the witness, checks it again from
    scratch and returns ``(witness, reason)``; a reason raises :class:`SolverError`.
    """
    result = run_sat(num_vars, clauses, config)
    if result.status is SolverStatus.UNKNOWN:
        raise IndeterminateError(f"budget exhausted deciding ({h},{w}) -> {l}")
    method = "external" if config.solver_cmd else "internal"
    if result.status is SolverStatus.UNSAT:
        return DecideResult(h, w, l, forced=True, method=method)
    witness, reason = recheck(result.model)
    if reason is not None:
        raise SolverError(f"witness re-verification failed: {reason}")
    return DecideResult(h, w, l, forced=False, method=method, witness=witness)


def solve(cnf: CNF, config: SearchConfig | None = None) -> DecideResult:
    """Decide a tiling CNF on :func:`decide_sat`; UNSAT is forced.

    The decoded tiling must validate, beat the CNF's AP bound, and equal its
    180-degree rotation when symmetry clauses were added.
    """
    h, w, l = cnf.rect.height, cnf.rect.width, cnf.blocked_len

    def recheck(model: list[bool]) -> tuple[object, str | None]:
        try:
            witness = decode_model(cnf, model)  # Tiling constructor re-validates
        except TilingError as e:
            return None, str(e)
        if l is not None and longest_ap(witness).length >= l:
            return witness, f"contains an AP of length >= {l}"
        if cnf.rot180 and witness != witness.rotated_180():
            return witness, "not rotationally symmetric"
        return witness, None

    return decide_sat(h, w, l, cnf.num_vars, cnf.clauses, recheck, config or SearchConfig())


def _run_external(
    cmd: str,
    num_vars: int,
    clauses: Sequence[Clause],
    time_budget_s: float | None,
) -> SatResult:
    # Imported here, not at start-up: starting the process costs far more.
    import shlex
    import signal
    import subprocess
    import tempfile

    try:
        argv = shlex.split(cmd)
    except ValueError as e:
        raise SolverError(f"cannot parse solver command {cmd!r}: {e}") from None
    if not argv:
        raise SolverError(f"empty solver command {cmd!r}")
    dimacs = clauses_to_dimacs(num_vars, clauses)
    with tempfile.TemporaryDirectory(prefix="ttr-sat-") as tmp:
        path = Path(tmp) / "instance.cnf"
        path.write_text(dimacs, encoding="utf-8")
        try:
            proc = subprocess.Popen(
                argv + [str(path)],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                encoding="utf-8",
                errors="replace",  # a bad byte can only spoil a line the parser then rejects
                start_new_session=True,
            )
        except FileNotFoundError:
            raise SolverError(f"solver command not found: {argv[0]!r}") from None
        except OSError as e:
            raise SolverError(f"cannot start solver command {argv[0]!r}: {e.strerror or e}") from None
        with proc:
            try:
                wait = None if time_budget_s is None else min(time_budget_s, MAX_EXTERNAL_WAIT_S)
                output = proc.communicate(timeout=wait)[0]
            except subprocess.TimeoutExpired:
                return SatResult(SolverStatus.UNKNOWN)
            finally:  # the command's own children too, on a timeout or an interrupt
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
    return parse_solver_output(output, num_vars)


def parse_solver_output(output: str, num_vars: int) -> SatResult:
    """Parse SAT-competition style output (``s`` status line, ``v`` value lines).

    Status lines may repeat but must agree, the value lines may not
    assert a variable both ways, and nothing may follow the 0 that ends them.
    """
    status: SolverStatus | None = None
    values: list[int] = []
    ended = False
    for line in output.splitlines():
        line = line.strip()
        if line.startswith("s "):
            said = _STATUS_WORDS.get(line[2:].strip())
            if said is None:
                raise SolverError(f"unrecognized status line {line!r}")
            if status is not None and said is not status:
                raise SolverError(f"status line {line!r} contradicts an earlier {status.name} line")
            status = said
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                if ended:
                    raise SolverError(f"literal {tok!r} after the 0 that ends the value list")
                if not _is_decimal(tok.removeprefix("-")):
                    raise SolverError(f"bad literal {tok!r} in value line")
                lit = int(tok)
                if lit:
                    values.append(lit)
                else:
                    ended = True
    if status is None:
        raise SolverError("solver output contained no 's' status line")
    if status is not SolverStatus.SAT:
        return SatResult(status)
    model = [False] * (num_vars + 1)
    seen = set()
    for lit in values:
        v = abs(lit)
        if v > num_vars:
            raise SolverError(f"solver asserted out-of-range variable {v}")
        if v in seen and model[v] != (lit > 0):
            raise SolverError(f"solver asserted variable {v} both true and false")
        model[v] = lit > 0
        seen.add(v)
    if len(seen) < num_vars:
        missing = num_vars - len(seen)
        raise SolverError(f"solver value lines left {missing} variables unassigned")
    return SatResult(status, model)

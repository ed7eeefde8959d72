"""A self-contained CDCL SAT solver.

Conflict-driven clause learning with two watched literals, a binary-clause
fast path, VSIDS-style activities, phase saving, Luby restarts, and
LBD-based learnt-clause reduction.  Deterministic: identical inputs produce
identical runs and models.

Literals are encoded as ``2*v`` (positive) and ``2*v + 1`` (negative) for
variables ``v >= 1``; input literals must lie in ``1..num_vars`` in absolute
value.  Loading reads each clause through one encoding table indexed by the
DIMACS literal (a negative literal indexes from the end).  While nothing is
assigned yet, a clause of at least two distinct variables needs none of the
root-level simplification of ``_simplify`` and is stored and watched as
it is; units, repeated literals, tautologies and every clause after the
first unit take the general path.

Clauses are referenced, as in MiniSat (Een and Sorensson, "An extensible
SAT-solver", SAT 2003): a watch list, a binary-implication entry and
``reason[v]`` hold the clause's literal list itself, not an index into a
clause table.  A binary clause of the input is watched once however often
it repeats (in either literal order): a repeat's entries would come after
the first copy's in both lists, so they could never assign a literal or
report a conflict first.  Repeats still count among the stored clauses
(``stored``), which set the learnt-clause limit.

A clause of three or more literals has its two watched literals at
positions 0 and 1, in either order.  Propagation keeps a visited clause as
it is when the other watch is true, and orders the two (the other watch at
0, the false one at 1) only when it looks past the other watch; it tries
position 2 first and positions 3 on only when that literal is false.  Each
clause read in order was ordered on its last visit: a reason, which
propagation enqueues, and a conflict, which it returns.  Positions 2 on
change only when a literal trades places with the false watch.  So the
reasons, conflicts and learnt clauses are the lists a solver that ordered
every visited clause would build.

The decision heap keeps at most one current entry per variable.  An entry
``(-activity, v)`` is current while ``activity[v]`` still has that value.
``in_heap[v]`` is set when v's entry is pushed and cleared when that entry is
popped.  A bump only ever meets an assigned variable: it makes v's entry
stale and clears ``in_heap[v]``, and backtracking pushes v's current entry
when it frees v, as it does for every freed variable without one.  An
activity rescale makes the entry of every bumped variable stale and clears
all the flags.  A decision takes the least current entry of a free variable;
while a variable is free, both this heap and one that pushed a fresh entry
at every bump hold a current entry for it exactly when the other does, so
the decisions are the same too.

Learnt clauses live in one registry, ``learnts`` ((clause, LBD) pairs in
learning order).  ``_reduce_db``, the only place that frees a clause, drops
its entry and detaches it from every watch list in one sweep, keeping the
order of the live entries, so the lists hold exactly the live clauses and
propagation meets no dead one.

``solve_clauses`` pauses the cyclic garbage collector while it loads,
searches and checks the model: the solver's lists and tuples form no
cycles, so reference counting frees them as before, and the collector's
passes over the growing clause database are pure overhead.
"""

from __future__ import annotations

import gc
import time
from enum import Enum
from heapq import heappop, heappush
from itertools import repeat
from typing import NamedTuple, Sequence


class SolverStatus(str, Enum):
    """A SAT answer; each compares equal to its value string."""

    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


class SatResult(NamedTuple):
    """One SAT answer, from either backend; an external solver reports no counters."""

    status: SolverStatus
    model: list[bool] | None = None  # model[v] for v in 1..num_vars; model[0] unused
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0


def _luby(x: int) -> int:
    # Luby sequence 1,1,2,1,1,2,4,1,...
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class _Solver:
    def __init__(self, num_vars: int, clauses: Sequence[Sequence[int]]):
        self.nvars = num_vars
        n2 = 2 * num_vars + 2
        self.assign = [0] * n2  # per literal: 1 true, -1 false, 0 free
        self.level = [0] * (num_vars + 1)
        self.reason: list[list[int] | None] = [None] * (num_vars + 1)
        self.phase = [1] * (num_vars + 1)  # saved polarity bit; 1 -> try negative
        self.activity = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        self.heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, num_vars + 1)]
        self.in_heap = bytearray(b"\x01") * (num_vars + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.stored = 0  # input clauses stored, repeated binaries included
        self.learnts: list[tuple[list[int], int]] = []  # (clause, LBD), in learning order
        self.watches: list[list[list[int]]] = [[] for _ in range(n2)]
        self.binwatch: list[list[tuple[int, list[int]]]] = [[] for _ in range(n2)]
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        # enc[l] encodes DIMACS literal l; enc[-v] wraps around to the tail.
        enc = [0, *range(2, n2, 2), *range(n2 - 1, 2, -2)]
        get = enc.__getitem__
        trail = self.trail
        watches = self.watches
        binwatch = self.binwatch
        binary_keys: set[int] = set()  # a * n2 + b for each attached binary, a < b
        stored = 0
        for cl in clauses:
            n = len(cl)
            if n == 2 and not trail:
                a, b = cl
                if a != b and a != -b:
                    a = enc[a]
                    b = enc[b]
                    stored += 1
                    # Trigger when either literal becomes false; imply the other.  A
                    # repeat's entries would only ever follow these in both lists.
                    key = a * n2 + b if a < b else b * n2 + a
                    if key not in binary_keys:
                        binary_keys.add(key)
                        lits = [a, b]
                        binwatch[a].append((b, lits))
                        binwatch[b].append((a, lits))
                    continue
            elif n > 2 and not trail and len(set(map(abs, cl))) == n:
                lits = list(map(get, cl))
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
                stored += 1
                continue
            lits = self._simplify(list(map(get, cl)))
            if lits is None:
                continue
            if not lits:
                self.ok = False
                break
            if len(lits) == 1:
                self._enqueue(lits[0], None)
                continue
            stored += 1
            if len(lits) > 2:
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
                continue
            a, b = lits
            key = a * n2 + b if a < b else b * n2 + a
            if key not in binary_keys:
                binary_keys.add(key)
                binwatch[a].append((b, lits))
                binwatch[b].append((a, lits))
        self.stored = stored

    def _simplify(self, lits: list[int]) -> list[int] | None:
        """An input clause without its root-false and repeated literals; None when it
        is a tautology or already satisfied at the root."""
        out: list[int] = []
        seen = set()
        for l in lits:
            if l ^ 1 in seen:
                return None  # tautology
            if l in seen:
                continue
            if self.assign[l] > 0 and self.level[l >> 1] == 0:
                return None  # already satisfied at root
            if self.assign[l] < 0 and self.level[l >> 1] == 0:
                continue  # falsified at root; drop literal
            seen.add(l)
            out.append(l)
        return out

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        # Every caller passes a free literal: a simplified input unit, the asserting
        # literal after a backjump, or a decision.
        self.assign[lit] = 1
        self.assign[lit ^ 1] = -1
        v = lit >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        # ``_enqueue`` inlined: a literal is only enqueued here while free.
        assign = self.assign
        watches = self.watches
        binwatch = self.binwatch
        level = self.level
        reason = self.reason
        trail = self.trail
        lvl = len(self.trail_lim)
        qhead = start = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            fl = p ^ 1
            for q, cl in binwatch[fl]:
                a = assign[q]
                if a == 0:
                    assign[q] = 1
                    assign[q ^ 1] = -1
                    level[q >> 1] = lvl
                    reason[q >> 1] = cl
                    trail.append(q)
                elif a < 0:
                    self.qhead = qhead
                    self.propagations += qhead - start
                    return cl
            wl = watches[fl]
            if not wl:
                continue
            keep = watches[fl] = []
            it = iter(wl)
            for cl in it:
                first = cl[0]
                if first == fl:
                    first = cl[1]
                    if assign[first] > 0:
                        keep.append(cl)
                        continue
                    cl[0] = first
                    cl[1] = fl
                elif assign[first] > 0:
                    keep.append(cl)
                    continue
                # Every watched clause has a third literal; look past it only when it is false.
                lk = cl[2]
                if assign[lk] >= 0:
                    cl[1] = lk
                    cl[2] = fl
                    watches[lk].append(cl)
                    continue
                for k in range(3, len(cl)):
                    lk = cl[k]
                    if assign[lk] >= 0:
                        cl[1] = lk
                        cl[k] = fl
                        watches[lk].append(cl)
                        break
                else:
                    keep.append(cl)
                    if assign[first] < 0:
                        keep.extend(it)
                        self.qhead = qhead
                        self.propagations += qhead - start
                        return cl
                    assign[first] = 1
                    assign[first ^ 1] = -1
                    level[first >> 1] = lvl
                    reason[first >> 1] = cl
                    trail.append(first)
        self.qhead = qhead
        self.propagations += qhead - start
        return None

    def _analyze(self, cl: list[int]) -> tuple[list[int], int, int]:
        level = self.level
        trail = self.trail
        reason = self.reason
        activity = self.activity
        in_heap = self.in_heap
        var_inc = self.var_inc
        learnt: list[int] = [0]
        seen = bytearray(self.nvars + 1)
        counter = 0
        p = -1
        index = len(trail) - 1
        cur = len(self.trail_lim)
        while True:
            for q in cl:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    activity[v] += var_inc
                    if activity[v] > 1e100:
                        inv = 1e-100
                        for u in range(1, self.nvars + 1):
                            activity[u] *= inv
                        self.var_inc *= inv
                        var_inc = self.var_inc
                        # Every bumped variable's entry is stale now.
                        in_heap[:] = bytes(len(in_heap))
                    # v is assigned; ``_cancel_until`` pushes its current entry when it frees v.
                    in_heap[v] = 0
                    if level[v] == cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            v = p >> 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            cl = reason[v]
        learnt[0] = p ^ 1

        # Cheap minimization: drop literals whose reason is subsumed by the clause.
        marked = bytearray(self.nvars + 1)
        for q in learnt:
            marked[q >> 1] = 1
        keep = [learnt[0]]
        for q in learnt[1:]:
            rcl = reason[q >> 1]
            if rcl is None:
                keep.append(q)
                continue
            # q's own variable is marked, so marked[] alone covers it.
            for x in rcl:
                if not marked[x >> 1] and level[x >> 1] != 0:
                    keep.append(q)
                    break
        learnt = keep

        if len(learnt) == 1:
            bt = 0
        else:
            # Move the first highest-level tail literal to position 1.
            mi, bt = 1, level[learnt[1] >> 1]
            for i in range(2, len(learnt)):
                lv = level[learnt[i] >> 1]
                if lv > bt:
                    mi, bt = i, lv
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
        levels = {level[q >> 1] for q in learnt}
        return learnt, bt, len(levels)

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        trail = self.trail
        assign = self.assign
        phase = self.phase
        reason = self.reason
        activity = self.activity
        heap = self.heap
        in_heap = self.in_heap
        bound = self.trail_lim[lvl]
        for i in range(len(trail) - 1, bound - 1, -1):
            lit = trail[i]
            v = lit >> 1
            phase[v] = lit & 1
            assign[lit] = 0
            assign[lit ^ 1] = 0
            reason[v] = None
            if not in_heap[v]:
                heappush(heap, (-activity[v], v))
                in_heap[v] = 1
        del trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(trail)

    def _decide(self) -> bool:
        heap = self.heap
        assign = self.assign
        activity = self.activity
        in_heap = self.in_heap
        while heap:
            act, v = heappop(heap)
            if -act != activity[v]:
                continue  # stale: v has been bumped since
            in_heap[v] = 0
            if assign[2 * v] == 0:
                break
        else:
            v = next((u for u in range(1, self.nvars + 1) if assign[2 * u] == 0), 0)
            if not v:
                return False
        self.decisions += 1
        self.trail_lim.append(len(self.trail))
        self._enqueue(2 * v + self.phase[v], None)
        return True

    def _reduce_db(self) -> None:
        # Keep glue clauses and reasons; drop the worse half of the rest by (lbd,
        # length).  LBD > 3 means at least 4 distinct levels, so no candidate is
        # binary, and every dropped clause is detached from ``watches`` alone.
        reason = self.reason
        locked = {id(reason[lit >> 1]) for lit in self.trail}
        cand = [entry for entry in self.learnts if entry[1] > 3 and id(entry[0]) not in locked]
        cand.sort(key=lambda entry: (entry[1], len(entry[0])), reverse=True)
        # ``cand`` holds every dropped clause until the sweep ends, so no id is reused.
        dead = {id(cl) for cl, _ in cand[: len(cand) // 2]}
        self.learnts[:] = [entry for entry in self.learnts if id(entry[0]) not in dead]
        for wl in self.watches:
            if wl:
                wl[:] = [cl for cl in wl if id(cl) not in dead]

    def solve(self, time_budget: float | None, conflict_budget: int | None) -> SatResult:
        if not self.ok:
            return self._result(SolverStatus.UNSAT)
        deadline = None if time_budget is None else time.monotonic() + time_budget
        max_learnts = max(4000, self.stored // 3)
        restart_round = 0
        restart_budget = 100 * _luby(0)
        conflicts_at_restart = 0
        learnts = self.learnts
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                if not self.trail_lim:
                    return self._result(SolverStatus.UNSAT)
                learnt, bt, lbd = self._analyze(confl)
                self._cancel_until(bt)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    a, b = learnt[0], learnt[1]
                    if len(learnt) == 2:
                        self.binwatch[a].append((b, learnt))
                        self.binwatch[b].append((a, learnt))
                    else:
                        self.watches[a].append(learnt)
                        self.watches[b].append(learnt)
                    learnts.append((learnt, lbd))
                    self._enqueue(a, learnt)
                self.var_inc /= 0.95
                if (deadline is not None and time.monotonic() >= deadline) or (
                    conflict_budget is not None and self.conflicts >= conflict_budget
                ):
                    return self._result(SolverStatus.UNKNOWN)
                if self.conflicts - conflicts_at_restart >= restart_budget:
                    restart_round += 1
                    restart_budget = 100 * _luby(restart_round)
                    conflicts_at_restart = self.conflicts
                    self._cancel_until(0)
                if len(learnts) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.2)
            else:
                if not self._decide():
                    return self._result(SolverStatus.SAT, [False] + [a > 0 for a in self.assign[2::2]])

    def _result(self, status: SolverStatus, model: list[bool] | None = None) -> SatResult:
        return SatResult(status, model, self.conflicts, self.decisions, self.propagations)


def solve_clauses(
    num_vars: int,
    clauses: Sequence[Sequence[int]],
    *,
    time_budget: float | None = None,
    conflict_budget: int | None = None,
) -> SatResult:
    """Solve a CNF given as (num_vars, sequence of integer-literal clauses).

    Every literal is a nonzero integer of absolute value at most ``num_vars``
    (``cnf.parse_dimacs`` checks this for files).  A returned SAT model is
    checked against every clause before being handed back; UNSAT answers come
    from conflict analysis at decision level 0.  The search answers UNKNOWN
    after the first conflict at which ``time_budget`` seconds have passed
    (so 0 stops it at its first conflict) or the ``conflict_budget``-th
    conflict; None means no bound.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        solver = _Solver(num_vars, clauses)
        result = solver.solve(time_budget, conflict_budget)
        if result.status is SolverStatus.SAT:
            model = result.model
            assert model is not None
            # truth[l] for DIMACS literal l; truth[-v] wraps around to the tail.
            truth = model + [not x for x in reversed(model[1:])]
            is_true = truth.__getitem__
            if not all(map(any, map(map, repeat(is_true), clauses))):
                for cl in clauses:
                    if not any(map(is_true, cl)):
                        raise AssertionError(f"internal solver produced a bad model on clause {cl}")
    finally:
        if enabled:
            gc.enable()
    return result

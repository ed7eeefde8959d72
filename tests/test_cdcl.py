from __future__ import annotations

import gc
import hashlib
import itertools
import random
import threading
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import is_not, itemgetter, mul, ne, not_, or_, rshift

import pytest

import oracles
from ttr import cdcl
from ttr.cdcl import _luby, solve_clauses
from ttr.cnf import add_ap_blocking, add_rot180_symmetry, build_cnf
from ttr.grid import Rect
from ttr.vdw import _ap_candidates


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        model = (False,) + bits
        if all(any(model[l] if l > 0 else not model[-l] for l in cl) for cl in clauses):
            return True
    return False


def test_luby_prefix():
    assert [_luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_trivial_cases():
    assert solve_clauses(1, [(1,)]).status == "SAT"
    assert solve_clauses(1, [(1,), (-1,)]).status == "UNSAT"
    assert solve_clauses(2, []).status == "SAT"
    assert solve_clauses(2, [()]).status == "UNSAT"
    assert solve_clauses(2, [(1, -1), (2,)]).status == "SAT"  # tautology dropped


def test_unit_propagation_chain():
    clauses = [(1,), (-1, 2), (-2, 3), (-3, 4)]
    result = solve_clauses(4, clauses)
    assert result.status == "SAT"
    assert result.model[1:] == [True, True, True, True]


def test_pigeonhole_unsat():
    # 4 pigeons, 3 holes: var p*3+h+1 means pigeon p sits in hole h.
    clauses = []
    for p in range(4):
        clauses.append(tuple(p * 3 + h + 1 for h in range(3)))
    for h in range(3):
        for p1 in range(4):
            for p2 in range(p1 + 1, 4):
                clauses.append((-(p1 * 3 + h + 1), -(p2 * 3 + h + 1)))
    assert solve_clauses(12, clauses).status == "UNSAT"


def test_random_3sat_matches_brute_force():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(3, 10)
        m = rng.randint(2, 4 * n)
        clauses = []
        for _ in range(m):
            lits = rng.sample(range(1, n + 1), k=min(3, n))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in lits))
        got = solve_clauses(n, clauses)
        assert (got.status == "SAT") == brute_force_sat(n, clauses), clauses


def pigeonhole_7_6():
    # 7 pigeons, 6 holes: var p*6+h+1 means pigeon p sits in hole h.
    clauses = []
    for p in range(7):
        clauses.append(tuple(p * 6 + h + 1 for h in range(6)))
    for h in range(6):
        for p1 in range(7):
            for p2 in range(p1 + 1, 7):
                clauses.append((-(p1 * 6 + h + 1), -(p2 * 6 + h + 1)))
    return 42, clauses


def test_conflict_budget_yields_unknown():
    # A hard unsatisfiable instance cannot finish within one conflict.
    result = solve_clauses(*pigeonhole_7_6(), conflict_budget=1)
    assert result.status == "UNKNOWN"


def test_deterministic_reruns():
    rng = random.Random(3)
    n = 30
    clauses = []
    for _ in range(120):
        lits = rng.sample(range(1, n + 1), k=3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in lits))
    a = solve_clauses(n, clauses)
    b = solve_clauses(n, clauses)
    assert (a.status, a.conflicts, a.decisions, a.propagations, a.model) == (
        b.status, b.conflicts, b.decisions, b.propagations, b.model)


# --------------------------------------------------------------------------
# Golden trajectories.  Each tuple is (status, conflicts, decisions,
# propagations, SHA-1 of the model bits), recorded before the solver's inner
# loops were rewritten for speed: a faster solver must still make the same
# decisions, meet the same conflicts and return the same model.


def model_digest(model):
    if model is None:
        return None
    return hashlib.sha1("".join("1" if b else "0" for b in model[1:]).encode()).hexdigest()


def tiling_cnf(h, w, l, rot180=False):
    cnf = add_ap_blocking(build_cnf(Rect(h, w)), l)
    if rot180:
        cnf = add_rot180_symmetry(cnf)
    return cnf.num_vars, cnf.clauses


def vdw2d_cnf(h, w, l):
    # The clauses of ``vdw._forced_sat``: every candidate AP, blocked in both colours.
    clauses = []
    for cells in _ap_candidates(h, w, l):
        lits = [r * w + c + 1 for r, c in cells]
        clauses.append(tuple(-v for v in lits))
        clauses.append(tuple(lits))
    return h * w, clauses


def random_3sat(seed, n, m):
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        lits = rng.sample(range(1, n + 1), k=3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in lits))
    return n, clauses


def loader_mix(seed, planted):
    """Clauses that miss the loader's fast path: literals drawn with replacement
    give repeats and tautologies, and three units inserted at random places
    make later clauses meet literals already fixed at the root.  A planted mix
    keeps (nearly) every clause true under a hidden assignment, so it is
    satisfiable; the others are random and mostly unsatisfiable."""
    rng = random.Random(seed)
    n = rng.randint(30, 50)
    plant = [rng.random() < 0.5 for _ in range(n + 1)]
    leak = 0.02 if planted else 1.0
    clauses = []
    while len(clauses) < (6 if planted else 8) * n:
        cl = tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(3, 5)))
        if rng.random() < leak or any(plant[l] if l > 0 else not plant[-l] for l in cl):
            clauses.append(cl)
    for _ in range(3):
        v = rng.randint(1, n)
        clauses.insert(rng.randrange(len(clauses)), (v if plant[v] else -v,))
    return n, clauses


def with_empty_clause(num_vars, clauses):
    return num_vars, clauses[:5] + [()] + clauses[5:]


GOLDEN_TRAJECTORIES = [
    ("construct 12x20", lambda: tiling_cnf(12, 20, 3), None,
     ("SAT", 53, 114, 3005, "0aa56fab7352800361f0e477ba90d835219599ab")),
    ("construct 16x16", lambda: tiling_cnf(16, 16, 3), None,
     ("SAT", 11, 78, 592, "bb36ff8a360c82276c63f6dc7cd49bc11941790b")),
    ("construct 8x32", lambda: tiling_cnf(8, 32, 3), None,
     ("SAT", 42, 86, 2366, "d032f7df8992ba9f754b4571e41ad07633ad587d")),
    ("construct 20x20 rot180", lambda: tiling_cnf(20, 20, 3, rot180=True), None,
     ("SAT", 71, 156, 7837, "e4dcd1f683de3bd51defc27b7308d9a1b3acc6ae")),
    ("4x36 l=3", lambda: tiling_cnf(4, 36, 3), None, ("UNSAT", 12, 26, 501, None)),
    # The T(8, 3) scan's ceiling question.
    ("8x36 l=3", lambda: tiling_cnf(8, 36, 3), None, ("UNSAT", 68, 128, 3170, None)),
    ("24x24 l=3", lambda: tiling_cnf(24, 24, 3), None, ("UNSAT", 1817, 2527, 136796, None)),
    ("12x12 l=2", lambda: tiling_cnf(12, 12, 2), None, ("UNSAT", 2, 25, 35, None)),
    ("12x12 l=3", lambda: tiling_cnf(12, 12, 3), None,
     ("SAT", 8, 35, 396, "8af06ea7e52fa0d77555870a667c3072f5c06178")),
    ("vdw2d 8x8 l=3", lambda: vdw2d_cnf(8, 8, 3), None, ("UNSAT", 19, 18, 125, None)),
    ("vdw2d 8x8 l=4", lambda: vdw2d_cnf(8, 8, 4), None,
     ("SAT", 45, 69, 658, "49c584032be4e26f6086171d18ee3a13c54af74c")),
    # Runs past the first learnt-clause reduction, at conflict 4,001.
    ("vdw2d 16x16 l=4", lambda: vdw2d_cnf(16, 16, 4), 5000, ("UNKNOWN", 5000, 5842, 86539, None)),
    # Runs past two learnt-clause reductions, at conflicts 4,001 and 6,800,
    # and the activity rescale at conflict 4,436.
    ("vdw2d 21x21 l=5", lambda: vdw2d_cnf(21, 21, 5), 7000, ("UNKNOWN", 7000, 9842, 286663, None)),
    ("loader mix 0", lambda: loader_mix(0, True), None,
     ("SAT", 0, 9, 42, "686ebeec560a6cbc7a78ee855a1d5cdee164829a")),
    ("loader mix 1", lambda: loader_mix(1, False), None, ("UNSAT", 11, 10, 110, None)),
    ("loader mix 2", lambda: loader_mix(2, True), None,
     ("SAT", 10, 19, 148, "3575de9f0c0becd1a19e8cdd5d9399b7d6a4c126")),
    ("loader mix 3", lambda: loader_mix(3, False), None, ("UNSAT", 9, 14, 100, None)),
    ("loader mix 4", lambda: loader_mix(4, True), None,
     ("SAT", 5, 14, 92, "eac29c182f1a836f70294d8e2bcd2b35b1bfb7b5")),
    ("loader mix 5", lambda: loader_mix(5, False), None, ("UNSAT", 42, 45, 490, None)),
    ("loader mix with empty clause", lambda: with_empty_clause(*loader_mix(0, True)), None,
     ("UNSAT", 0, 0, 0, None)),
    # Runs past the activity rescale near conflict 4,490.
    ("3-SAT n=200 m=852 seed 1", lambda: random_3sat(1, 200, 852), 5000,
     ("UNKNOWN", 5000, 6122, 193241, None)),
]


@pytest.mark.parametrize("make, conflict_budget, expected", [case[1:] for case in GOLDEN_TRAJECTORIES],
                         ids=[case[0] for case in GOLDEN_TRAJECTORIES])
def test_golden_trajectory(make, conflict_budget, expected):
    r = solve_clauses(*make(), conflict_budget=conflict_budget)
    assert (r.status, r.conflicts, r.decisions, r.propagations, model_digest(r.model)) == expected


def random_3sat_with_repeated_binaries(seed, n, m, binaries, repeats):
    """Random 3-SAT with binary clauses inserted at random places, then
    repeats of those binaries inserted the same way, about half of them with
    their two literals swapped."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        lits = rng.sample(range(1, n + 1), k=3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in lits))
    bins = []
    for _ in range(binaries):
        a, b = rng.sample(range(1, n + 1), k=2)
        bins.append((a if rng.random() < 0.5 else -a, b if rng.random() < 0.5 else -b))
    for cl in bins:
        clauses.insert(rng.randrange(len(clauses) + 1), cl)
    for _ in range(repeats):
        a, b = rng.choice(bins)
        clauses.insert(rng.randrange(len(clauses) + 1), (b, a) if rng.random() < 0.5 else (a, b))
    return n, clauses


# Runs that pass learnt-clause reductions, each checked against its watch
# invariant as well as its trajectory.  The first two are goldens above; the
# third, recorded before the solver watched repeated binaries once and
# detached reduced clauses, is the only one with binary clauses (repeats among
# them) in a run that reaches a reduction (at conflicts 4,001 and 6,726).
REDUCTION_TRAJECTORIES = [
    ("vdw2d 16x16 l=4", lambda: vdw2d_cnf(16, 16, 4), 5000, ("UNKNOWN", 5000, 5842, 86539, None), 1),
    ("vdw2d 21x21 l=5", lambda: vdw2d_cnf(21, 21, 5), 7000, ("UNKNOWN", 7000, 9842, 286663, None), 2),
    ("3-SAT n=250 m=1000 with 30 binaries and 30 repeats, seed 1",
     lambda: random_3sat_with_repeated_binaries(1, 250, 1000, 30, 30), 9000,
     ("UNKNOWN", 9000, 11013, 408003, None), 2),
]


@pytest.mark.parametrize("make, conflict_budget, expected, reductions",
                         [case[1:] for case in REDUCTION_TRAJECTORIES],
                         ids=[case[0] for case in REDUCTION_TRAJECTORIES])
def test_reductions_keep_the_watch_invariant(make, conflict_budget, expected, reductions, monkeypatch):
    dropped = []
    real_reduce = cdcl._Solver._reduce_db

    def reduce_db(self):
        before = list(self.learnts)
        real_reduce(self)
        kept = {id(cl) for cl, _ in self.learnts}
        dropped.append([cl for cl, _ in before if id(cl) not in kept])

    monkeypatch.setattr(cdcl._Solver, "_reduce_db", reduce_db)
    solver = cdcl._Solver(*make())
    r = solver.solve(None, conflict_budget)
    assert (r.status, r.conflicts, r.decisions, r.propagations, model_digest(r.model)) == expected
    assert len(dropped) == reductions and all(dropped)
    oracles.watch_invariant(solver, [cl for batch in dropped for cl in batch])


def test_watch_invariant_catches_a_reduced_clause_left_watched():
    solver = cdcl._Solver(*vdw2d_cnf(16, 16, 4))
    solver.solve(None, 300)
    learnt = next(cl for cl, _ in solver.learnts if len(cl) >= 3)
    with pytest.raises(AssertionError, match="reduced clause is still watched"):
        oracles.watch_invariant(solver, [learnt])


def without_repeated_binaries(num_vars, clauses):
    seen = set()
    kept = []
    for cl in clauses:
        if len(cl) == 2:
            key = frozenset(cl)
            if key in seen:
                continue
            seen.add(key)
        kept.append(cl)
    return num_vars, kept


@pytest.mark.parametrize("make", [
    lambda: tiling_cnf(12, 20, 3),
    lambda: tiling_cnf(16, 16, 3),
    lambda: tiling_cnf(8, 32, 3),
    lambda: tiling_cnf(20, 20, 3, rot180=True),
    lambda: tiling_cnf(4, 36, 3),
    lambda: tiling_cnf(8, 36, 3),
    lambda: tiling_cnf(12, 12, 2),
    lambda: tiling_cnf(12, 12, 3),
    lambda: tiling_cnf(24, 24, 3),
], ids=["construct 12x20", "construct 16x16", "construct 8x32", "construct 20x20 rot180",
        "scan 4x36 l=3", "scan 8x36 l=3", "scan 12x12 l=2", "scan 12x12 l=3", "24x24 l=3"])
def test_repeated_binaries_change_nothing(make):
    # ``build_cnf`` repeats an at-most-one pair once per shared cell.  These
    # CNFs stay under the 12,000 clauses where dropping the repeats would move
    # the learnt-clause limit, so the search must be the same without them.
    num_vars, clauses = make()
    pruned = without_repeated_binaries(num_vars, clauses)[1]
    assert len(pruned) < len(clauses) < 12000
    a = solve_clauses(num_vars, clauses)
    b = solve_clauses(num_vars, pruned)
    assert (a.status, a.conflicts, a.decisions, a.propagations, a.model) == (
        b.status, b.conflicts, b.decisions, b.propagations, b.model)


def test_repeated_binary_is_watched_once():
    solver = cdcl._Solver(3, [(1, 2), (2, 1), (-1, 3), (1, 2), (3, -1)])
    assert solver.stored == 5
    oracles.watch_invariant(solver)
    assert sum(map(len, solver.binwatch)) == 4


# --------------------------------------------------------------------------
# The same search, step by step: the solver and a copy whose ``_propagate`` is
# the frozen ``oracles.propagate`` run in lockstep, each in its own thread, and
# both pause after every propagate call while their states are compared.


def same_watches(wa, wb):
    """Equal watch lists, up to the order of each clause's two watched literals:
    the lazy swap leaves them in either order, and positions 2 on are fixed."""
    if len(wa) != len(wb):
        return False
    differ = list(map(ne, wa, wb))
    wa, wb = list(compress(wa, differ)), list(compress(wb, differ))
    tail = itemgetter(slice(2, None))
    return list(map(itemgetter(1, 0), wa)) == list(map(itemgetter(0, 1), wb)) and list(map(tail, wa)) == list(map(tail, wb))


class _Side:
    def __init__(self, solver, propagate):
        self.solver = solver
        self.event = None  # ("propagate", conflict clause) or ("done", result), posted at each pause
        self.error = None
        self._propagate = propagate
        self._reduce_db = solver._reduce_db
        solver._propagate = self.propagate
        solver._reduce_db = self.reduce_db
        self.mark()

    def mark(self):
        self.lists = list(self.solver.watches)
        self.lengths = list(map(len, self.solver.watches))
        self.reduced = False

    def changes(self):
        """(literals, starts): the watch lists whose entries from ``start`` on may
        have changed since ``mark``.  After a reduction, which filters every
        list in place, that is every whole list; otherwise each list rebuilt
        (every visited one) whole, and the entries appended to the others
        (moved watches and attached learnt clauses).  A clause changes only
        while propagation visits it, and every clause it visits ends the call
        in one of these."""
        watches = self.solver.watches
        if self.reduced:
            return list(range(len(watches))), [0] * len(watches)
        rebuilt = list(map(is_not, watches, self.lists))
        changed = list(map(or_, rebuilt, map(ne, map(len, watches), self.lengths)))
        starts = map(mul, map(not_, rebuilt), self.lengths)
        return list(compress(range(len(watches)), changed)), list(compress(starts, changed))

    def entries(self, literals, starts):
        """The entries of each listed watch list from its start on, concatenated."""
        lists = map(self.solver.watches.__getitem__, literals)
        return list(chain.from_iterable(map(islice, lists, starts, repeat(None))))

    def propagate(self):
        confl = self._propagate()
        self.pause(("propagate", confl))
        return confl

    def reduce_db(self):
        self._reduce_db()
        self.reduced = True

    def pause(self, event):
        self.event = event
        self.barrier.wait()

    def run(self, conflict_budget):
        try:
            result = self.solver.solve(None, conflict_budget)
            self.pause(("done", (result.status, result.conflicts, result.decisions,
                                 result.propagations, result.model)))
        except threading.BrokenBarrierError:
            pass  # the other side failed or stopped at a different point
        except Exception as exc:  # raised again by ``run_in_lockstep``
            self.error = exc
            self.barrier.abort()


def run_in_lockstep(num_vars, clauses, conflict_budget=None):
    """Solve with the solver and with the frozen propagation side by side.

    After every propagate call both must hold the same trail, return the same
    conflict clause, give every assigned variable the same reason clause, and
    hold the same watched clauses as ``cl[2:]`` and ``{cl[0], cl[1]}``; then
    both must stop with the same result.  Returns (result, propagate calls)."""
    a = cdcl._Solver(num_vars, clauses)
    b = cdcl._Solver(num_vars, clauses)
    new = _Side(a, a._propagate)
    old = _Side(b, partial(oracles.propagate, b))
    calls = 0

    def compare():
        nonlocal calls
        what = "the results" if new.event[0] == "done" else f"call {calls + 1}"
        assert new.event[0] == old.event[0], f"{what}: one side stopped, the other propagated"
        assert new.event[1] == old.event[1], f"{what}: different values returned"
        if new.event[0] == "propagate":
            calls += 1
            assert a.trail == b.trail, f"{what}: the trails differ"
            variables = list(map(rshift, a.trail, repeat(1)))
            assert list(map(a.reason.__getitem__, variables)) == list(map(b.reason.__getitem__, variables)), (
                f"{what}: the reasons differ")
            changes = new.changes()
            assert changes == old.changes(), f"{what}: different watch lists changed"
            assert list(map(len, a.watches)) == list(map(len, b.watches)), f"{what}: watch list lengths differ"
            assert same_watches(new.entries(*changes), old.entries(*changes)), f"{what}: watched clauses differ"
            new.mark()
            old.mark()

    new.barrier = old.barrier = barrier = threading.Barrier(2, action=compare, timeout=120)
    threads = [threading.Thread(target=side.run, args=(conflict_budget,)) for side in (new, old)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
        assert not t.is_alive(), "a side is still running"
    for side in (new, old):
        if side.error is not None:
            raise side.error
    assert not barrier.broken, "a side stopped waiting for the other"
    return new.event[1], calls


LOCKSTEP_CASES = ["construct 12x20", "construct 16x16", "construct 8x32", "construct 20x20 rot180", "8x36 l=3",
                  "vdw2d 8x8 l=4", *[f"loader mix {seed}" for seed in range(6)], "loader mix with empty clause",
                  "3-SAT n=250 m=1000 with 30 binaries and 30 repeats, seed 1"]


@pytest.mark.parametrize("name", LOCKSTEP_CASES)
def test_same_search_as_the_frozen_propagation(name):
    make, conflict_budget, expected = {case[0]: case[1:4] for case in GOLDEN_TRAJECTORIES + REDUCTION_TRAJECTORIES}[name]
    (status, conflicts, decisions, propagations, model), calls = run_in_lockstep(*make(), conflict_budget)
    assert (status, conflicts, decisions, propagations, model_digest(model)) == expected
    assert calls >= conflicts


def test_lockstep_catches_a_reordered_clause_tail(monkeypatch):
    # Swapping cl[2] and cl[3] of one clause the call visited changes nothing
    # that call returns, only the order later watch moves will read.
    def propagate_then_reorder(solver):
        confl = oracles.propagate(solver)
        if solver.qhead:
            for cl in solver.watches[solver.trail[solver.qhead - 1] ^ 1]:
                if len(cl) > 3:
                    cl[2], cl[3] = cl[3], cl[2]
                    break
        return confl

    monkeypatch.setattr(cdcl._Solver, "_propagate", propagate_then_reorder)
    with pytest.raises(AssertionError, match=r"call \d+: watched clauses differ"):
        run_in_lockstep(*tiling_cnf(12, 20, 3))


def test_zero_time_budget_stops_at_the_first_conflict():
    result = solve_clauses(*pigeonhole_7_6(), time_budget=0)
    assert (result.status, result.conflicts) == ("UNKNOWN", 1)


# --------------------------------------------------------------------------
# The model check in ``solve_clauses`` is an independent check: a solver that
# returns a wrong model must be caught, and the first falsified clause named.


def flip_one_variable(monkeypatch, var):
    real_solve = cdcl._Solver.solve

    def solve(self, time_budget, conflict_budget):
        result = real_solve(self, time_budget, conflict_budget)
        result.model[var] = not result.model[var]
        return result

    monkeypatch.setattr(cdcl._Solver, "solve", solve)


def test_model_check_names_first_falsified_clause(monkeypatch):
    flip_one_variable(monkeypatch, 2)
    with pytest.raises(AssertionError) as exc:
        solve_clauses(4, [(1,), (-1, 2), (-2, 3), (-3, 4)])
    assert str(exc.value) == "internal solver produced a bad model on clause (-1, 2)"


def test_model_check_catches_a_flip_in_a_tiling_model(monkeypatch):
    num_vars, clauses = tiling_cnf(12, 20, 3)
    model = solve_clauses(num_vars, clauses).model
    var = model.index(True, 1)
    model[var] = False
    first_bad = next(cl for cl in clauses if not any(model[l] if l > 0 else not model[-l] for l in cl))
    flip_one_variable(monkeypatch, var)
    with pytest.raises(AssertionError) as exc:
        solve_clauses(num_vars, clauses)
    assert str(exc.value) == f"internal solver produced a bad model on clause {first_bad}"


# --------------------------------------------------------------------------
# ``solve_clauses`` pauses the cyclic garbage collector and must hand the
# caller's setting back however it returns.


@pytest.fixture(params=[True, False], ids=["gc enabled", "gc disabled"])
def collector_state(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was else gc.disable)()


def test_collector_paused_while_solving_and_restored(collector_state, monkeypatch):
    seen = []
    real_solve = cdcl._Solver.solve

    def solve(self, time_budget, conflict_budget):
        seen.append(gc.isenabled())
        return real_solve(self, time_budget, conflict_budget)

    monkeypatch.setattr(cdcl._Solver, "solve", solve)
    assert solve_clauses(4, [(1,), (-1, 2), (-2, 3), (-3, 4)]).status == "SAT"
    assert solve_clauses(12, [(1,), (-1,)]).status == "UNSAT"
    assert seen == [False, False]
    assert gc.isenabled() is collector_state


def test_collector_restored_when_the_search_raises(collector_state, monkeypatch):
    def solve(self, time_budget, conflict_budget):
        raise RuntimeError("search failed")

    monkeypatch.setattr(cdcl._Solver, "solve", solve)
    with pytest.raises(RuntimeError, match="search failed"):
        solve_clauses(2, [(1, 2)])
    assert gc.isenabled() is collector_state


def test_collector_restored_when_the_model_check_raises(collector_state, monkeypatch):
    flip_one_variable(monkeypatch, 2)
    with pytest.raises(AssertionError, match="bad model"):
        solve_clauses(4, [(1,), (-1, 2), (-2, 3), (-3, 4)])
    assert gc.isenabled() is collector_state

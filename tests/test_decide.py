from __future__ import annotations

import hashlib
import sys
import time

import pytest

import ttr.decide
import ttr.vdw
from ttr.cli import main

from ttr.errors import IndeterminateError, LemmaViolationError
from ttr.grid import Rect, write_tiling
from ttr.aps import longest_ap
from ttr.decide import MAX_T_SCAN, compute_L, compute_T, decide_forces, _decide_by_enumeration
from ttr.cnf import add_ap_blocking, build_cnf
from ttr.solver import DecideResult, ScanResult, SearchConfig, solve
from ttr.vdw import GridColoring, extremal_coloring, vdw_number
from ttr.width4 import stack_rows


def test_forced_at_width4_length36():
    assert decide_forces(4, 36, 3).forced is True


def test_avoidable_at_width4_length32():
    result = decide_forces(4, 32, 3)
    assert result.forced is False
    assert result.witness is not None
    assert longest_ap(result.witness).length < 3


def test_small_pair_decisions_cross_checked():
    # decide_forces answers these from the SAT route alone; the tests below
    # compare that route with the enumeration oracle.
    assert decide_forces(4, 8, 2).forced is True
    assert decide_forces(4, 4, 2).forced is False
    assert decide_forces(4, 12, 2).forced is True
    assert decide_forces(8, 8, 3).forced is False


def test_engines_agree_without_builtin_cross_check():
    # The SAT route alone, called without decide_forces, against the enumeration oracle.
    for h, w, l in [(4, 8, 2), (4, 12, 3), (8, 8, 2), (4, 16, 3)]:
        sat_forced = solve(add_ap_blocking(build_cnf(Rect(h, w)), l)).forced
        assert sat_forced == _decide_by_enumeration(h, w, l).forced


def test_oracle_agreement_every_rect_up_to_96_cells():
    # The SAT route alone against the enumeration oracle, with no help from
    # decide_forces: every tileable rectangle of at most 96 cells, every l
    # from 2 up to one more than its number of tiles (trivially avoidable).
    questions = 0
    for h in range(4, 25, 4):
        for w in range(4, 25, 4):
            if h * w > 96:
                continue
            for l in range(2, h * w // 4 + 2):
                sat_forced = solve(add_ap_blocking(build_cnf(Rect(h, w)), l)).forced
                assert sat_forced == _decide_by_enumeration(h, w, l).forced, (h, w, l)
                questions += 1
    assert questions == 228


#: SHA-256 of the oracle's answers on every tileable rectangle of at most 96
#: cells, l = 2..5: per question ``"{h}x{w} l={l} forced={forced}\n"``, then
#: the TTILING text of the witness when there is one.  Taken while the oracle
#: was still a pruned search of its own.
ORACLE_SHA256 = "e7b470020f24c988fc1563353a12fbbed2cd3e14757d304b87412a665d8da9fd"


def test_oracle_answers_and_witnesses_pinned():
    sha = hashlib.sha256()
    questions = forced = 0
    for h in range(4, 25, 4):
        for w in range(4, 25, 4):
            if h * w > 96:
                continue
            for l in range(2, 6):
                result = _decide_by_enumeration(h, w, l)
                sha.update(f"{h}x{w} l={l} forced={result.forced}\n".encode())
                if result.witness is not None:
                    assert result.method == "enumeration"
                    sha.update(write_tiling(result.witness).encode())
                questions += 1
                forced += result.forced
    assert (questions, forced) == (56, 13)
    assert sha.hexdigest() == ORACLE_SHA256


def test_determinism_of_witnesses():
    a = decide_forces(4, 32, 3)
    b = decide_forces(4, 32, 3)
    assert a.witness == b.witness
    assert a.forced == b.forced


def test_answers_run_no_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration on an answer path")

    monkeypatch.setattr(ttr.decide, "_decide_by_enumeration", refuse)
    monkeypatch.setattr(ttr.decide, "enumerate_tilings", refuse)
    assert decide_forces(4, 8, 2).forced is True
    assert decide_forces(8, 8, 3).forced is False
    assert compute_L(4, 24).value == 2


def test_witness_hint_short_circuits():
    hint = stack_rows(extremal_coloring(3), 2)
    result = decide_forces(8, 32, 3, witness_hint=hint)
    assert result.forced is False
    assert result.method == "hint"
    assert result.witness is hint


def test_bad_witness_hint_falls_through():
    bad = stack_rows(GridColoring(((0,) * 8,)), 2)  # full of APs
    result = decide_forces(8, 32, 3, witness_hint=bad)
    assert result.method == "internal"
    assert result.forced is False


@pytest.mark.parametrize("solver, engine", [(None, "internal"), (f"{sys.executable} -m ttr.dimacs", "external")])
def test_answers_name_their_engine(solver, engine):
    config = SearchConfig(solver_cmd=solver)
    forced = decide_forces(4, 8, 2, config)
    avoidable = decide_forces(4, 16, 3, config)
    assert (forced.forced, forced.method) == (True, engine)
    assert (avoidable.forced, avoidable.method) == (False, engine)
    assert longest_ap(avoidable.witness).length < 3


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        decide_forces(4, 6, 3)
    with pytest.raises(ValueError):
        decide_forces(4, 8, 1)
    with pytest.raises(ValueError):
        decide_forces(8, 32, 3, witness_hint=stack_rows(GridColoring(((0, 1),)), 2))


@pytest.mark.parametrize("scan, message", [
    (lambda: compute_T(6, 3), "width must be a multiple of 4, got 6"),
    (lambda: compute_L(4, 6), "sides must be multiples of 4, got 4x6"),
    (lambda: compute_L(10, 8), "sides must be multiples of 4, got 10x8"),
], ids=["T", "L-width", "L-height"])
def test_scans_reject_sides_off_a_multiple_of_four(scan, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        scan()


def test_budget_exhaustion_is_explicit():
    config = SearchConfig(time_budget_s=1e-9)
    with pytest.raises(IndeterminateError):
        decide_forces(20, 20, 3, config)


def test_scans_with_a_spent_budget_encode_nothing(monkeypatch):
    encoded = []

    def counting(encode):
        def wrapper(*args):
            encoded.append(encode.__name__)
            return encode(*args)
        return wrapper

    monkeypatch.setattr(ttr.decide, "build_cnf", counting(ttr.decide.build_cnf))
    monkeypatch.setattr(ttr.vdw, "_ap_candidates", counting(ttr.vdw._ap_candidates))
    spent = SearchConfig(time_budget_s=1e-9)
    assert compute_L(48, 48, spent) == ScanResult(None, 2, None)
    assert ttr.vdw.compute_Lvdw(24, 24, spent) == ScanResult(None, 2, None)
    assert compute_T(16, 3, spent) == ScanResult(None, 4, 36)
    assert encoded == []


def test_compute_T_small_values():
    assert compute_T(4, 2).value == 8
    assert compute_T(4, 3).value == 36


def test_compute_T_monotone_tail():
    # Once forced, larger lengths stay forced for the widths with the ceiling.
    for n in (36, 40):
        assert decide_forces(4, n, 3).forced is True


def test_compute_L_values():
    assert compute_L(4, 4).value == 1
    assert compute_L(4, 8).value == 2
    assert compute_L(8, 8).value == 2


def test_width4_monotonicity_in_length():
    config = SearchConfig()
    values = [compute_L(4, w, config).value for w in range(4, 24, 4)]
    assert values == sorted(values)


def test_width8_monotonicity_in_length():
    config = SearchConfig()
    values = [compute_L(8, w, config).value for w in range(4, 24, 4)]
    assert values == sorted(values)


def test_theorem_equality_at_width_8():
    # The width-8 threshold equals four times the two-color van der Waerden
    # number, computed end to end through the scan.
    assert compute_T(8, 3).value == 4 * vdw_number(3)


@pytest.mark.parametrize("w", [4, 8])
def test_hint_free_ascent_first_forces_at_36(w):
    # The solver route alone, question by question, as the T scan ran before
    # it answered below the ceiling from the stacked strip.
    assert [n for n in range(4, 37, 4) if decide_forces(w, n, 3).forced] == [36]


def _record_calls(monkeypatch, name: str) -> list[tuple]:
    """Wrap ``ttr.decide.<name>``; the returned list collects each call's arguments."""
    calls: list[tuple] = []
    real = getattr(ttr.decide, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ttr.decide, name, recorded)
    return calls


@pytest.mark.parametrize("w, l", [(8, 3), (12, 4)])
def test_t_scan_solves_only_the_ceiling(monkeypatch, w, l):
    solved = _record_calls(monkeypatch, "solve")
    ceiling = 4 * vdw_number(l)
    assert compute_T(w, l).value == ceiling
    assert [(cnf.rect.height, cnf.rect.width) for cnf, _config in solved] == [(w, ceiling)]


def test_t_scan_builds_no_hint_once_the_stack_has_an_l_ap(monkeypatch):
    # Three stacked strips hold the vertical 3-term AP {(r + 4j, c)}.
    stacked = _record_calls(monkeypatch, "stack_rows")
    assert compute_T(12, 3).value == 36
    assert stacked == []


def test_t_scan_falls_back_to_the_solver_on_a_bad_hint(monkeypatch):
    # The stand-in stacks all-A strips.  On 8x4 and 8x8 no tiling has a 3-term
    # AP, so those two hints pass; from 8x12 on each one fails its check.
    monkeypatch.setattr(ttr.decide, "stack_rows",
                        lambda coloring, k: stack_rows(GridColoring(((0,) * coloring.width,)), k))
    solved = _record_calls(monkeypatch, "solve")
    assert compute_T(8, 3).value == 36
    assert [cnf.rect.width for cnf, _config in solved] == list(range(12, 37, 4))


def test_t_scan_checks_the_deadline_before_each_hint(monkeypatch):
    stacked = _record_calls(monkeypatch, "stack_rows")
    config = SearchConfig(time_budget_s=1.0)
    config.deadline = time.monotonic() - 1.0
    assert compute_T(8, 3, config) == ScanResult(None, 4, 36)
    assert stacked == []


@pytest.mark.parametrize("before, want", [(0, ScanResult(140, 140, 140)), (4, ScanResult(None, 136, 140))])
def test_t_scan_out_of_time_at_the_ceiling_pins_it(monkeypatch, capsys, before, want):
    # Every length below the question that runs out of time has been shown
    # avoidable; at the ceiling, which is forced, that pins T(4, 4) = 140.
    real = ttr.decide.decide_forces

    def out_of_time(w, n, l, config, witness_hint=None):
        if n == 140 - before:
            raise IndeterminateError(f"no answer at N = {n}")
        return real(w, n, l, config, witness_hint=witness_hint)

    monkeypatch.setattr(ttr.decide, "decide_forces", out_of_time)
    assert compute_T(4, 4) == want
    assert main(["tvalue", "--width", "4", "--len", "4"]) == (0 if want.exact else 4)
    assert capsys.readouterr().out == ("140\n" if want.exact else "UNKNOWN T in [136, 140]\n")


@pytest.mark.parametrize("l", [3, 4])
def test_stacked_prefixes_of_the_extremal_coloring(l):
    colors = extremal_coloring(l).rows[0]
    for n in range(1, len(colors) + 1):
        prefix = GridColoring((colors[:n],))
        for k in range(1, l):
            assert longest_ap(stack_rows(prefix, k)).length < l, (n, k)
        assert longest_ap(stack_rows(prefix, l)).length >= l, n


def every_question(forced):
    """A ``decide_forces`` stand-in that answers every question ``forced``."""
    def answer(h, w, l, config=None, witness_hint=None):
        return DecideResult(h, w, l, forced=forced, method="stub")
    return answer


def test_t_scan_without_a_ceiling_stops_after_the_last_length(monkeypatch):
    monkeypatch.setattr(ttr.decide, "decide_forces", every_question(False))
    assert compute_T(20, 3) == ScanResult(None, MAX_T_SCAN + 4, None) == ScanResult(None, 404, None)


def test_t_scan_past_its_ceiling_is_a_lemma_violation(monkeypatch):
    monkeypatch.setattr(ttr.decide, "decide_forces", every_question(False))
    with pytest.raises(LemmaViolationError, match=r"^scan passed the 4\*W\(2,3\) = 36 ceiling for width 4 "):
        compute_T(4, 3)


def test_l_scan_with_every_length_forced_is_a_lemma_violation(monkeypatch):
    monkeypatch.setattr(ttr.decide, "decide_forces", every_question(True))
    with pytest.raises(LemmaViolationError, match="^every length up to 5 is forced on 4x4; impossible$"):
        compute_L(4, 4)

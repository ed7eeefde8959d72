from __future__ import annotations

import pytest

from ttr.errors import IndeterminateError
from ttr.grid import Rect
from ttr.aps import longest_ap
from ttr.decide import compute_L, compute_T, decide_forces, _completes_ap
from ttr.enumerator import frontier_search, placements
from ttr.cnf import add_ap_blocking, build_cnf
from ttr.solver import SearchConfig, SolverStatus, solve
from ttr.vdw import extremal_coloring
from ttr.width4 import TwoColoring, stack_rows


def test_forced_at_width4_length36():
    assert decide_forces(4, 36, 3).forced is True


def test_avoidable_at_width4_length32():
    result = decide_forces(4, 32, 3)
    assert result.forced is False
    assert result.witness is not None
    assert longest_ap(result.witness).length < 3


def test_small_pair_decisions_cross_checked():
    # These run both the SAT route and the enumeration oracle internally.
    assert decide_forces(4, 8, 2).forced is True
    assert decide_forces(4, 4, 2).forced is False
    assert decide_forces(4, 12, 2).forced is True
    assert decide_forces(8, 8, 3).forced is False


def test_engines_agree_without_builtin_cross_check():
    # The SAT route alone (decide_forces would add its own cross-check) against the enumeration engine.
    config_enum = SearchConfig(engine="internal-backtracking")
    for h, w, l in [(4, 8, 2), (4, 12, 3), (8, 8, 2), (4, 16, 3)]:
        sat_forced = solve(add_ap_blocking(build_cnf(Rect(h, w)), l)).status is SolverStatus.UNSAT
        assert sat_forced == decide_forces(h, w, l, config_enum).forced


def test_oracle_agreement_every_rect_up_to_96_cells():
    # decide_forces cross-checks the SAT answer against the pruned enumerator
    # internally (raising on disagreement), so invoking it over every small
    # rectangle and l in {2, 3} is the full dual-route sweep.
    for h in range(4, 25, 4):
        for w in range(4, 25, 4):
            if h * w > 96:
                continue
            for l in (2, 3):
                decide_forces(h, w, l)


def test_determinism_of_witnesses():
    a = decide_forces(4, 32, 3)
    b = decide_forces(4, 32, 3)
    assert a.witness == b.witness
    assert a.forced == b.forced


def test_apfree_enumeration_prunes_correctly(corpus):
    # The pruned stream must equal the filtered full enumeration, in order:
    # the dead-state memo may skip only subtrees the hook cut nothing in.
    for key, tilings in corpus.items():
        rect = Rect(*key)
        longest = [longest_ap(t).length for t in tilings]
        for l in (2, 3, 4):
            pruned = list(frontier_search(rect, placements(rect), prune=_completes_ap(l)))
            assert pruned == [t for t, n in zip(tilings, longest) if n < l], (key, l)


def test_witness_hint_short_circuits():
    hint = stack_rows(TwoColoring.from_bits(extremal_coloring(3)), 2)
    result = decide_forces(8, 32, 3, witness_hint=hint)
    assert result.forced is False
    assert result.method == "hint"
    assert result.witness is hint


def test_bad_witness_hint_falls_through():
    bad = stack_rows(TwoColoring.from_string("A" * 8), 2)  # full of APs
    result = decide_forces(8, 32, 3, witness_hint=bad)
    assert result.method == "sat"
    assert result.forced is False


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        decide_forces(4, 6, 3)
    with pytest.raises(ValueError):
        decide_forces(4, 8, 1)
    with pytest.raises(ValueError):
        decide_forces(8, 32, 3, witness_hint=stack_rows(TwoColoring.from_string("AB"), 2))


def test_budget_exhaustion_is_explicit():
    config = SearchConfig(time_budget_s=1e-9)
    with pytest.raises(IndeterminateError):
        decide_forces(20, 20, 3, config)


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
    from ttr.vdw import vdw_number

    assert compute_T(8, 3).value == 4 * vdw_number(3)

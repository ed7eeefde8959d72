"""Self-tests of the benchmark's checker and tracer.

Run with ``python3 -m pytest bench/test_bench.py`` from the repository root.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _ttiling(h: int, w: int, tiles) -> str:
    grid = [["?"] * w for _ in range(h)]
    for i, (letter, r, c) in enumerate(tiles):
        for dr, dc in check.SHAPES[letter]:
            grid[r + dr][c + dc] = str(i)
    return "\n".join(["TTILING 1", f"{h} {w}"] + [" ".join(row) for row in grid]) + "\n"


def _strip(colors: str) -> list[tuple[str, int, int]]:
    units = {"A": check.UNIT_A, "B": check.UNIT_B}
    return [(o, r, c + 4 * i) for i, color in enumerate(colors) for o, r, c in units[color]]


def test_wrong_reference_raises_failed_share(tmp_path):
    wrong = dict(check.REFERENCE, **{"tvalue 4 3": 32})
    p = run.Pass()
    workloads.scan_pass(p, random.Random(0), wrong, tmp_path)
    assert [name for name, _ in p.failures] == ["tvalue 4 3"]
    assert "reference 32" in p.failures[0][1]
    assert len(p.failures) / p.attempted == 1 / 3


def test_crash_counts_as_failure():
    p = run.Pass()
    assert p("boom", lambda: 1 // 0, lambda res: None) is None
    assert p.attempted == 1 and p.failures[0][1].startswith("ZeroDivisionError")


def test_witness_checks():
    assert check.check_witness(_ttiling(4, 12, _strip("AAB")), 4, 12, 3) is None
    assert "AP of length 3" in check.check_witness(_ttiling(4, 12, _strip("AAA")), 4, 12, 3)
    assert "expected 4x8" in check.check_witness(_ttiling(4, 12, _strip("AAB")), 4, 8, 3)
    lines = _ttiling(4, 8, _strip("AB")).split("\n")
    lines[2] = "99 " + lines[2].split(" ", 1)[1]  # one cell becomes a tile of its own
    broken = "\n".join(lines)
    assert check.check_witness(broken, 4, 8, 3).startswith("bad TTILING")


def test_rot180_check_matches_own_rotation():
    tiles = _strip("AB")
    symmetric = check.rotated_180(4, 8, tiles) == set(tiles)
    verdict = check.check_witness(_ttiling(4, 8, tiles), 4, 8, 3, rot180=True)
    assert (verdict is None) == symmetric


def test_mono_ap_scan():
    assert check.has_mono_ap(["AAB", "BBA"], 3) is False
    assert check.has_mono_ap(["ABB", "BAB", "BBA"], 3) is True  # the diagonal
    avoider = "TCOLOR 1\n2 3\nAAB\nBBA\n"
    assert check.check_avoider(avoider, 2, 3, 3) is None
    assert "monochromatic" in check.check_avoider(avoider.replace("AAB", "AAA"), 2, 3, 3)


def test_strip_counts_follow_the_formula():
    assert check.REFERENCE["count 4 16"] == 54
    assert check.REFERENCE["count 4 32"] == check.REFERENCE["count 32 4"] == 4374


def test_self_time_subtracts_children():
    outer = tracing.TARGETS[0]
    inner = next(t for t in tracing.TARGETS if t.metric == "cdcl.search_s")
    spans = [[outer, 0.0, 10.0, -1, "1:op"], [inner, 2.0, 5.0, 0, "1:op"]]
    counts = Counter({"cdcl.propagations": 300})
    m = tracing.pass_metrics(spans, counts)
    assert m[outer.metric] == 7.0 and m["cdcl.search_s"] == 3.0
    assert m["cdcl.propagations_per_s"] == 100.0


def test_differing_exact_counter_is_flagged():
    a = dict.fromkeys(tracing.COUNT_METRICS, 5)
    b = dict(a, **{"cdcl.conflicts": 6})
    _, differing = tracing.combine([a, b])
    assert differing == ["cdcl.conflicts"]


def test_missing_entry_point_is_absent(monkeypatch):
    gone = tracing.Target("ttr.vdw", "_no_such_function", "vdw.brute_s")
    kept = [t for t in tracing.TARGETS if t.metric != "vdw.brute_s"]
    monkeypatch.setattr(tracing, "TARGETS", tuple(kept) + (gone,))
    undo, absent = tracing.install(tracing.Tracer())
    undo()
    assert absent == {gone}
    assert tracing.absent_metrics(absent) == {"vdw.brute_s"}


def test_install_wraps_imported_names_and_undo_restores():
    import ttr.cli
    import ttr.cnf

    original = ttr.cnf.add_ap_blocking
    tracer = tracing.Tracer()
    undo, absent = tracing.install(tracer)
    try:
        assert not absent
        assert ttr.cli.add_ap_blocking is ttr.cnf.add_ap_blocking is not original
        ttr.cli.main(["vdw", "--len", "3"])
    finally:
        undo()
    assert ttr.cli.add_ap_blocking is original
    names = {span[0].metric for span in tracer.spans}
    assert {"cli.self_s", "vdw.backtrack_s"} <= names


def test_scaled_time_leaves_chunks_out_and_scales_by_their_speed():
    ref = run.REFERENCE_CHUNK_S
    chunks = [(0.0, ref), (1.0, 1.0 + ref), (2.0, 2.0 + 3 * ref)]
    # an operation across the middle chunk: 1 - ref seconds at reference speed,
    # then 1 - ref seconds where the chunks took twice the reference on average
    raw, scaled = run.scaled_time([(ref, 2.0)], chunks)
    assert abs(raw - 2 * (1 - ref)) < 1e-12
    assert abs(scaled - 1.5 * (1 - ref)) < 1e-12
    assert run.scaled_time([(5.0, 6.0)], chunks) == (0.0, 0.0)  # after the last chunk


def test_probe_interrupts_a_long_operation():
    def spin(seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    p = run.Pass(probe=True)
    p.open()
    try:
        p("spin", lambda: spin(3 * run.PROBE_EVERY_S), lambda res: None)
    finally:
        p.close()
    assert len(p.chunks) >= 3 and 0 < p.raw_seconds < p.ops[0][1] - p.ops[0][0]

from __future__ import annotations

import os
import shlex
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
import ttr
from ttr.cli import build_parser, main
from ttr.grid import Rect, read_tiling, write_tiling
from ttr.aps import enumerate_aps, longest_ap
from ttr.enumerator import enumerate_tilings
from ttr.render import render_ascii
from ttr.vdw import GridColoring, grid_mono_ap
from ttr.width4 import concatenate, stack_rows

DIMACS_SOLVER = f"{sys.executable} -m ttr.dimacs"


def test_vdw_subcommand(capsys):
    assert main(["vdw", "--len", "3"]) == 0
    assert capsys.readouterr().out.strip() == "9"


def test_decide_forced(capsys):
    assert main(["decide", "--height", "4", "--width", "36", "--len", "3"]) == 0
    assert capsys.readouterr().out.strip() == "FORCED"


def test_decide_avoidable_writes_verifying_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.ttiling"
    assert main(["decide", "--height", "4", "--width", "32", "--len", "3",
                 "--out", str(cert)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("AVOIDABLE")
    assert str(cert) in out
    tiling = read_tiling(cert.read_text())
    assert longest_ap(tiling).length < 3
    assert main(["verify", "--in", str(cert), "--max-ap", "3"]) == 0


def test_tile_round_trips_through_reader(tmp_path, capsys):
    out = tmp_path / "t.ttiling"
    assert main(["tile", "--height", "8", "--width", "8", "--out", str(out)]) == 0
    tiling = read_tiling(out.read_text())
    assert tiling.rect.height == 8 and tiling.rect.width == 8


def test_tile_reports_untileable(capsys):
    assert main(["tile", "--height", "4", "--width", "6"]) == 0
    assert "NONE" in capsys.readouterr().out


def test_apfree_none_when_forced(capsys):
    assert main(["apfree", "--height", "4", "--width", "36", "--len", "3"]) == 0
    assert "NONE" in capsys.readouterr().out


@pytest.mark.parametrize("h, w", [(6, 6), (4, 6), (1, 1)])
def test_apfree_reports_untileable(h, w, capsys):
    assert main(["apfree", "--height", str(h), "--width", str(w), "--len", "3"]) == 0
    assert capsys.readouterr().out == f"NONE (no complete tiling of {h}x{w} exists)\n"


def test_apfree_checks_len_before_tileability(capsys):
    assert main(["apfree", "--height", "1", "--width", "1", "--len", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: l must be >= 2, got 1\n"


def test_apfree_writes_certificate(tmp_path):
    out = tmp_path / "apfree.ttiling"
    assert main(["apfree", "--height", "4", "--width", "16", "--len", "3",
                 "--out", str(out)]) == 0
    assert longest_ap(read_tiling(out.read_text())).length < 3


def test_apfree_rot180_symmetric_witness(tmp_path):
    out = tmp_path / "sym.ttiling"
    assert main(["apfree", "--height", "4", "--width", "4", "--len", "5",
                 "--symmetry", "rot180", "--out", str(out)]) == 0
    tiling = read_tiling(out.read_text())
    assert tiling == tiling.rotated_180()


def test_tvalue_and_lvalue(capsys):
    assert main(["tvalue", "--width", "4", "--len", "2"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert main(["lvalue", "--height", "4", "--width", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("height", ["0", "-4"])
def test_lvalue_rejects_nonpositive_side(height, capsys):
    assert main(["lvalue", "--height", height, "--width", "4"]) == 1
    assert capsys.readouterr().err.strip() == f"error: rectangle sides must be >= 1, got {height}x4"


@pytest.mark.parametrize("budget", [[], ["--budget-seconds", "1e-9"]])
@pytest.mark.parametrize("width, length, error", [
    ("4", "1", "l must be >= 2, got 1"),
    ("0", "3", "rectangle sides must be >= 1, got 4x0"),
    ("-4", "3", "rectangle sides must be >= 1, got 4x-4"),
])
def test_tvalue_rejects_bad_input_before_the_deadline(width, length, error, budget, capsys):
    # A spent budget must not turn bad input into an UNKNOWN bracket.
    assert main(["tvalue", "--width", width, "--len", length, *budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("h, w", [("0", "5"), ("-2", "-3")])
def test_vdw2d_rejects_nonpositive_side(h, w, capsys):
    assert main(["vdw2d", "--height", h, "--width", w]) == 1
    assert capsys.readouterr().err.strip() == f"error: rectangle sides must be >= 1, got {h}x{w}"


@pytest.mark.parametrize("solver", [None, DIMACS_SOLVER])
@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_non_finite_budget_exits_1(budget, solver, capsys):
    argv = ["lvalue", "--height", "24", "--width", "24", "--budget-seconds", budget]
    if solver is not None:
        argv += ["--solver", solver]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: time budget must be a positive finite number of seconds, got {budget}\n"


def test_vdw2d(tmp_path, capsys):
    cert = tmp_path / "grid.tcolor"
    assert main(["vdw2d", "--height", "3", "--width", "5", "--out", str(cert)]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert cert.read_text().startswith("TCOLOR 1\n3 5\n")


@pytest.mark.parametrize("h, w", [(4, 6), (5, 5)])
def test_vdw2d_answers_past_24_cells_with_verified_avoider(h, w, tmp_path, capsys):
    cert = tmp_path / "grid.tcolor"
    assert main(["vdw2d", "--height", str(h), "--width", str(w), "--out", str(cert)]) == 0
    assert capsys.readouterr().out.strip() == "3"
    avoider = oracles.read_tcolor(cert.read_bytes())
    assert (avoider.height, avoider.width) == (h, w)
    assert grid_mono_ap(avoider, 4) is None


def test_chaingraph_output_parses(tmp_path, capsys):
    src = tmp_path / "t.ttiling"
    main(["tile", "--height", "4", "--width", "8", "--out", str(src)])
    chain = tmp_path / "t.chain"
    assert main(["chaingraph", "--in", str(src), "--out", str(chain)]) == 0
    graph = oracles.read_chain(chain.read_text())
    assert len(graph.edges) == 8


def test_render_ascii_and_svg(tmp_path, capsys):
    src = tmp_path / "t.ttiling"
    main(["tile", "--height", "4", "--width", "4", "--out", str(src)])
    assert main(["render", "--in", str(src), "--format", "ascii"]) == 0
    text = capsys.readouterr().out
    assert len(text.splitlines()) == 4
    svg = tmp_path / "t.svg"
    assert main(["render", "--in", str(src), "--format", "svg", "--highlight-ap",
                 "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg ")


@pytest.mark.parametrize("kinds", ["AAB", "EA"])
def test_highlight_ap_strokes_every_longest_ap(kinds, tmp_path, capsys):
    # 4x12 AAB has twelve longest APs of length 2; 4x16 EA has two of length 4.
    tiling = concatenate(kinds)
    anchor_sets = tiling.anchors_by_orientation().values()
    lengths = [length for anchors in anchor_sets for _start, _step, length in oracles.runs(anchors)]
    top = max(lengths)
    assert lengths.count(top) > 1
    src = tmp_path / "t.ttiling"
    src.write_text(write_tiling(tiling))
    assert main(["render", "--in", str(src), "--format", "svg", "--highlight-ap"]) == 0
    assert capsys.readouterr().out.count('stroke-width="4"') == top * lengths.count(top)


def test_highlight_ap_equals_the_filter_over_every_pair(tmp_path, monkeypatch):
    # The former highlight set: every maximal AP of length >= 2, kept at the top length.
    def every_pair_filter(tiling):
        aps = enumerate_aps(tiling, 2)
        top = max((ap.length for ap in aps), default=0)
        return tuple(ap for ap in aps if ap.length == top) or (longest_ap(tiling),)

    drawn = []
    monkeypatch.setattr("ttr.render.render_svg", lambda tiling, *, cell_size, highlight: drawn.append(highlight) or "")
    tilings = [t for h, w in [(4, 4), (4, 8), (8, 8), (8, 12), (12, 8), (4, 24), (24, 4)]
               for t in enumerate_tilings(Rect(h, w))]
    src = tmp_path / "t.ttiling"
    for tiling in tilings:
        src.write_text(write_tiling(tiling))
        assert main(["render", "--in", str(src), "--format", "svg", "--highlight-ap"]) == 0
    assert len(drawn) == len(tilings) == 3428
    assert drawn == [every_pair_filter(t) for t in tilings]


@pytest.mark.parametrize("size", ["0", "-5"])
def test_render_rejects_nonpositive_cell_size(size, tmp_path, capsys):
    src = tmp_path / "t.ttiling"
    main(["tile", "--height", "4", "--width", "4", "--out", str(src)])
    assert main(["render", "--in", str(src), "--format", "svg", "--cell-size", size]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cell_size must be positive\n"


@pytest.mark.parametrize("fmt, flag", [("svg", ["--borders"]), ("ascii", ["--cell-size", "10"]),
                                       ("ascii", ["--highlight-ap"])])
def test_render_refuses_options_of_the_other_format(fmt, flag, tmp_path, capsys):
    src = tmp_path / "t.ttiling"
    main(["tile", "--height", "4", "--width", "4", "--out", str(src)])
    assert main(["render", "--in", str(src), "--format", fmt, *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ttr render: error: {flag[0]} does not apply to --format {fmt}\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--height", "4", "--width", "36"])  # missing --len
    assert exc.value.code == 2


def test_bad_input_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ttiling"
    bad.write_text("TTILING 1\n4 4\n0 0 0 0\n0 1 1 1\n2 2 2 3\n3 3 3 2\n")
    assert main(["verify", "--in", str(bad)]) == 1
    assert "input error" in capsys.readouterr().err


def test_unreadable_input_or_unwritable_output_exits_1(tmp_path, capsys):
    assert main(["verify", "--in", str(tmp_path / "missing.ttiling")]) == 1
    assert "file error" in capsys.readouterr().err
    assert main(["verify", "--in", str(tmp_path)]) == 1
    assert "file error" in capsys.readouterr().err
    assert main(["tile", "--height", "4", "--width", "4",
                 "--out", str(tmp_path / "no-such-dir" / "t.ttiling")]) == 1
    assert "file error" in capsys.readouterr().err


def test_non_utf8_input_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ttiling"
    bad.write_bytes(b"TTILING 1\n\xff\n")
    assert main(["verify", "--in", str(bad)]) == 1
    assert "UTF-8" in capsys.readouterr().err


def test_verify_max_ap_failure_exits_1(tmp_path, capsys):
    src = tmp_path / "t.ttiling"
    main(["tile", "--height", "4", "--width", "8", "--out", str(src)])
    assert main(["verify", "--in", str(src), "--max-ap", "2"]) == 1


@pytest.mark.parametrize("max_ap", ["1", "0", "-3"])
def test_verify_rejects_max_ap_below_2(max_ap, tmp_path, capsys):
    src = tmp_path / "t.ttiling"
    main(["tile", "--height", "4", "--width", "8", "--out", str(src)])
    capsys.readouterr()
    assert main(["verify", "--in", str(src), "--max-ap", max_ap]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-ap must be >= 2, got {max_ap}\n"


def test_budget_exhaustion_exits_4(capsys):
    code = main(["apfree", "--height", "24", "--width", "24", "--len", "3",
                 "--budget-seconds", "0.05"])
    assert code == 4
    assert "UNKNOWN" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["lvalue", "--height", "32", "--width", "32"],
                                  ["tvalue", "--width", "16", "--len", "4"],
                                  ["vdw2d", "--height", "24", "--width", "24"]])
def test_budget_bounds_the_whole_scan(argv, capsys):
    # One deadline for every question of the scan; the margin covers the one
    # question whose encoding the deadline does not interrupt.
    start = time.monotonic()
    assert main([*argv, "--budget-seconds", "0.05"]) == 4
    assert time.monotonic() - start < 0.3
    assert capsys.readouterr().out.startswith("UNKNOWN ")


def test_budget_bounds_the_ceiling_of_a_t_scan(capsys):
    # compute_T finds W(2, 4) for its ceiling before the first deadline check.
    # The 4x4 question may still finish inside the budget, so the lower end is 4 or more.
    start = time.monotonic()
    assert main(["tvalue", "--width", "4", "--len", "4", "--budget-seconds", "0.01"]) == 4
    assert time.monotonic() - start < 0.08
    out = capsys.readouterr().out.strip()
    assert out.startswith("UNKNOWN T in [") and out.endswith(", 140]")


def test_solver_flag_uses_external_command(capsys):
    assert main(["decide", "--height", "4", "--width", "8", "--len", "2",
                 "--solver", DIMACS_SOLVER]) == 0
    assert capsys.readouterr().out.strip() == "FORCED"


def test_env_solver_used(monkeypatch, capsys):
    monkeypatch.setenv("TTR_SOLVER", DIMACS_SOLVER)
    assert main(["vdw2d", "--height", "2", "--width", "13"]) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("argv", [["vdw2d", "--height", "3", "--width", "3"],
                                  ["apfree", "--height", "4", "--width", "8", "--len", "3"]])
def test_lying_solver_exits_3(argv, tmp_path, capsys):
    # Claims SAT with every variable false: an all-one-color grid, or no tiles at all.
    script = tmp_path / "liar.sh"
    script.write_text(
        "#!/bin/sh\n"
        "n=$(sed -n 's/^p cnf \\([0-9]*\\) .*/\\1/p' \"$1\")\n"
        'echo "s SATISFIABLE"\n'
        "printf v; i=1; while [ $i -le $n ]; do printf ' -%d' $i; i=$((i + 1)); done; echo ' 0'\n"
    )
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    assert main([*argv, "--solver", str(script)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("solver error: witness re-verification failed")
    assert "Traceback" not in captured.err


def test_solver_with_disagreeing_status_lines_exits_3(tmp_path, capsys):
    script = tmp_path / "fickle.sh"
    script.write_text('#!/bin/sh\necho "s SATISFIABLE"\necho "v 1 2 0"\necho "s UNSATISFIABLE"\n')
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    assert main(["decide", "--height", "4", "--width", "8", "--len", "3", "--solver", str(script)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("solver error: status line 's UNSATISFIABLE' contradicts"
                            " an earlier SAT line\n")


def test_solver_literal_after_the_closing_zero_exits_3(tmp_path, capsys):
    # An honest answer followed by its first value line again, after the 0 that ended the list.
    script = tmp_path / "trailing.sh"
    script.write_text(
        "#!/bin/sh\n"
        f'out=$({DIMACS_SOLVER} "$1")\n'
        "printf '%s\\n' \"$out\"\n"
        "printf '%s\\n' \"$out\" | grep -m1 '^v '\n"
    )
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    assert main(["decide", "--height", "4", "--width", "8", "--len", "3", "--solver", str(script)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver error: literal ")
    assert captured.err.endswith(" after the 0 that ends the value list\n")


def test_external_solver_budget_past_the_longest_poll_wait(capsys):
    # 1e10 s is past what poll() accepts as a C int of milliseconds; the wait is capped instead.
    start = time.monotonic()
    assert main(["decide", "--height", "4", "--width", "8", "--len", "3",
                 "--budget-seconds", "1e10", "--solver", DIMACS_SOLVER]) == 0
    assert time.monotonic() - start < 60
    assert capsys.readouterr().out.startswith("AVOIDABLE")


def test_undecodable_bytes_in_a_solver_comment_line_are_ignored(tmp_path, capsys):
    script = tmp_path / "latin.sh"
    script.write_text("#!/bin/sh\nprintf 'c \\377\\376\\n'\necho 's UNSATISFIABLE'\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    assert main(["decide", "--height", "4", "--width", "8", "--len", "3", "--solver", str(script)]) == 0
    assert capsys.readouterr().out == "FORCED\n"


def test_undecodable_bytes_in_a_solver_status_line_exit_3(tmp_path, capsys):
    script = tmp_path / "garbled.sh"
    script.write_text("#!/bin/sh\nprintf 's SATISF\\377IABLE\\n'\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    assert main(["decide", "--height", "4", "--width", "8", "--len", "3", "--solver", str(script)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver error: unrecognized status line 's SATISF")
    assert captured.err.count("\n") == 1


def test_missing_solver_binary_exits_3(capsys):
    code = main(["decide", "--height", "4", "--width", "8", "--len", "2",
                 "--solver", "no-such-solver-xyz"])
    assert code == 3
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["not-executable", " ", "'unterminated"])
def test_unlaunchable_solver_exits_3(solver, tmp_path, capsys):
    # A command that exists but may not run, one that is empty, one that does not parse.
    if solver == "not-executable":
        script = tmp_path / "solver.sh"
        script.write_text("#!/bin/sh\necho 's UNSATISFIABLE'\n")
        script.chmod(0o644)
        solver = str(script)
    code = main(["decide", "--height", "4", "--width", "8", "--len", "3", "--solver", solver])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and err.count("\n") == 1


def test_tile_handles_large_rectangles(tmp_path):
    out = tmp_path / "big.ttiling"
    assert main(["tile", "--height", "16", "--width", "136", "--out", str(out)]) == 0
    tiling = read_tiling(out.read_text())
    assert tiling.tile_count == 16 * 136 // 4


def test_tile_4x4_bytes(capsys):
    assert main(["tile", "--height", "4", "--width", "4"]) == 0
    assert capsys.readouterr().out == "TTILING 1\n4 4\n0 0 0 1\n2 0 1 1\n2 2 3 1\n2 3 3 3\n"


def test_tile_copies_the_4x4_block(capsys):
    assert main(["tile", "--height", "8", "--width", "12"]) == 0
    assert capsys.readouterr().out == write_tiling(stack_rows(GridColoring(((1,) * 3,)), 2))


def test_tile_512x512_in_a_child_process(tmp_path):
    # A child process, so that a crash deep in a search cannot take pytest with it.
    out = tmp_path / "t.ttiling"
    env = dict(os.environ, PYTHONPATH=str(Path(ttr.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-m", "ttr.cli", "tile", "--height", "512", "--width", "512",
                            "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    lines = out.read_text().splitlines()
    assert lines[1] == "512 512"
    assert len(lines) == 514


# Each subcommand's required arguments, and the optional flags it reads.
SUBCOMMAND_FLAGS = {
    "tile": (["--height", "4", "--width", "4"], {"--out"}),
    "decide": (["--height", "4", "--width", "4", "--len", "3"],
               {"--out", "--solver", "--budget-seconds"}),
    "apfree": (["--height", "4", "--width", "4", "--len", "3"],
               {"--out", "--solver", "--budget-seconds", "--symmetry"}),
    "vdw2d": (["--height", "2", "--width", "2"], {"--out", "--solver", "--budget-seconds"}),
    "tvalue": (["--width", "4", "--len", "2"], {"--solver", "--budget-seconds"}),
    "lvalue": (["--height", "4", "--width", "4"], {"--solver", "--budget-seconds"}),
    "chaingraph": (["--in", "t.ttiling"], {"--out"}),
    "render": (["--in", "t.ttiling"], {"--out", "--format", "--highlight-ap", "--cell-size", "--borders"}),
    "verify": (["--in", "t.ttiling"], {"--max-ap"}),
    "vdw": (["--len", "3"], set()),
}
# The options shared between subcommands, plus five that no subcommand accepts.
SHARED_FLAGS = {"--out", "--engine", "--solver", "--budget-seconds",
                "--internal-cap", "--jobs", "--seed", "--dxdy-filter"}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_help_lists_exactly_the_flags_read(command, capsys):
    required, flags = SUBCOMMAND_FLAGS[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = {tok.rstrip(",") for tok in capsys.readouterr().out.split() if tok.startswith("--")}
    assert listed == flags | {flag for flag in required if flag.startswith("--")} | {"--help"}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_flag_outside_a_subcommands_row_exits_2(command, capsys):
    required, flags = SUBCOMMAND_FLAGS[command]
    for flag in sorted(SHARED_FLAGS - flags):
        with pytest.raises(SystemExit) as exc:
            main([command, *required, flag, "1"])
        assert exc.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err


def test_main_shares_one_parser():
    assert build_parser() is build_parser()


def test_importing_the_cli_builds_no_parser():
    # bench/run.py times import plus one build_parser() call in a fresh interpreter.
    env = dict(os.environ, PYTHONPATH=str(Path(ttr.__file__).parents[1]))
    code = ("import ttr.cli; print(ttr.cli.build_parser.cache_info().currsize);"
            " ttr.cli.build_parser(); ttr.cli.build_parser(); print(ttr.cli.build_parser.cache_info().misses)")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "0\n1\n"


def test_usage_error_leaves_the_shared_parser_working(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["vdw", "--len", "three"])
    assert exc.value.code == 2
    assert "invalid int value: 'three'" in capsys.readouterr().err
    assert main(["vdw", "--len", "3"]) == 0
    assert capsys.readouterr() == ("9\n", "")


@pytest.mark.parametrize("argv", [["--help"], ["render", "--help"]])
def test_help_is_the_same_on_every_call_and_from_a_fresh_parser(argv, capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    with pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args(argv)
    assert texts == [capsys.readouterr().out] * 2
    # The docstring's note on the shared parser is for callers of main, not for --help.
    assert "one parser" not in texts[0]


def test_no_option_leaks_between_calls(tmp_path, capsys):
    src = tmp_path / "t.ttiling"
    main(["tile", "--height", "4", "--width", "8", "--out", str(src)])
    build_parser.cache_clear()
    assert main(["render", "--in", str(src), "--format", "ascii"]) == 0
    first = capsys.readouterr().out
    assert main(["render", "--in", str(src), "--format", "ascii", "--borders"]) == 0
    bordered = capsys.readouterr().out
    assert main(["render", "--in", str(src), "--format", "ascii"]) == 0
    assert capsys.readouterr().out == first == render_ascii(read_tiling(src.read_text()))
    assert bordered != first


def readme_usage_lines() -> list[tuple[list[str], str]]:
    """(argv, comment) for each ``ttr`` line of the README's command-line usage block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "ttr", line
        lines.append((argv[1:], comment.strip()))
    return lines


def test_readme_usage_block_runs_and_gives_its_answers(tmp_path, monkeypatch, capsys):
    # A comment whose first word is capitals or digits names the first word printed.
    monkeypatch.chdir(tmp_path)
    answers = []
    for argv, comment in readme_usage_lines():
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        word = comment.split()[0] if comment else ""
        if word.isupper() or word.isdigit():
            assert out.split()[0] == word, (argv, out)
            answers.append(word)
    assert answers == ["FORCED", "AVOIDABLE", "36", "2", "35", "3", "CHAIN"]

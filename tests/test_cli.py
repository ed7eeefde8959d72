from __future__ import annotations

import sys

import pytest

from ttr.cli import main
from ttr.grid import read_tiling
from ttr.aps import longest_ap
from ttr.chains import read_chain
from ttr.vdw import GridColoring, grid_mono_ap

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


def test_backtracking_engine_reaches_long_strips(tmp_path, capsys):
    # 1,200 tiles deep: the search raises the recursion limit and restores it.
    before = sys.getrecursionlimit()
    cert = tmp_path / "cert.ttiling"
    assert main(["decide", "--height", "4", "--width", "1200", "--len", "400",
                 "--engine", "internal-backtracking", "--out", str(cert)]) == 0
    assert capsys.readouterr().out.startswith("AVOIDABLE")
    assert sys.getrecursionlimit() == before
    assert longest_ap(read_tiling(cert.read_text())).length < 400


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
    avoider = GridColoring.from_tcolor(cert.read_bytes())
    assert (avoider.height, avoider.width) == (h, w)
    assert grid_mono_ap(avoider, 4) is None


def test_chaingraph_output_parses(tmp_path, capsys):
    src = tmp_path / "t.ttiling"
    main(["tile", "--height", "4", "--width", "8", "--out", str(src)])
    chain = tmp_path / "t.chain"
    assert main(["chaingraph", "--in", str(src), "--out", str(chain)]) == 0
    graph = read_chain(chain.read_text())
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


def test_budget_exhaustion_exits_4(capsys):
    code = main(["apfree", "--height", "24", "--width", "24", "--len", "3",
                 "--budget-seconds", "0.05"])
    assert code == 4
    assert "UNKNOWN" in capsys.readouterr().out


def test_solver_flag_uses_external_command(capsys):
    assert main(["decide", "--height", "4", "--width", "8", "--len", "2",
                 "--solver", DIMACS_SOLVER]) == 0
    assert capsys.readouterr().out.strip() == "FORCED"


def test_env_solver_used(monkeypatch, capsys):
    monkeypatch.setenv("TTR_SOLVER", DIMACS_SOLVER)
    assert main(["vdw2d", "--height", "2", "--width", "13"]) == 0
    assert capsys.readouterr().out.strip()


def test_missing_solver_binary_exits_3(capsys):
    code = main(["decide", "--height", "4", "--width", "8", "--len", "2",
                 "--solver", "no-such-solver-xyz"])
    assert code == 3
    assert "solver error" in capsys.readouterr().err


def test_tile_handles_large_rectangles(tmp_path):
    out = tmp_path / "big.ttiling"
    assert main(["tile", "--height", "16", "--width", "136", "--out", str(out)]) == 0
    tiling = read_tiling(out.read_text())
    assert tiling.tile_count == 16 * 136 // 4


# Each subcommand's required arguments, and the optional flags it reads.
SUBCOMMAND_FLAGS = {
    "tile": (["--height", "4", "--width", "4"], {"--out"}),
    "decide": (["--height", "4", "--width", "4", "--len", "3"],
               {"--out", "--engine", "--solver", "--budget-seconds"}),
    "apfree": (["--height", "4", "--width", "4", "--len", "3"],
               {"--out", "--solver", "--budget-seconds", "--symmetry"}),
    "vdw2d": (["--height", "2", "--width", "2"], {"--out", "--solver", "--budget-seconds"}),
    "tvalue": (["--width", "4", "--len", "2"], {"--engine", "--solver", "--budget-seconds"}),
    "lvalue": (["--height", "4", "--width", "4"], {"--engine", "--solver", "--budget-seconds"}),
    "chaingraph": (["--in", "t.ttiling"], {"--out"}),
    "render": (["--in", "t.ttiling"], {"--out", "--format", "--highlight-ap", "--cell-size", "--borders"}),
    "verify": (["--in", "t.ttiling"], {"--max-ap"}),
    "vdw": (["--len", "3"], set()),
}
# The options shared between subcommands, plus four that no subcommand accepts.
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

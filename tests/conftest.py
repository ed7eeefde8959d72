from __future__ import annotations

import gc
import os
import sys
from pathlib import Path

import pytest

from ttr.grid import Rect, Tile, Tiling, Orientation
from ttr.enumerator import enumerate_tilings
from ttr.width4 import MAX_UNIT_LEN, UNIT_A_TILES, enumerate_units

# ``pythonpath`` in pyproject.toml puts src/ on sys.path for this process only;
# child processes (``python -m ttr.dimacs`` as an external solver) read it here.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid and getattr(rep, "when", "call") == "call":
                name = nodeid.split("::")[-1]
                lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, verdict in sorted(set(lines)):
            terminalreporter.write_line(f"{verdict}  {name}")


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that leaves the cyclic garbage collector disabled."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture(autouse=True)
def recursion_limit_left_alone():
    """Fail any test that leaves ``sys.getrecursionlimit()`` changed, and restore it."""
    before = sys.getrecursionlimit()
    yield
    after = sys.getrecursionlimit()
    if after != before:
        sys.setrecursionlimit(before)
        pytest.fail(f"the test left the recursion limit at {after}, not {before}")


PINWHEEL_A = (
    Tile(Orientation.R, 0, 0),
    Tile(Orientation.D, 0, 1),
    Tile(Orientation.L, 1, 2),
    Tile(Orientation.U, 2, 0),
)

PINWHEEL_B = (
    Tile(Orientation.D, 0, 0),
    Tile(Orientation.L, 0, 2),
    Tile(Orientation.R, 1, 0),
    Tile(Orientation.U, 2, 1),
)


@pytest.fixture(scope="session")
def corpus():
    """Every tiling of the small rectangles the lemma checks sweep over."""
    rects = [(4, 4), (4, 8), (4, 12), (4, 16), (8, 4), (8, 8), (8, 12), (12, 8)]
    return {
        (h, w): list(enumerate_tilings(Rect(h, w), max_area=128))
        for h, w in rects
    }


@pytest.fixture(scope="session")
def catalog():
    """Every width-4 unit up to ``MAX_UNIT_LEN``, by kind, in catalog order."""
    return {u.kind: u for u in enumerate_units(MAX_UNIT_LEN)}


@pytest.fixture()
def pinwheel_a():
    return Tiling(Rect(4, 4), PINWHEEL_A)


@pytest.fixture()
def pinwheel_b():
    return Tiling(Rect(4, 4), PINWHEEL_B)


@pytest.fixture(scope="session")
def periodic_20x20():
    """The 20x20 tiling made of a 5x5 repetition of unit A."""
    tiles = [
        t.translated(4 * i, 4 * j)
        for i in range(5)
        for j in range(5)
        for t in UNIT_A_TILES
    ]
    return Tiling(Rect(20, 20), tiles)

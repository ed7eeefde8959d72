"""Byte-for-byte pins on the per-tiling analysis layers.

The first digest covers, for every tiling of 8x12 and 4x24 in enumeration
order, the TTILING text, the longest-AP witness, the CHAIN text and the cut
check, and for every tiling of 4x16 its unit decomposition and its A/B
projection.  The second covers, for the same 8x12 and 4x24 tilings, the
TTILING round trip through ``read_tiling``, the chain-graph round trip
through ``chain_to_tiling`` and the bordered ASCII rendering, plus the SVG
of the periodic 20x20 tiling with its longest APs highlighted.  Both were
taken before the code behind these functions was rewritten, so a faster
version must reproduce the old output exactly; so must the error texts
pinned below.  The third pins the solver path end to end: the TTILING
witness of ``ttr apfree 20x20 --len 3 --symmetry rot180`` followed by its
``ttr render --format svg --highlight-ap`` output, taken before the CDCL
solver and the SVG renderer were made faster.  The last two pin the
frontier search: the TTILING stream of ``enumerate_tilings`` on 4x28 and
28x4, and ``count_tilings`` on 4x32, 32x4 and 12x16, taken while its masks
still spanned the whole rectangle.  The sixth pins every maximal AP of
tiles and of shaded arrows (``enumerate_aps`` and ``shaded_arrow_aps`` at
length 2) over the 8x12 and 4x24 tilings, taken while the AP kernel still
walked tuple anchors.
"""

from __future__ import annotations

import hashlib

import pytest

from ttr.aps import enumerate_aps, longest_ap
from ttr.chains import ChainGraph, build_chain_graph, chain_to_tiling, shaded_arrow_aps, write_chain
from ttr.cli import main
from ttr.enumerator import count_tilings, enumerate_tilings
from ttr.errors import StructureError, TilingError
from ttr.grid import Rect, cut_cornerless_ok, read_tiling, write_tiling
from ttr.render import render_ascii, render_svg
from ttr.width4 import ab_map, decompose

GOLDEN_SHA1 = "7db9ae3b90cd5864f65498789f25e2835b3861ac"
ROUND_TRIP_SHA1 = "9988dfd77ebd3c146d66ce1809e89544fe9a098d"
WITNESS_SVG_SHA1 = "23c7df24db7da6e0ab0754145214ece346cabcd3"
ENUMERATION_SHA1 = "217f272368d176af85b21cb993789d4c3455f55e"
COUNT_SHA1 = "9c928e063e6fc81765950c2d20c80eeaec45d137"
AP_RUNS_SHA1 = "67ec8a87fe27167a010bbd921c91cdb4dbc4744e"


def analysis_digest() -> str:
    sha = hashlib.sha1()
    for h, w in ((8, 12), (4, 24)):
        for tiling in enumerate_tilings(Rect(h, w)):
            sha.update(write_tiling(tiling).encode())
            sha.update(longest_ap(tiling).render().encode() + b"\n")
            sha.update(write_chain(build_chain_graph(tiling)).encode())
            sha.update(f"cut={cut_cornerless_ok(tiling)}\n".encode())
    for tiling in enumerate_tilings(Rect(4, 16)):
        units = decompose(tiling)
        sha.update(f"{''.join(units.kinds)} {units.lengths}\n".encode())
        sha.update(write_tiling(ab_map(tiling)).encode())
    return sha.hexdigest()


def round_trip_digest(periodic) -> str:
    sha = hashlib.sha1()
    for h, w in ((8, 12), (4, 24)):
        for tiling in enumerate_tilings(Rect(h, w)):
            sha.update(write_tiling(read_tiling(write_tiling(tiling))).encode())
            sha.update(write_tiling(chain_to_tiling(build_chain_graph(tiling))).encode())
            sha.update(render_ascii(tiling, borders=True).encode())
    # The highlight set of ``ttr render --highlight-ap``: every AP of the top length.
    aps = enumerate_aps(periodic, 2)
    top = max(ap.length for ap in aps)
    highlight = tuple(ap for ap in aps if ap.length == top)
    sha.update(render_svg(periodic, highlight=highlight).encode())
    return sha.hexdigest()


def test_analysis_output_matches_golden_digest():
    assert analysis_digest() == GOLDEN_SHA1


def test_round_trips_and_renderings_match_golden_digest(periodic_20x20):
    assert round_trip_digest(periodic_20x20) == ROUND_TRIP_SHA1


def witness_svg_digest(tmp_path) -> str:
    witness, svg = tmp_path / "w.ttiling", tmp_path / "w.svg"
    assert main(["apfree", "--height", "20", "--width", "20", "--len", "3",
                 "--symmetry", "rot180", "--out", str(witness)]) == 0
    assert main(["render", "--in", str(witness), "--format", "svg", "--highlight-ap",
                 "--out", str(svg)]) == 0
    return hashlib.sha1(witness.read_bytes() + svg.read_bytes()).hexdigest()


def test_witness_and_svg_match_golden_digest(tmp_path):
    assert witness_svg_digest(tmp_path) == WITNESS_SVG_SHA1


def test_enumeration_stream_matches_golden_digest():
    sha = hashlib.sha1()
    for h, w in ((4, 28), (28, 4)):
        for tiling in enumerate_tilings(Rect(h, w), max_area=h * w):
            sha.update(write_tiling(tiling).encode())
    assert sha.hexdigest() == ENUMERATION_SHA1


def test_counts_match_golden_digest():
    sha = hashlib.sha1()
    for h, w in ((4, 32), (32, 4), (12, 16)):
        sha.update(f"{h}x{w} {count_tilings(Rect(h, w), max_area=h * w)}\n".encode())
    assert sha.hexdigest() == COUNT_SHA1


def test_ap_runs_match_golden_digest():
    sha = hashlib.sha1()
    for h, w in ((8, 12), (4, 24)):
        for tiling in enumerate_tilings(Rect(h, w)):
            for ap in enumerate_aps(tiling, 2):
                sha.update(ap.render().encode() + b"\n")
            for p in shaded_arrow_aps(build_chain_graph(tiling), 2):
                sha.update(f"ARROW {p.direction} {p.side} start={p.start} step={p.step} len={p.length}\n".encode())
            sha.update(b"--\n")
    assert sha.hexdigest() == AP_RUNS_SHA1


@pytest.mark.parametrize(
    "edges, message",
    [
        ([((0, 0), (1, 1))], "edge ((0, 0), (1, 1)) has 0 gray flanks"),
        ([((0, 0), (0, 3))], "edge ((0, 0), (0, 3)) endpoints are not adjacent blocks"),
        ([((1, 1), (2, 1))], "block (2, 1) outside 4x4"),
        ([((-1, 0), (0, 0))], "block (-1, 0) outside 4x4"),
    ],
)
def test_chain_to_tiling_edge_errors(edges, message):
    with pytest.raises(StructureError) as exc:
        chain_to_tiling(ChainGraph(Rect(4, 4), edges))
    assert str(exc.value) == message


def test_chain_to_tiling_overlap_error():
    with pytest.raises(TilingError) as exc:
        chain_to_tiling(ChainGraph(Rect(4, 4), [((0, 0), (0, 1)), ((0, 1), (0, 0))]))
    assert str(exc.value) == (
        "invalid tiling: OVERLAP cell=(0, 1) tiles=(0, 1), OVERLAP cell=(0, 2) tiles=(0, 1), "
        "UNCOVERED cell=(1, 0), UNCOVERED cell=(1, 3), ... (12 total)"
    )
    uncovered = [(1, 0), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)]
    assert [str(v) for v in exc.value.report.violations] == [
        "OVERLAP cell=(0, 1) tiles=(0, 1)",
        "OVERLAP cell=(0, 2) tiles=(0, 1)",
    ] + [f"UNCOVERED cell={cell}" for cell in uncovered]

from __future__ import annotations

import pytest

from ttr.aps import APWitness, enumerate_aps
from ttr.grid import Orientation
from ttr.render import _tile_outline_path, render_ascii, render_svg


def test_pinwheel_ascii(pinwheel_a):
    assert render_ascii(pinwheel_a) == "rddd\nrrdl\nrull\nuuul\n"


def test_ascii_regions_one_per_orientation(pinwheel_a):
    text = render_ascii(pinwheel_a)
    assert sorted(set(text.replace("\n", ""))) == ["d", "l", "r", "u"]


def test_ascii_borders_contains_boundaries(pinwheel_a):
    text = render_ascii(pinwheel_a, borders=True)
    lines = text.splitlines()
    assert len(lines) == 9
    assert lines[0].startswith("+-")
    assert "|" in lines[1]


def test_svg_structure(periodic_20x20):
    doc = render_svg(periodic_20x20)
    assert doc.startswith("<svg ")
    assert doc.rstrip().endswith("</svg>")
    assert doc.count("<rect ") == 400
    assert doc.count("<path ") == periodic_20x20.tile_count


def test_svg_highlight_strokes_each_ap_tile(periodic_20x20):
    ap = next(w for w in enumerate_aps(periodic_20x20, 5) if w.length == 5)
    doc = render_svg(periodic_20x20, highlight=(ap,))
    assert doc.count('stroke-width="4"') == 5


def test_rendering_is_deterministic(pinwheel_a, periodic_20x20):
    assert render_svg(periodic_20x20, cell_size=10) == render_svg(periodic_20x20, cell_size=10)
    assert render_ascii(pinwheel_a) == render_ascii(pinwheel_a)


def test_render_options_validation(pinwheel_a):
    for size in (0, -3):
        with pytest.raises(ValueError, match="cell_size must be positive"):
            render_svg(pinwheel_a, cell_size=size)


def test_svg_highlight_of_tiles_outside_the_tiling(pinwheel_a):
    # An AP handed in by a library caller need not be made of the tiling's tiles;
    # its tiles are still outlined, at the highlight stroke width.
    ap = APWitness(Orientation.U, (0, 0), (1, 1), 2)
    assert all(t not in pinwheel_a.tiles for t in ap.tiles())
    doc = render_svg(pinwheel_a, highlight=(ap,))
    for tile in ap.tiles():
        assert f'<path d="{_tile_outline_path(tile, 20)}" stroke="#000000" stroke-width="4"' in doc

from __future__ import annotations

import pytest

from ttr.aps import enumerate_aps
from ttr.render import RenderOptions, render, render_ascii, render_svg


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
    opts = RenderOptions(format="svg")
    doc = render(periodic_20x20, opts)
    assert doc.startswith("<svg ")
    assert doc.rstrip().endswith("</svg>")
    assert doc.count("<rect ") == 400
    assert doc.count("<path ") == periodic_20x20.tile_count


def test_svg_highlight_strokes_each_ap_tile(periodic_20x20):
    ap = next(w for w in enumerate_aps(periodic_20x20, 5) if w.length == 5)
    doc = render_svg(periodic_20x20, RenderOptions(format="svg", highlight=(ap,)))
    assert doc.count('stroke-width="4"') == 5


def test_rendering_is_deterministic(pinwheel_a, periodic_20x20):
    opts = RenderOptions(format="svg", cell_size=10)
    assert render(periodic_20x20, opts) == render(periodic_20x20, opts)
    assert render(pinwheel_a) == render(pinwheel_a)


def test_render_options_validation():
    with pytest.raises(ValueError):
        RenderOptions(format="png")
    with pytest.raises(ValueError):
        RenderOptions(cell_size=0)

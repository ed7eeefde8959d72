"""Rendering tilings to ASCII and SVG."""

from __future__ import annotations

from typing import Sequence

from .grid import Cell, Orientation, Tile, Tiling, tile_cells
from .aps import APWitness

#: Colorblind-safe qualitative palette.
PALETTE: dict[Orientation, str] = {
    Orientation.U: "#e41a1c",
    Orientation.D: "#377eb8",
    Orientation.L: "#4daf4a",
    Orientation.R: "#984ea3",
}


def render_ascii(tiling: Tiling, *, borders: bool = False) -> str:
    """One orientation letter per cell; ``borders`` draws tile boundaries."""
    h, w = tiling.rect.height, tiling.rect.width
    letters = [t.orientation.value for t in tiling.tiles]
    rows = [tiling.owner_row(r) for r in range(h)]
    if not borders:
        return "".join("".join([letters[i] for i in row]) + "\n" for row in rows)

    def owner(r: int, c: int) -> int:
        return rows[r][c] if 0 <= r < h and 0 <= c < w else -1

    # Grid point (r, c) is canvas[2r][2c]; cell (r, c) is its lower-right neighbour.
    # A point is "+" unless its four cells (outside ones count as -1) are one tile.
    canvas = [[" "] * (2 * w + 1) for _ in range(2 * h + 1)]
    for r in range(h + 1):
        for c in range(w + 1):
            nw, ne, sw, se = owner(r - 1, c - 1), owner(r - 1, c), owner(r, c - 1), owner(r, c)
            if not nw == ne == sw == se:
                canvas[2 * r][2 * c] = "+"
            if c < w and ne != se:
                canvas[2 * r][2 * c + 1] = "-"
            if r < h and sw != se:
                canvas[2 * r + 1][2 * c] = "|"
            if r < h and c < w:
                canvas[2 * r + 1][2 * c + 1] = letters[se]
    return "\n".join("".join(row).rstrip() for row in canvas) + "\n"


def _tile_outline_path(tile: Tile, cs: int) -> str:
    """SVG path drawing every boundary edge of the tile's cell set."""
    cells = tile_cells(tile)
    segs: list[tuple[int, int, int, int]] = []
    for r, c in sorted(cells):
        if (r - 1, c) not in cells:
            segs.append((c * cs, r * cs, (c + 1) * cs, r * cs))
        if (r + 1, c) not in cells:
            segs.append((c * cs, (r + 1) * cs, (c + 1) * cs, (r + 1) * cs))
        if (r, c - 1) not in cells:
            segs.append((c * cs, r * cs, c * cs, (r + 1) * cs))
        if (r, c + 1) not in cells:
            segs.append(((c + 1) * cs, r * cs, (c + 1) * cs, (r + 1) * cs))
    return " ".join(f"M{x1} {y1} L{x2} {y2}" for x1, y1, x2, y2 in sorted(segs))


def render_svg(tiling: Tiling, *, cell_size: int = 20, highlight: Sequence[APWitness] = ()) -> str:
    """One ``cell_size``-pixel rect per cell, stroked tile outlines, thick strokes on ``highlight``."""
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    cs = cell_size
    h, w = tiling.rect.height, tiling.rect.width
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * cs}" height="{h * cs}" '
        f'viewBox="0 0 {w * cs} {h * cs}">'
    ]
    colors = [PALETTE[t.orientation] for t in tiling.tiles]
    for r in range(h):
        for c, i in enumerate(tiling.owner_row(r)):
            color = colors[i]
            out.append(
                f'<rect x="{c * cs}" y="{r * cs}" width="{cs}" height="{cs}" fill="{color}"/>'
            )
    # Each tile's outline is computed once, keyed by orientation and anchor,
    # and the highlighted APs reuse it.
    outlines: dict[Orientation, dict[Cell, str]] = {o: {} for o in Orientation}
    for tile in tiling.tiles:
        path = outlines[tile.orientation][tile.anchor] = _tile_outline_path(tile, cs)
        out.append(f'<path d="{path}" stroke="#000000" stroke-width="1" fill="none"/>')
    for ap in highlight:
        known = outlines[ap.orientation]
        for anchor in ap.anchors():
            path = known.get(anchor)
            if path is None:  # an AP passed in need not come from this tiling
                path = _tile_outline_path(Tile(ap.orientation, *anchor), cs)
            out.append(f'<path d="{path}" stroke="#000000" stroke-width="4" fill="none"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"

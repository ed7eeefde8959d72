"""Rendering tilings to ASCII and SVG."""

from __future__ import annotations

from dataclasses import dataclass

from .grid import Orientation, Tile, Tiling, tile_cells
from .aps import APWitness

#: Colorblind-safe qualitative palette.
PALETTE: dict[Orientation, str] = {
    Orientation.U: "#e41a1c",
    Orientation.D: "#377eb8",
    Orientation.L: "#4daf4a",
    Orientation.R: "#984ea3",
}


@dataclass
class RenderOptions:
    format: str = "ascii"  # "ascii" or "svg"
    cell_size: int = 20
    highlight: tuple[APWitness, ...] = ()
    borders: bool = False  # ascii only: draw tile boundaries

    def __post_init__(self):
        if self.format not in ("ascii", "svg"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")


def render(tiling: Tiling, opts: RenderOptions | None = None) -> str:
    """Deterministic text rendering (ASCII letters or an SVG document)."""
    opts = opts or RenderOptions()
    if opts.format == "ascii":
        return render_ascii(tiling, borders=opts.borders)
    return render_svg(tiling, opts)


def render_ascii(tiling: Tiling, *, borders: bool = False) -> str:
    """One orientation letter per cell; ``borders`` draws tile boundaries."""
    h, w = tiling.rect.height, tiling.rect.width
    letters = [t.orientation.value for t in tiling.tiles]
    rows = [tiling.owner_row(r) for r in range(h)]
    if not borders:
        return "".join("".join([letters[i] for i in row]) + "\n" for row in rows)

    canvas = [[" "] * (2 * w + 1) for _ in range(2 * h + 1)]
    for r, row in enumerate(rows):
        for c, i in enumerate(row):
            canvas[2 * r + 1][2 * c + 1] = letters[i]

    def owner(r: int, c: int) -> int:
        if 0 <= r < h and 0 <= c < w:
            return rows[r][c]
        return -1

    for r in range(h + 1):
        for c in range(w):
            if owner(r - 1, c) != owner(r, c):
                canvas[2 * r][2 * c + 1] = "-"
    for r in range(h):
        for c in range(w + 1):
            if owner(r, c - 1) != owner(r, c):
                canvas[2 * r + 1][2 * c] = "|"
    for r in range(h + 1):
        for c in range(w + 1):
            y, x = 2 * r, 2 * c
            near = [
                canvas[y][x - 1] if x > 0 else " ",
                canvas[y][x + 1] if x < 2 * w else " ",
                canvas[y - 1][x] if y > 0 else " ",
                canvas[y + 1][x] if y < 2 * h else " ",
            ]
            if near[0] == "-" or near[1] == "-" or near[2] == "|" or near[3] == "|":
                canvas[y][x] = "+"
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


def render_svg(tiling: Tiling, opts: RenderOptions | None = None) -> str:
    """One rect per cell, stroked tile outlines, thick strokes on highlighted APs."""
    opts = opts or RenderOptions(format="svg")
    cs = opts.cell_size
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
    for tile in tiling.tiles:
        out.append(
            f'<path d="{_tile_outline_path(tile, cs)}" stroke="#000000" '
            f'stroke-width="1" fill="none"/>'
        )
    for ap in opts.highlight:
        for tile in ap.tiles():
            out.append(
                f'<path d="{_tile_outline_path(tile, cs)}" stroke="#000000" '
                f'stroke-width="4" fill="none"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"

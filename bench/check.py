"""Reference answers and an answer checker that share no code with ``ttr``.

Every check here re-derives what it needs from the program's text output
(TTILING, TCOLOR, SVG) or from the plain fields of returned objects, using
its own tile shapes, its own cover check and its own AP scans.  A check
returns ``None`` when the answer is right and a one-line reason otherwise.
"""

from __future__ import annotations

from itertools import combinations

# Tile shapes as cell offsets from the bounding-box corner, keyed by the
# orientation letter used in the TTILING docs (named by where the stem points).
SHAPES: dict[str, frozenset[tuple[int, int]]] = {
    "u": frozenset({(0, 1), (1, 0), (1, 1), (1, 2)}),
    "d": frozenset({(0, 0), (0, 1), (0, 2), (1, 1)}),
    "l": frozenset({(0, 1), (1, 0), (1, 1), (2, 1)}),
    "r": frozenset({(0, 0), (1, 0), (1, 1), (2, 0)}),
}
_LETTER_OF_SHAPE = {shape: letter for letter, shape in SHAPES.items()}
_ROT180 = {"u": "d", "d": "u", "l": "r", "r": "l"}

# The two width-4 units of the A/B projection, as (letter, row, col).
UNIT_A = frozenset({("r", 0, 0), ("d", 0, 1), ("l", 1, 2), ("u", 2, 0)})
UNIT_B = frozenset({("d", 0, 0), ("l", 0, 2), ("r", 1, 0), ("u", 2, 1)})


def strip_count(n: int) -> int:
    """Tilings of the 4 x n strip: 2 * 3^(n/4 - 1)."""
    return 2 * 3 ** (n // 4 - 1)


#: Published answers, keyed by the question.  T(4,3) and T(8,3) are the
#: paper's thresholds, W(2,4) = 35 is classical (Chvatal 1970), and
#: L_vdW = 3 on 4x6 and 8x8 follows from 3x5 (every larger grid contains it)
#: plus an avoider of 4-term APs, which the checker scans itself.  Strip
#: counts come from the formula; 1182 for 8x12 was re-derived with an
#: independent exact-cover count.  count(h, w) must equal count(w, h).
REFERENCE: dict[str, int] = {
    "tvalue 4 3": 36,
    "tvalue 8 3": 36,
    "lvalue 12 12": 2,
    "vdw 4": 35,
    "vdw2d 3 5": 3,
    "vdw2d 4 6": 3,
    "vdw2d 8 8": 3,
    "count 8 12": 1182,
    "count 12 8": 1182,
    **{f"count {h} {w}": strip_count(max(h, w)) for h, w in [(4, 16), (4, 24), (24, 4), (4, 32), (32, 4)]},
}


# --------------------------------------------------------------------------
# Tilings


def parse_ttiling(text: str) -> tuple[int, int, list[tuple[str, int, int]]]:
    """(h, w, tiles) from TTILING text.

    Every cell carries one id, so the tiles cover the grid exactly once; a
    ValueError says some id's cells are not a T-tetromino.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or lines[0] != "TTILING 1":
        raise ValueError("missing TTILING header")
    h, w = (int(x) for x in lines[1].split())
    if len(lines) != h + 2:
        raise ValueError(f"expected {h} grid rows, got {len(lines) - 2}")
    cells: dict[str, list[tuple[int, int]]] = {}
    for r, line in enumerate(lines[2:]):
        ids = line.split()
        if len(ids) != w:
            raise ValueError(f"row {r} has {len(ids)} ids, expected {w}")
        for c, tid in enumerate(ids):
            cells.setdefault(tid, []).append((r, c))
    tiles = []
    for tid, group in cells.items():
        r0 = min(r for r, _ in group)
        c0 = min(c for _, c in group)
        shape = frozenset((r - r0, c - c0) for r, c in group)
        letter = _LETTER_OF_SHAPE.get(shape)
        if letter is None or len(group) != 4:
            raise ValueError(f"tile {tid} is not a T-tetromino")
        tiles.append((letter, r0, c0))
    return h, w, tiles


def cover_error(h: int, w: int, tiles) -> str | None:
    """Why ``tiles`` is not an exact T-cover of h x w, or None."""
    seen: set[tuple[int, int]] = set()
    for letter, r, c in tiles:
        for dr, dc in SHAPES[letter]:
            cell = (r + dr, c + dc)
            if not (0 <= cell[0] < h and 0 <= cell[1] < w):
                return f"tile {letter}@{r},{c} leaves the {h}x{w} rectangle"
            if cell in seen:
                return f"cell {cell} covered twice"
            seen.add(cell)
    if len(seen) != h * w:
        return f"{h * w - len(seen)} cells uncovered"
    return None


def ap_run_lengths(tiles) -> list[int]:
    """Lengths of the maximal runs of two or more equally spaced same-orientation anchors."""
    by_letter: dict[str, set[tuple[int, int]]] = {}
    for letter, r, c in tiles:
        by_letter.setdefault(letter, set()).add((r, c))
    runs = []
    for anchors in by_letter.values():
        for a, b in combinations(sorted(anchors), 2):
            dy, dx = b[0] - a[0], b[1] - a[1]
            if (a[0] - dy, a[1] - dx) in anchors:
                continue  # not the first term of its run
            n, nxt = 2, (b[0] + dy, b[1] + dx)
            while nxt in anchors:
                n += 1
                nxt = (nxt[0] + dy, nxt[1] + dx)
            runs.append(n)
    return runs


def longest_ap_length(tiles) -> int:
    return max(ap_run_lengths(tiles), default=1)


def rotated_180(h: int, w: int, tiles) -> set[tuple[str, int, int]]:
    out = set()
    for letter, r, c in tiles:
        rows = 1 + max(dr for dr, _ in SHAPES[letter])
        cols = 1 + max(dc for _, dc in SHAPES[letter])
        out.add((_ROT180[letter], h - rows - r, w - cols - c))
    return out


def check_witness(text: str, h: int, w: int, ap_len: int, *, rot180: bool = False) -> str | None:
    """A TTILING witness for an ``ap_len``-AP-free tiling of h x w."""
    try:
        th, tw, tiles = parse_ttiling(text)
    except ValueError as e:
        return f"bad TTILING: {e}"
    if (th, tw) != (h, w):
        return f"witness is {th}x{tw}, expected {h}x{w}"
    longest = longest_ap_length(tiles)
    if longest >= ap_len:
        return f"witness contains an AP of length {longest} >= {ap_len}"
    if rot180 and rotated_180(h, w, tiles) != set(tiles):
        return "witness is not 180-degree symmetric"
    return None


# --------------------------------------------------------------------------
# Colorings


def parse_tcolor(text: str) -> list[str]:
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or lines[0] != "TCOLOR 1":
        raise ValueError("missing TCOLOR header")
    h, w = (int(x) for x in lines[1].split())
    rows = lines[2:]
    if len(rows) != h or any(len(row) != w or set(row) - {"A", "B"} for row in rows):
        raise ValueError(f"expected {h} rows of {w} A/B letters")
    return rows


def has_mono_ap(rows: list[str], l: int) -> bool:
    """Whether some l cells in arithmetic progression share one color."""
    h, w = len(rows), len(rows[0])
    for r in range(h):
        for c in range(w):
            color = rows[r][c]
            for dy in range(0, h):
                for dx in range(-w + 1, w):
                    if dy == 0 and dx <= 0:
                        continue
                    if all(
                        0 <= r + k * dy < h and 0 <= c + k * dx < w and rows[r + k * dy][c + k * dx] == color
                        for k in range(1, l)
                    ):
                        return True
    return False


def check_avoider(text: str, h: int, w: int, l: int) -> str | None:
    """A TCOLOR coloring of h x w with no monochromatic l-term AP."""
    try:
        rows = parse_tcolor(text)
    except ValueError as e:
        return f"bad TCOLOR: {e}"
    if (len(rows), len(rows[0])) != (h, w):
        return f"avoider is {len(rows)}x{len(rows[0])}, expected {h}x{w}"
    if has_mono_ap(rows, l):
        return f"avoider has a monochromatic {l}-term AP"
    return None


# --------------------------------------------------------------------------
# SVG


def check_svg(svg: str, witness: str) -> str | None:
    """One cell rect per cell, one outline per tile, thick strokes on every longest AP."""
    h, w, tiles = parse_ttiling(witness)
    runs = ap_run_lengths(tiles)
    longest = max(runs, default=1)
    expected_thick = longest * runs.count(longest) if runs else 1
    got = (svg.count("<rect "), svg.count('stroke-width="1"'), svg.count('stroke-width="4"'))
    want = (h * w, len(tiles), expected_thick)
    if not svg.startswith("<svg") or got != want:
        return f"svg has (cells, outlines, highlights) = {got}, expected {want}"
    return None

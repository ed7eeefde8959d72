"""Error parity of the TTILING reader with the reader it replaced.

Mutated copies of valid TTILING files (characters changed, deleted or
inserted, and tile ids swapped between cells) go through ``read_tiling``
and through the reference reader in ``oracles``.  Both must return equal
tilings, or raise the same exception type with the same text, and that type
must be one the CLI reports as an input error.
"""

from __future__ import annotations

import tempfile
from itertools import islice
from pathlib import Path

from hypothesis import given, settings, strategies as st

import oracles
from ttr.cli import main
from ttr.enumerator import enumerate_tilings
from ttr.errors import ParseError, TilingError
from ttr.grid import Rect, read_tiling, write_tiling

SOURCES = [
    write_tiling(t).encode()
    for h, w in ((4, 4), (4, 8), (8, 4), (8, 8), (8, 12))
    for t in islice(enumerate_tilings(Rect(h, w)), 3)
]
ALPHABET = [b"0", b"1", b"2", b"3", b"7", b"9", b"10", b" ", b"\n", b"\t", b"\r", b"-", b"x", b"\xff", b"\xe2\x80\x83"]


@st.composite
def mutated(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["change", "delete", "insert", "swap", "swap"]))
        at = draw(st.integers(0, len(data) - 1))
        if kind == "change":
            data[at:at + 1] = draw(st.sampled_from(ALPHABET))
        elif kind == "delete":
            del data[at]
        elif kind == "insert":
            data[at:at] = draw(st.sampled_from(ALPHABET))
        else:
            # Swap the ids of two grid cells (lines 3 and on).
            lines = bytes(data).split(b"\n")
            grid = [(r, c) for r in range(2, len(lines)) for c in range(len(lines[r].split()))]
            if len(grid) < 2:
                continue
            (r1, c1), (r2, c2) = draw(st.lists(st.sampled_from(grid), min_size=2, max_size=2, unique=True))
            rows = {r: lines[r].split() for r in (r1, r2)}
            rows[r1][c1], rows[r2][c2] = rows[r2][c2], rows[r1][c1]
            for r, tokens in rows.items():
                lines[r] = b" ".join(tokens)
            data = bytearray(b"\n".join(lines))
    return bytes(data)


def _outcome(reader, data: bytes):
    try:
        return reader(data)
    except (ParseError, TilingError) as e:
        return type(e), str(e)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mutated())
def test_mutated_files_read_like_the_reference_reader(data):
    got = _outcome(read_tiling, data)
    assert got == _outcome(oracles.read_tiling, data)
    if isinstance(got, tuple):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.ttiling"
            path.write_bytes(data)
            assert main(["verify", "--in", str(path)]) == 1

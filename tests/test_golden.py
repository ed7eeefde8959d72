"""Byte-for-byte pins on the per-tiling analysis layers.

The digest covers, for every tiling of 8x12 and 4x24 in enumeration order,
the TTILING text, the longest-AP witness, the CHAIN text and the cut check,
and for every tiling of 4x16 its unit decomposition and its A/B projection.
It was taken before the hot paths behind these functions were rewritten, so
a faster version must reproduce the old output exactly.
"""

from __future__ import annotations

import hashlib

from ttr.aps import longest_ap
from ttr.chains import build_chain_graph, write_chain
from ttr.enumerator import enumerate_tilings
from ttr.grid import Rect, cut_cornerless_ok, write_tiling
from ttr.width4 import ab_map, decompose

GOLDEN_SHA1 = "7db9ae3b90cd5864f65498789f25e2835b3861ac"


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


def test_analysis_output_matches_golden_digest():
    assert analysis_digest() == GOLDEN_SHA1

"""The interned placement table and the layers that read it.

Every layer takes its ``Tile`` objects from ``grid.placement_table``: the
enumerator, the CNF encoder (a CNF's variables are table tiles), the
TTILING reader and chain decoding.  These tests pin the table's order
against placements built one by one, a CNF's tiles against the Walkup
filter of those placements, object identity across the layers, the bound
on the table cache, and the AP-blocking encoder's skipped anchor pairs
against the loop that visited every pair.  The chain
layer's own table stores indices into the placement table, so chain
decoding must return the tiles of a placement table that was evicted and
built again, and it must raise what the per-edge decoder raised.
"""

from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ttr.cdcl import solve_clauses
from ttr.chains import ChainGraph, build_chain_graph, chain_table, chain_to_tiling
from ttr.cnf import add_ap_blocking, build_cnf, decode_model
from ttr.decide import compute_T
from ttr.enumerator import enumerate_tilings
from ttr.errors import StructureError, TilingError
from ttr.grid import PLACEMENT_ORDER, WALKUP_CLASSES, Rect, placement_table, read_tiling, tile_cells, write_tiling

SIDES = range(1, 25)


def test_placements_keep_their_order_and_objects():
    for h in SIDES:
        for w in (1, 2, 3, 5, 8, 13, 24):
            rect = Rect(h, w)
            tiles = placement_table(rect).tiles
            assert tiles == oracles.placements(rect)
            assert placement_table(Rect(h, w)).tiles is tiles


def test_table_fields_describe_each_tile():
    for rect in (Rect(3, 3), Rect(4, 8), Rect(7, 5)):
        table = placement_table(rect)
        w = rect.width
        for tile, quad, walkup in zip(table.tiles, table.cells, table.walkup, strict=True):
            assert quad == tuple(sorted(r * w + c for r, c in tile_cells(tile)))
            assert table.by_cells[quad] is tile
            assert walkup == ((tile.orientation, tile.row % 4, tile.col % 4) in WALKUP_CLASSES)
        assert len(table.by_cells) == len(table.tiles)


def test_placement_index_equals_the_walkup_filter():
    for h in SIDES:
        for w in SIDES:
            tiles = oracles.walkup_placements(Rect(h, w))
            try:
                cnf = build_cnf(Rect(h, w))
            except ValueError:
                # A rectangle has an uncoverable cell only when no placement fits (1 x n, 2 x 2).
                assert not tiles
                continue
            assert cnf.tiles == tiles


def test_layers_return_the_tables_own_tiles():
    rect = Rect(8, 12)
    interned = {PLACEMENT_ORDER(t): t for t in placement_table(rect).tiles}

    def assert_interned(tiling):
        for t in tiling.tiles:
            assert interned[PLACEMENT_ORDER(t)] is t

    tilings = list(islice(enumerate_tilings(rect), 40))
    for tiling in tilings:
        assert_interned(tiling)
        assert_interned(read_tiling(write_tiling(tiling)))
        assert_interned(chain_to_tiling(build_chain_graph(tiling)))
    cnf = build_cnf(rect)
    result = solve_clauses(cnf.num_vars, cnf.clauses)
    assert_interned(decode_model(cnf, result.model))


def test_table_cache_stays_bounded():
    assert compute_T(4, 3).value == 36
    # The rectangles of tvalue scans over widths 4 and 8 up to length 100, both ways round.
    for w in (4, 8):
        for n in range(4, 101, 4):
            placement_table(Rect(w, n))
            placement_table(Rect(n, w))
    info = placement_table.cache_info()
    assert info.maxsize == 32
    assert info.currsize == info.maxsize


def test_chain_lookups_follow_the_live_table():
    rect = Rect(8, 12)
    tilings = list(islice(enumerate_tilings(rect), 20))
    graphs = [build_chain_graph(t) for t in tilings]
    first = placement_table(rect)
    chains = chain_table(rect)
    assert [chain_to_tiling(g) for g in graphs] == tilings
    for n in range(1, 40):
        placement_table(Rect(2, n))  # more than the cache holds: the 8x12 table is evicted
    table = placement_table(rect)
    assert table is not first and chain_table(rect) is chains
    interned = {PLACEMENT_ORDER(t): t for t in table.tiles}
    for tiling, graph in zip(tilings, graphs):
        assert build_chain_graph(tiling) == graph
        chained = chain_to_tiling(graph)
        assert chained == tiling
        for t in chained.tiles:
            assert interned[PLACEMENT_ORDER(t)] is t


CHAIN_SOURCES = [
    (rect, build_chain_graph(t))
    for rect in (Rect(4, 4), Rect(4, 8), Rect(8, 8))
    for t in islice(enumerate_tilings(rect), 4)
]
BAD_EDGES = st.one_of(
    # Anything from one block grid point to another, inside, around or outside the grid.
    st.tuples(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), st.tuples(st.integers(-1, 4), st.integers(-1, 4))),
    # A block step from anywhere near the grid: good alone, but it may overlap or leave the grid.
    st.builds(
        lambda r, c, d: ((r, c), (r + d[0], c + d[1])),
        st.integers(-1, 4), st.integers(-1, 4), st.sampled_from([(0, 1), (0, -1), (1, 0), (-1, 0)]),
    ),
)


def _decoded(decode, graph):
    try:
        return decode(graph)
    except (StructureError, TilingError) as e:
        return type(e), str(e)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(CHAIN_SOURCES), st.integers(0, 31), BAD_EDGES, st.booleans())
def test_chain_to_tiling_errors_match_the_per_edge_decoder(source, at, bad, warm):
    """Good edges of a chain graph plus one other edge, instead of or besides one of them."""
    rect, graph = source
    if warm:
        chain_to_tiling(graph)  # its good edges now hit the lookup
    edges = sorted(graph.edges)
    edges[at % len(edges)] = bad
    mixed = ChainGraph(rect, edges)
    for candidate in (mixed, ChainGraph(rect, list(graph.edges) + [bad])):
        assert _decoded(chain_to_tiling, candidate) == _decoded(oracles.chain_to_tiling, candidate)


AP_CASES = [
    (h, w, l) for h in range(4, 25, 4) for w in range(4, 25, 4) for l in (3, 4, 5)
] + [(16, 140, 4)]


@pytest.mark.parametrize("h, w, l", AP_CASES)
def test_ap_blocking_skips_only_pairs_without_a_window(h, w, l):
    cnf = build_cnf(Rect(h, w))
    blocked = add_ap_blocking(cnf, l)
    assert blocked.clauses == cnf.clauses + tuple(oracles.ap_blocking_clauses(cnf, l))


@pytest.mark.parametrize("h, w, l", [(4, 8, 2), (5, 7, 3), (6, 10, 3), (7, 9, 4)])
def test_ap_blocking_without_the_walkup_restriction(h, w, l):
    cnf = build_cnf(Rect(h, w))
    assert add_ap_blocking(cnf, l).clauses == cnf.clauses + tuple(oracles.ap_blocking_clauses(cnf, l))

from __future__ import annotations

import pytest

from ttr.errors import ParseError, ResourceLimitError, StructureError, TilingError
from ttr.enumerator import enumerate_tilings
from ttr.grid import PLACEMENT_ORDER, WALKUP_CLASSES, Orientation, Rect, Tile, placement_table, tile_cells
from ttr.aps import enumerate_aps
from ttr.chains import (
    ARROW_TILE_TABLE,
    ChainGraph,
    ShadedArrow,
    _gray_side,
    antiblock_coloring,
    arrow_for_tile,
    build_chain_graph,
    chain_table,
    chain_to_tiling,
    hv_enumerate,
    majority_minority,
    read_chain,
    shaded_arrow_aps,
    shaded_arrows,
    tile_for_arrow,
    write_chain,
)


def test_antiblock_checkerboard():
    blocks = {ab.center: ab.color for ab in antiblock_coloring(Rect(8, 8))}
    assert len(blocks) == 9
    for (r, c), color in blocks.items():
        for nb in ((r + 2, c), (r, c + 2)):
            if nb in blocks:
                assert blocks[nb] != color


def test_4x4_single_antiblock_is_gray():
    (ab,) = antiblock_coloring(Rect(4, 4))
    assert ab.center == (2, 2)
    assert ab.color == "gray"


def test_majority_minority_trivial_example():
    maj, mino = majority_minority(Tile(Orientation.D, 0, 0))
    assert (maj, mino) == ((0, 0), (0, 1))


def test_pinwheel_chain_is_a_four_cycle(pinwheel_a):
    g = build_chain_graph(pinwheel_a)
    assert len(g.edges) == 4
    succ = {u: v for u, v in g.edges}
    assert len(succ) == 4
    node = (0, 0)
    seen = [node]
    for _ in range(4):
        node = succ[node]
        if node == (0, 0):
            break
        seen.append(node)
    assert len(seen) == 4 and node == (0, 0)


def test_edge_count_equals_tile_count(corpus):
    for tiling in corpus[(8, 8)]:
        assert len(build_chain_graph(tiling).edges) == tiling.tile_count


def test_arrow_table_regression(corpus):
    derived = {}
    for tiling in corpus[(8, 8)]:
        for tile in tiling.tiles:
            maj, mino = majority_minority(tile)
            d = (mino[0] - maj[0], mino[1] - maj[1])
            side = _gray_side((maj, mino))
            off = (tile.row - 2 * maj[0], tile.col - 2 * maj[1])
            key = (d, side)
            val = (tile.orientation, off)
            assert derived.setdefault(key, val) == val
    assert derived == ARROW_TILE_TABLE


def test_every_edge_has_one_gray_flank(corpus):
    for tiling in corpus[(8, 8)]:
        g = build_chain_graph(tiling)
        for edge in g.edges:
            assert _gray_side(edge) in ("L", "R")


def test_arrow_tile_round_trip(corpus):
    for rect_key in [(4, 4), (4, 8), (8, 8), (8, 12)]:
        for tiling in corpus[rect_key]:
            for tile in tiling.tiles:
                arrow = arrow_for_tile(tiling, tile)
                assert tile_for_arrow(tiling.rect, arrow) == tile


def test_pinwheel_arrows_consistent_shading(pinwheel_a):
    arrows = [arrow_for_tile(pinwheel_a, t) for t in pinwheel_a.tiles]
    assert len({a.side for a in arrows}) == 1  # one gray box serves all four


def test_tile_for_arrow_rejects_bad_input():
    with pytest.raises(StructureError):
        tile_for_arrow(Rect(8, 8), ShadedArrow((((0, 0)), (2, 0)), "L"))
    edge = ((0, 0), (0, 1))
    good = _gray_side(edge)
    bad = "L" if good == "R" else "R"
    with pytest.raises(StructureError):
        tile_for_arrow(Rect(8, 8), ShadedArrow(edge, bad))


def reference_tile(rect, edge):
    """The per-edge derivation: gray side by ``_gray_side``, then adjacency, bounds and the arrow table."""
    side = _gray_side(edge)
    (r1, c1), (r2, c2) = edge
    d = (r2 - r1, c2 - c1)
    if abs(d[0]) + abs(d[1]) != 1:
        raise StructureError(f"edge {edge} endpoints are not adjacent blocks")
    for blk in edge:
        if not (0 <= blk[0] < rect.height // 2 and 0 <= blk[1] < rect.width // 2):
            raise StructureError(f"block {blk} outside {rect}")
    orient, (dr, dc) = ARROW_TILE_TABLE[(d, side)]
    return side, Tile(orient, 2 * r1 + dr, 2 * c1 + dc)


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the text of the StructureError it raises."""
    try:
        return fn(*args)
    except StructureError as e:
        return f"StructureError: {e}"


def one_edge_cover(rect, edge):
    """The cells ``chain_to_tiling`` covers for a one-edge graph (not a tiling, so read off its report)."""
    with pytest.raises(TilingError) as exc:
        chain_to_tiling(ChainGraph(rect, [edge]))
    return set(rect.cells()) - {v.cell for v in exc.value.report.violations}


def test_parity_table_matches_per_edge_derivation():
    rect = Rect(8, 12)
    steps = [(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)] + [(0, 3), (3, 0), (-3, 1)]
    inside = 0
    for r1 in range(-3, 6):
        for c1 in range(-3, 8):
            for dy, dx in steps:
                edge = ((r1, c1), (r1 + dy, c1 + dx))
                graph = ChainGraph(rect, [edge])
                want = outcome(reference_tile, rect, edge)
                assert outcome(lambda: [a.side for a in shaded_arrows(graph)]) == outcome(
                    lambda: [_gray_side(edge)]
                )
                if isinstance(want, str):
                    assert outcome(chain_to_tiling, graph) == want, edge
                    for side in "LR":
                        assert outcome(tile_for_arrow, rect, ShadedArrow(edge, side)).startswith(
                            "StructureError: "
                        )
                    continue
                inside += 1
                side, tile = want
                assert one_edge_cover(rect, edge) == tile_cells(tile)
                assert tile_for_arrow(rect, ShadedArrow(edge, side)) == tile
                other = ShadedArrow(edge, "L" if side == "R" else "R")
                assert outcome(tile_for_arrow, rect, other) == (
                    f"StructureError: arrow {other} shading inconsistent with the antiblock coloring"
                )
    assert inside == 2 * 4 * 5 + 2 * 3 * 6  # block steps inside the 4x6 block grid


def test_walkup_placements_pair_with_block_steps():
    """Walkup's pairing on every even rectangle up to 24x24, against ``reference_tile``."""
    graphs = [build_chain_graph(t) for t in enumerate_tilings(Rect(8, 8), limit=5)]
    for h in range(2, 25, 2):
        for w in range(2, 25, 2):
            rect = Rect(h, w)
            rows, cols = h // 2, w // 2
            steps = [
                ((r, c), (r + dy, c + dx))
                for r in range(rows)
                for c in range(cols)
                for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0))
                if 0 <= r + dy < rows and 0 <= c + dx < cols
            ]
            tiles = placement_table(rect).tiles
            walkup = [t for t in tiles if (t.orientation, t.row % 4, t.col % 4) in WALKUP_CLASSES]
            paired = {reference_tile(rect, edge)[1]: edge for edge in steps}
            assert len(paired) == len(steps) and set(paired) == set(walkup), rect
            table = chain_table(rect)
            assert len(table.edges) == len(table.tile_index) == len(steps)
            for tile, edge in paired.items():
                assert table.edges[PLACEMENT_ORDER(tile)] == edge
                assert tiles[table.tile_index[edge]] == tile
    # More than 32 other tables were built since these graphs: decoding still returns the live tiles.
    live = {PLACEMENT_ORDER(t): t for t in placement_table(Rect(8, 8)).tiles}
    for graph in graphs:
        for t in chain_to_tiling(graph).tiles:
            assert live[PLACEMENT_ORDER(t)] is t


def test_chain_round_trip(corpus):
    for tiling in corpus[(4, 8)]:
        assert chain_to_tiling(build_chain_graph(tiling)) == tiling


def test_hv_enumerate_matches_brute_force(corpus):
    for rect_key in [(4, 4), (4, 8), (4, 12), (8, 8)]:
        rect = Rect(*rect_key)
        brute = {build_chain_graph(t) for t in corpus[rect_key]}
        hv = list(hv_enumerate(rect))
        assert len(hv) == len(set(hv))
        assert set(hv) == brute


def test_hv_graphs_map_back_to_all_tilings(corpus):
    rect = Rect(8, 8)
    from_hv = {chain_to_tiling(g) for g in hv_enumerate(rect)}
    assert from_hv == set(corpus[(8, 8)])


def test_reversed_pinwheel_cycle_is_the_other_pinwheel(pinwheel_a, pinwheel_b):
    g = build_chain_graph(pinwheel_a)
    assert chain_to_tiling(g.reversed()) == pinwheel_b


def test_pinwheel_has_no_arrow_pairs(pinwheel_a):
    assert shaded_arrow_aps(build_chain_graph(pinwheel_a), 2) == []


def test_periodic_20x20_arrow_aps(periodic_20x20):
    g = build_chain_graph(periodic_20x20)
    assert max(ap.length for ap in shaded_arrow_aps(g, 2)) == 5


def test_arrow_ap_lemma_on_8x12(corpus):
    for tiling in corpus[(8, 12)]:
        g = build_chain_graph(tiling)
        has_tile_triple = any(ap.length >= 3 for ap in enumerate_aps(tiling, 2))
        has_arrow_triple = any(ap.length >= 3 for ap in shaded_arrow_aps(g, 2))
        assert has_tile_triple == has_arrow_triple


def test_some_tile_pair_has_no_arrow_pair(corpus):
    # Length-2 APs need not survive the arrow translation; find a witness.
    found = False
    for tiling in corpus[(8, 8)]:
        for ap in enumerate_aps(tiling, 2):
            if ap.length == 2:
                a1, a2 = (arrow_for_tile(tiling, t) for t in ap.tiles())
                if (a1.direction, a1.side) != (a2.direction, a2.side):
                    found = True
                    break
        if found:
            break
    assert found


def test_chain_format_round_trip(corpus):
    for tiling in corpus[(8, 8)][:5]:
        g = build_chain_graph(tiling)
        text = write_chain(g)
        lines = text.splitlines()
        assert lines[0] == "CHAIN 1"
        assert lines[1] == "8 8"
        assert lines[2:] == sorted(lines[2:])
        back = read_chain(text)
        assert back == g


@pytest.mark.parametrize("token", ["-1", "+1", "\u0661", "\u00b2", "1.0", "x"])
def test_read_chain_edge_tokens_are_ascii_decimal(token):
    with pytest.raises(ParseError) as exc:
        read_chain(f"CHAIN 1\n4 4\n0 0 0 1\n{token} 0 0 0\n")
    assert exc.value.line == 4


@pytest.mark.parametrize("edge", ["2 0 1 0", "0 3 0 2", "1 0 2 0", "0 2 0 3", "0 0 9 9"])
def test_read_chain_edges_stay_in_the_block_grid(edge):
    # 4x6 cells have a 2x3 block grid.
    with pytest.raises(ParseError) as exc:
        read_chain(f"CHAIN 1\n4 6\n0 0 0 1\n{edge}\n")
    assert exc.value.line == 4
    assert read_chain("CHAIN 1\n4 6\n1 2 0 2\n").edges == {((1, 2), (0, 2))}


def test_read_chain_rejects_a_repeated_edge():
    with pytest.raises(ParseError) as exc:
        read_chain("CHAIN 1\n4 4\n0 0 0 1\n0 1 1 1\n0 0 0 1\n")
    assert exc.value.line == 5


@pytest.mark.parametrize("dims", ["3 3", "3 4", "4 3"])
def test_read_chain_odd_dimensions_are_a_parse_error(dims):
    with pytest.raises(ParseError) as exc:
        read_chain(f"CHAIN 1\n{dims}\n")
    assert exc.value.line == 2


def test_hv_resource_bound():
    with pytest.raises(ResourceLimitError):
        list(hv_enumerate(Rect(16, 16)))


def test_cycle_decomposition_property(corpus):
    # Every chain graph is 1-in 1-out: its edges partition into directed cycles.
    for tiling in corpus[(8, 12)][:200]:
        g = build_chain_graph(tiling)
        outs = {}
        ins = {}
        for u, v in g.edges:
            assert u not in outs
            assert v not in ins
            outs[u] = v
            ins[v] = u
        assert set(outs) == set(ins)

from __future__ import annotations

import hashlib
from itertools import islice

import pytest

import oracles
from oracles import ARROW_TILE_TABLE
from ttr.errors import ParseError, ResourceLimitError, StructureError, TilingError
from ttr.enumerator import enumerate_tilings
from ttr.grid import ORIENTATIONS, PLACEMENT_ORDER, WALKUP_CLASSES, Orientation, Rect, Tile, placement_table, tile_cells
from ttr.aps import enumerate_aps
from ttr.chains import (
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
                arrow = arrow_for_tile(tile)
                assert tile_for_arrow(tiling.rect, arrow) == tile


def test_pinwheel_arrows_consistent_shading(pinwheel_a):
    arrows = [arrow_for_tile(t) for t in pinwheel_a.tiles]
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
                        assert outcome(tile_for_arrow, rect, ShadedArrow(edge, side)) == want, (edge, side)
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


@pytest.mark.parametrize("dims", [(5, 5), (5, 8), (7, 9)], ids=lambda d: f"{d[0]}x{d[1]}")
def test_tile_for_arrow_on_odd_sides_matches_the_frozen_table(dims):
    """An odd side leaves a partial last row or column of blocks: placements reach into it, arrows may not."""
    rect = Rect(*dims)
    rows, cols = rect.height // 2, rect.width // 2
    steps = [(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)]
    answered = 0
    for r1 in range(-2, rows + 2):
        for c1 in range(-2, cols + 2):
            for dy, dx in steps:
                for side in "LR":
                    arrow = ShadedArrow(((r1, c1), (r1 + dy, c1 + dx)), side)
                    got = outcome(tile_for_arrow, rect, arrow)
                    want = outcome(oracles.tile_for_arrow, rect, arrow)
                    if isinstance(want, Tile):
                        answered += 1
                        assert got == want, arrow
                    else:
                        assert isinstance(got, str), arrow
    assert answered == 2 * rows * (cols - 1) + 2 * (rows - 1) * cols  # block steps inside the grid
    assert max(edge[1][0] for edge in chain_table(rect).tile_index) == rows  # the partial block row


def test_majority_minority_splits_half_the_parity_classes():
    """Eight (orientation, row & 1, col & 1) classes split 3+1 into adjacent blocks; the other eight raise."""
    splits = {}
    for o in ORIENTATIONS:
        for pr in (0, 1):
            for pc in (0, 1):
                tile = Tile(o, pr, pc)
                try:
                    maj, mino = majority_minority(tile)
                except StructureError as e:
                    assert str(e).startswith(f"tile {tile} does not split 3+1 across two blocks: "), e
                    continue
                assert abs(maj[0] - mino[0]) + abs(maj[1] - mino[1]) == 1, tile
                splits[(o, pr, pc)] = (maj, mino)
    assert len(splits) == 8
    # Moving a tile by an even vector moves its blocks by half that vector.
    rect = Rect(12, 12)
    recorded = chain_table(rect).edges
    for tile in placement_table(rect).tiles:
        if PLACEMENT_ORDER(tile) in recorded:
            (mr, mc), (nr, nc) = splits[(tile.orientation, tile.row & 1, tile.col & 1)]
            br, bc = tile.row >> 1, tile.col >> 1
            assert recorded[PLACEMENT_ORDER(tile)] == ((br + mr, bc + mc), (br + nr, bc + nc)), tile


def test_walkup_placements_pair_with_block_steps():
    """Walkup's pairing on every even rectangle up to 24x24, against ``reference_tile``."""
    graphs = [build_chain_graph(t) for t in islice(enumerate_tilings(Rect(8, 8)), 5)]
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


# SHA-256 of the concatenated ``write_chain`` texts of ``hv_enumerate``'s
# stream, for every rectangle of at most 96 cells with sides divisible by 4:
# pins the order as well as the set of graphs.
HV_STREAM_SHA256 = {
    (4, 4): "3bc3cbbb7ecf7d2716d4401f179455c1e23f076951b0f76d7069210385db56ec",
    (4, 8): "8477cb37001db82b64bfa11eeec6bb9900a5514925cbcd9623ae187f5dedd554",
    (4, 12): "0d11606c4a6c02e25d75e5e533ca7be8c0db38c8e59be016bb5df9e986aa6452",
    (4, 16): "561b2f81f33f9e23ae2ad4b798eecc431fc6644148b5fe489763d959987515bc",
    (4, 20): "cddde5aa4519a48d7537b8c94c7ebb3ec9dacc75e0ec904fd4282638493ba536",
    (4, 24): "246cf6cc8c818d0737042ada4a520de1540f6b3f06a4cb1df8b14021e8630d52",
    (8, 4): "30cf3837761a5f8cf239ceecb9974ecd93ab7db7a0e67f28bc8c104747f1b51f",
    (8, 8): "fab233787ca8351196130cca4af4297b94c37bf54e5cd30fe873e62c5633bbaa",
    (8, 12): "0500700c069f40257cae3747e4857ce97f796f30ec7926805b55e6c243dccb58",
    (12, 4): "8dc5c0b20ac75299f014b3cb1a82be5deec0d0ed39c1ba160afe3569e388787b",
    (12, 8): "8120aa35fd3496d09e6b1c15c2271868bea3abc6e322124b407b5e35b97bf1bc",
    (16, 4): "bdd25230876ad4a5c17cbcee8a7faac28f8e87628efe7ec4db1490a771787ed9",
    (20, 4): "ab38b14fa050c31f47228c686fe311aefdbd534b4128919911877787d10f0b87",
    (24, 4): "3d829fc5b7acf7b657ecfe8fa908afcf5e27ca9c7d20b85f073847d65cf49ac7",
}


@pytest.mark.parametrize("dims", sorted(HV_STREAM_SHA256), ids=lambda d: f"{d[0]}x{d[1]}")
def test_hv_stream_order_is_pinned(dims):
    texts = "".join(write_chain(g) for g in hv_enumerate(Rect(*dims)))
    assert hashlib.sha256(texts.encode()).hexdigest() == HV_STREAM_SHA256[dims]


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
                a1, a2 = (arrow_for_tile(t) for t in ap.tiles())
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
        back = oracles.read_chain(text)
        assert back == g


@pytest.mark.parametrize("token", ["-1", "+1", "\u0661", "\u00b2", "1.0", "x"])
def test_read_chain_edge_tokens_are_ascii_decimal(token):
    with pytest.raises(ParseError) as exc:
        oracles.read_chain(f"CHAIN 1\n4 4\n0 0 0 1\n{token} 0 0 0\n")
    assert exc.value.line == 4


@pytest.mark.parametrize("edge", ["2 0 1 0", "0 3 0 2", "1 0 2 0", "0 2 0 3", "0 0 9 9"])
def test_read_chain_edges_stay_in_the_block_grid(edge):
    # 4x6 cells have a 2x3 block grid.
    with pytest.raises(ParseError) as exc:
        oracles.read_chain(f"CHAIN 1\n4 6\n0 0 0 1\n{edge}\n")
    assert exc.value.line == 4
    assert oracles.read_chain("CHAIN 1\n4 6\n1 2 0 2\n").edges == {((1, 2), (0, 2))}


def test_read_chain_rejects_a_repeated_edge():
    with pytest.raises(ParseError) as exc:
        oracles.read_chain("CHAIN 1\n4 4\n0 0 0 1\n0 1 1 1\n0 0 0 1\n")
    assert exc.value.line == 5


@pytest.mark.parametrize("dims", ["3 3", "3 4", "4 3"])
def test_read_chain_odd_dimensions_are_a_parse_error(dims):
    with pytest.raises(ParseError) as exc:
        oracles.read_chain(f"CHAIN 1\n{dims}\n")
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


@pytest.mark.parametrize("build, message", [
    (lambda: ChainGraph(Rect(4, 5), []), "rectangle sides must be even, got 4x5"),
    (lambda: antiblock_coloring(Rect(4, 6)), "rectangle sides must be multiples of 4, got 4x6"),
    (lambda: next(hv_enumerate(Rect(6, 8))), "rectangle sides must be multiples of 4, got 6x8"),
    (lambda: shaded_arrow_aps(ChainGraph(Rect(4, 4), []), 1), "min_len must be >= 2, got 1"),
], ids=["chain-graph-odd", "antiblocks", "hv-enumerate", "shaded-arrow-aps"])
def test_chain_inputs_are_checked(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()

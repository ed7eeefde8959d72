from __future__ import annotations

import hashlib

import pytest

from ttr.errors import ResourceLimitError
from ttr.grid import PLACEMENT_ORDER, Orientation, Tile, tile_cells
from ttr.boundary import _candidates, boundary_forces, enumerate_boundary_coverings


def test_single_square_has_six_coverings():
    covs = enumerate_boundary_coverings(1)
    assert len(covs) == 6
    # three D shifts plus one each of U, L, R
    orients = sorted(c.tiles[0].orientation.value for c in covs)
    assert orients == ["d", "d", "d", "l", "r", "u"]


def test_candidates_are_the_six_row0_placements():
    # U's stem, the top of an L or R bar, or any of a D bar's three cells.
    # Masks set bit r * (n + 4) + c + 2 for each cell (r, c) of the tile.
    for n in range(1, 13):
        candidates = _candidates(n)
        assert len(candidates) == n
        for col, pairs in enumerate(candidates):
            listed = [
                Tile(Orientation.U, 0, col - 1),
                Tile(Orientation.D, 0, col - 2),
                Tile(Orientation.D, 0, col - 1),
                Tile(Orientation.D, 0, col),
                Tile(Orientation.L, 0, col - 1),
                Tile(Orientation.R, 0, col),
            ]
            assert [tile for _mask, tile in pairs] == sorted(listed, key=PLACEMENT_ORDER)
            for mask, tile in pairs:
                assert mask == sum(1 << (r * (n + 4) + c + 2) for r, c in tile_cells(tile))


def test_covering_counts_are_pinned():
    assert [len(enumerate_boundary_coverings(n)) for n in range(1, 13)] == [
        6, 10, 14, 18, 31, 50, 70, 99, 161, 251, 359, 528]


def test_covering_stream_is_pinned():
    # SHA-256 of repr((n, tiles)) of every covering in enumeration order.
    digest = hashlib.sha256()
    for n in range(1, 13):
        for cov in enumerate_boundary_coverings(n):
            digest.update(repr((cov.n, cov.tiles)).encode())
    assert digest.hexdigest() == "cb52f3113d026bfc4d6f2f82a9d67df51e7e6cef353f7327e01ca9550bf60860"


def test_coverings_are_disjoint_and_minimal():
    for n in (3, 5, 6):
        for cov in enumerate_boundary_coverings(n):
            seen = set()
            for t in cov.tiles:
                cells = tile_cells(t)
                assert not (cells & seen)
                seen |= cells
                assert min(r for r, _ in cells) >= 0
                assert any(r == 0 and 0 <= c < n for r, c in cells), (n, t)
            covered = {c for r, c in seen if r == 0}
            assert set(range(n)) <= covered


def test_seven_squares_force_a_pair():
    assert boundary_forces(7, 2) is True


def test_six_squares_do_not_force_a_pair():
    assert boundary_forces(6, 2) is False
    # The classic witness uses all four orientations once: d covers three
    # squares, u, l and r one each.
    witnesses = [
        cov
        for cov in enumerate_boundary_coverings(6)
        if not cov.has_ap(2)
    ]
    assert witnesses
    assert any(
        sorted((t.orientation for t in cov.tiles), key=lambda o: o.index)
        == [Orientation.U, Orientation.D, Orientation.L, Orientation.R]
        for cov in witnesses
    )


def test_three_squares_do_not_force_a_pair():
    assert boundary_forces(3, 2) is False
    assert any(len(cov.tiles) == 1 for cov in enumerate_boundary_coverings(3))


def test_every_orientation_quadruple_covers_at_most_six():
    # Cross-check of the counting argument behind the length-7 theorem: any
    # AP-free covering uses at most one tile per orientation, hence covers at
    # most 3+1+1+1 = 6 boundary squares.
    for n in range(1, 8):
        for cov in enumerate_boundary_coverings(n):
            if not cov.has_ap(2):
                assert len(cov.tiles) <= 4
                assert n <= 6


def test_resource_bound():
    with pytest.raises(ResourceLimitError):
        enumerate_boundary_coverings(13)
    with pytest.raises(ResourceLimitError):
        boundary_forces(0, 2)

import numpy as np
import pytest

from floatsim.roadnet import (DegenerateGridError, InvalidParameterError, OffGridError,
                              RasterResolutionError, build_manhattan, grid_from_json,
                              grid_to_json, link_of, raster_embed)


def expected_link_count(rows, cols):
    lattice = (rows - 1) * (cols - 2) + (cols - 1) * (rows - 2)
    stubs = 2 * (rows - 1) + 2 * (cols - 1)
    return lattice + stubs


def test_reference_grid_counts(grid):
    assert grid.num_links == 31
    assert len(grid.intersections) == 12


def test_plus_sign_grid():
    g = build_manhattan(2, 2, 100.0)
    assert len(g.intersections) == 1
    assert g.num_links == 4
    assert all(ln.is_border_stub for ln in g.links)
    assert all(ln.length == pytest.approx(100.0) for ln in g.links)


def test_degenerate_and_invalid_parameters():
    with pytest.raises(DegenerateGridError):
        build_manhattan(1, 1, 150.0)
    with pytest.raises(DegenerateGridError):
        build_manhattan(1, 5, 150.0)
    with pytest.raises(InvalidParameterError):
        build_manhattan(3, 3, 0.0)
    with pytest.raises(InvalidParameterError):
        build_manhattan(3, 3, -2.0)


def test_link_count_formula_against_enumeration():
    for rows in range(2, 21, 3):
        for cols in range(2, 21, 3):
            g = build_manhattan(rows, cols, 50.0)
            assert g.num_links == expected_link_count(rows, cols), (rows, cols)
            assert len(g.intersections) == (rows - 1) * (cols - 1)
            # independent recount: stubs touch the border, lattice edges do not
            stubs = sum(1 for ln in g.links if ln.is_border_stub)
            assert stubs == 2 * (rows - 1) + 2 * (cols - 1)
            for ln in g.links:
                assert ln.length > 0
                if ln.is_border_stub:
                    assert ln.length == pytest.approx(50.0)


def test_adjacency_is_consistent(grid):
    for k, incident in enumerate(grid.adjacency):
        point = grid.intersections[k]
        for lid in incident:
            ln = grid.links[lid]
            assert any(np.allclose(point, p) for p in (ln.p1, ln.p2))
    # interior intersections of the reference grid all have degree 4
    assert all(len(adj) == 4 for adj in grid.adjacency)


def test_link_of_midpoint_identity(grid):
    for ln in grid.links:
        assert link_of(grid, ln.midpoint) == ln.id


def test_link_of_tie_breaks_to_smallest_id(grid):
    # a point at an intersection is equidistant (0) from all incident links
    point = grid.intersections[0]
    incident = grid.adjacency[0]
    assert link_of(grid, point) == min(incident)


def test_link_of_off_grid(grid):
    with pytest.raises(OffGridError):
        link_of(grid, (-20.0, -20.0))
    # inside the bounding box but far from every link
    with pytest.raises(OffGridError):
        link_of(grid, (75.0, 75.0))


def test_link_of_matches_brute_force(grid):
    rng = np.random.default_rng(4)
    pts = rng.uniform([0, 0], [600, 750], size=(200, 2))
    for p in pts:
        d = grid.distances_to_links(p[None, :])[0]
        best = int(np.argmin(d))
        if d[best] <= 2.0:
            assert link_of(grid, p) == best
        else:
            with pytest.raises(OffGridError):
                link_of(grid, p)


def test_raster_injective_at_reference_resolution(grid):
    emb = raster_embed(grid, 9, 7, require_injective=True)
    cells = set(zip(emb.rows.tolist(), emb.cols.tolist()))
    assert len(cells) == grid.num_links


def test_raster_single_cell_mean_aggregation(grid):
    emb = raster_embed(grid, 1, 1)
    values = np.arange(grid.num_links, dtype=float)
    plane = emb.rasterize(values)
    assert plane.shape == (1, 1)
    assert plane[0, 0] == pytest.approx(values.mean())
    with pytest.raises(RasterResolutionError):
        raster_embed(grid, 1, 1, require_injective=True)


def test_raster_roundtrip_is_total(grid):
    emb = raster_embed(grid, 9, 7)
    values = np.linspace(0.0, 1.0, grid.num_links)
    recovered = emb.unrasterize(emb.rasterize(values))
    assert np.allclose(recovered, values)
    for lid in range(grid.num_links):
        assert 0 <= emb.rows[lid] < 9 and 0 <= emb.cols[lid] < 7


def _rasterize_plane(emb, values):
    """The single-plane rasterizer the batched one replaced: one (H, W)
    plane, links added into their cells in link order."""
    plane = np.zeros((emb.H, emb.W))
    count = np.zeros((emb.H, emb.W))
    np.add.at(plane, (emb.rows, emb.cols), values)
    np.add.at(count, (emb.rows, emb.cols), 1.0)
    nz = count > 0
    plane[nz] /= count[nz]
    return plane


def test_batched_raster_matches_single_plane(grid):
    # a 3x2 raster packs several links per cell, so the summation order shows
    emb = raster_embed(grid, 3, 2)
    rng = np.random.default_rng(4)
    for lead in [(), (5,), (5, 7)]:
        shape = lead + (grid.num_links,)
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        planes = emb.rasterize(values)
        links = emb.unrasterize(planes)
        assert planes.shape == lead + (3, 2) and links.shape == shape
        for idx in np.ndindex(*lead):
            want = _rasterize_plane(emb, values[idx])
            assert planes[idx].tobytes() == want.tobytes(), (lead, idx)
            assert links[idx].tobytes() == want[emb.rows, emb.cols].tobytes(), (lead, idx)


def test_grid_json_roundtrip(grid):
    text = grid_to_json(grid)
    g2 = grid_from_json(text)
    assert g2.num_links == grid.num_links
    assert grid_to_json(g2) == text
    for a, b in zip(grid.links, g2.links):
        assert a.p1 == b.p1 and a.p2 == b.p2 and a.is_border_stub == b.is_border_stub

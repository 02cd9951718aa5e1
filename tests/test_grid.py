"""Grid hierarchy indexing, adjacency, and neighborhood tests."""

import numpy as np
import pytest

from msbiot.grid import build_hierarchy, VERTICAL

import oracles


def test_validation():
    with pytest.raises(ValueError):
        build_hierarchy(1, 4)
    with pytest.raises(ValueError):
        build_hierarchy(3, 10)


def test_entity_counts():
    g = build_hierarchy(2, 8)
    assert g.num_fine_nodes == 81
    assert g.num_fine_cells == 64
    assert g.num_fine_edges == 2 * 8 * 9
    assert g.num_coarse_vertices == 9
    assert g.num_coarse_cells == 4
    assert g.num_coarse_edges == 12
    assert g.m == 4


def test_degenerate_refinement():
    g = build_hierarchy(2, 2)
    assert g.m == 1
    for i in range(g.num_coarse_edges):
        assert len(g.fine_edges_on(i)) == 1


def test_block_size_example():
    g = build_hierarchy(10, 200)
    assert g.m == 20
    assert len(g.fine_cells_of_coarse_cell(0)) == 400


def test_cell_entities_match_oracle():
    g = build_hierarchy(3, 6)
    for k, cell_nodes, cell_edges in (
            (g.n, g.cell_nodes, g.cell_edges),
            (g.N, g.coarse_cell_nodes, g.coarse_cell_edges)):
        for iy in range(k):
            for ix in range(k):
                c = oracles.cell_index(k, ix, iy)
                nodes, edges = oracles.cell_entities(k, ix, iy)
                assert list(cell_nodes[c]) == nodes
                assert list(cell_edges[c]) == edges


def test_coordinates():
    g = build_hierarchy(2, 4)
    assert np.allclose(g.fine_node_xy(0), [0.0, 0.0])
    assert np.allclose(g.fine_node_xy(g.num_fine_nodes - 1), [1.0, 1.0])
    assert np.allclose(g.fine_cell_center(0), [0.125, 0.125])
    assert np.allclose(g.coarse_vertex_xy(4), [0.5, 0.5])


def test_fine_edges_on_coarse_edge():
    g = build_hierarchy(2, 8)
    for i in range(g.num_coarse_edges):
        fe = g.fine_edges_on(i)
        assert len(fe) == g.m
        orient, _, _ = g.coarse_edge_components(i)
        assert np.all((fe < g.num_fine_vedges) == (orient == VERTICAL))
        # edges are geometrically collinear along the coarse edge
        if orient == VERTICAL:
            assert len(set(fe % (g.n + 1))) == 1
        else:
            assert len(set((fe - g.num_fine_vedges) // g.n)) == 1


def test_interior_entities():
    g = build_hierarchy(4, 8)
    assert len(g.interior_coarse_vertices()) == (4 - 1) ** 2
    # interior edges: 2 * N * (N-1)
    assert len(g.interior_coarse_edges()) == 2 * 4 * 3
    for i in g.interior_coarse_edges():
        assert not g.coarse_edge_is_boundary(i)


def test_vertex_neighborhood_membership():
    g = build_hierarchy(4, 8)
    # interior vertex: 4 coarse cells
    j = g.interior_coarse_vertices()[0]
    nb = g.vertex_neighborhood(j)
    assert len(nb.members) == 4
    # corner vertex: 1 coarse cell
    assert len(g.vertex_neighborhood(0).members) == 1
    # all member cells share the vertex coordinate
    xy = g.coarse_vertex_xy(j)
    for c in nb.members:
        CX, CY = c % g.N, c // g.N
        assert abs(CX * g.H - xy[0]) <= g.H + 1e-15
        assert abs(CY * g.H - xy[1]) <= g.H + 1e-15


def test_edge_neighborhood_membership():
    g = build_hierarchy(4, 8)
    for i in range(g.num_coarse_edges):
        nb = g.edge_neighborhood(i)
        expect = 1 if g.coarse_edge_is_boundary(i) else 2
        assert len(nb.members) == expect


def test_neighborhood_local_maps_roundtrip():
    g = build_hierarchy(4, 12)
    nb = g.vertex_neighborhood(g.interior_coarse_vertices()[0])
    assert np.array_equal(nb.fine_cells[nb.local_cells(nb.fine_cells)],
                          nb.fine_cells)
    assert np.array_equal(nb.fine_edges[nb.local_edges(nb.fine_edges)],
                          nb.fine_edges)
    with pytest.raises(IndexError):
        nb.local_nodes(g.num_fine_nodes - 1 if g.num_fine_nodes - 1
                       not in nb.fine_nodes else 0)


def test_boundary_entities():
    g = build_hierarchy(2, 4)
    bn = g.boundary_fine_nodes()
    assert len(bn) == 4 * 4  # 4n boundary nodes
    xy = g.fine_node_xy(bn)
    on_b = (xy[:, 0] == 0) | (xy[:, 0] == 1) | (xy[:, 1] == 0) | (xy[:, 1] == 1)
    assert np.all(on_b)
    assert len(g.boundary_fine_edges()) == 4 * 4
    assert len(g.boundary_fine_edges(("left",))) == 4
    assert len(g.boundary_fine_edges(())) == 0

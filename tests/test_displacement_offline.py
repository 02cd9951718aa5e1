"""Displacement eigenbasis, partition of unity, and prolongations."""

import numpy as np
import pytest

from msbiot.grid import build_hierarchy
from msbiot.medium import build_medium
from msbiot import fine_fem as ff
from msbiot import displacement_offline as do


def _grid_med(N=4, n=16, contrast=50.0, seed=0):
    grid = build_hierarchy(N, n)
    rng = np.random.default_rng(seed)
    kappa = np.where(rng.uniform(size=n * n) < 0.25, contrast, 1.0)
    return grid, build_medium(kappa)


def test_hat_value():
    grid = build_hierarchy(4, 8)
    j = grid.interior_coarse_vertices()[0]
    xy_j = grid.coarse_vertex_xy(j)
    assert np.isclose(do.hat_value(grid, j, xy_j)[0], 1.0)
    # zero at every other coarse vertex
    for k in range(grid.num_coarse_vertices):
        if k != j:
            assert do.hat_value(grid, j, grid.coarse_vertex_xy(k))[0] == 0.0
    # 1/4 at the center of an adjacent block
    assert np.isclose(do.hat_value(grid, j, xy_j + grid.H / 2)[0], 0.25)


def test_local_eig_zero_modes_and_orthonormality():
    grid, med = _grid_med()
    j = grid.interior_coarse_vertices()[0]
    vals, vecs, nb = do.local_displacement_eig(grid, med, j)
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) >= -1e-9 * vals.max())
    # rigid modes: two translations and one rotation
    assert np.sum(vals == 0.0) >= 2
    S = ff.assemble_vector_mass(nb, (med.lam + 2 * med.mu)[nb.fine_cells])
    G = vecs.T @ (S @ vecs)
    assert np.abs(G - np.eye(len(G))).max() < 1e-8


def test_local_eig_truncation_and_validation():
    grid, med = _grid_med(N=2, n=6)
    j = grid.interior_coarse_vertices()[0]
    vals5, vecs5, _ = do.local_displacement_eig(grid, med, j, J_u=5)
    assert vals5.shape == (5,) and vecs5.shape[1] == 5
    vals_all, _, _ = do.local_displacement_eig(grid, med, j)
    assert np.allclose(vals5, vals_all[:5], atol=1e-10)
    with pytest.raises(ValueError):
        do.local_displacement_eig(grid, med, j, J_u=0)


def test_sparse_eig_path_is_deterministic():
    # N=2, n=24: the interior vertex sees the whole domain, 1250 local
    # DOFs, above the dense limit, so the shift-invert eigsh path runs
    grid, med = _grid_med(N=2, n=24)
    j = grid.interior_coarse_vertices()[0]
    vals1, vecs1, nb = do.local_displacement_eig(grid, med, j, J_u=6)
    vals2, vecs2, _ = do.local_displacement_eig(grid, med, j, J_u=6)
    assert 2 * len(nb.fine_nodes) == 1250 > do._DENSE_EIG_LIMIT
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)


def test_zero_modes_span_translations():
    # the zero eigenspace must contain both rigid translations
    grid, med = _grid_med(N=2, n=8)
    j = grid.interior_coarse_vertices()[0]
    vals, vecs, nb = do.local_displacement_eig(grid, med, j)
    nz = np.sum(vals == 0.0)
    assert nz >= 2
    S = ff.assemble_vector_mass(nb, (med.lam + 2 * med.mu)[nb.fine_cells])
    Z = vecs[:, :nz]
    for comp in (0, 1):
        t = np.zeros(S.shape[0])
        t[comp::2] = 1.0
        # S-orthogonal projection of t onto the zero modes recovers t
        proj = Z @ (Z.T @ (S @ t))
        assert np.linalg.norm(proj - t) < 1e-8 * np.linalg.norm(t)


def test_pou_boundary_values_and_components():
    grid, med = _grid_med()
    j = grid.interior_coarse_vertices()[0]
    xi1, xi2 = do.build_pou(grid, med)[j]
    nb = grid.vertex_neighborhood(j)
    xy = grid.fine_node_xy(nb.fine_nodes)
    hat = do.hat_value(grid, j, xy)
    # on block interfaces the harmonic extension equals the Dirichlet
    # data: (hat, 0) for xi1 and (0, hat) for xi2
    X = grid.coarse_vertex_xy(j)
    on_iface = np.isclose(xy[:, 0], X[0]) | np.isclose(xy[:, 1], X[1])
    assert np.abs(xi1[on_iface, 0] - hat[on_iface]).max() < 1e-10
    assert np.abs(xi1[on_iface, 1]).max() < 1e-12
    assert np.abs(xi2[on_iface, 0]).max() < 1e-12
    assert np.abs(xi2[on_iface, 1] - hat[on_iface]).max() < 1e-10
    # vanishes on the neighborhood boundary
    edge = (np.isclose(xy[:, 0], X[0] - grid.H)
            | np.isclose(xy[:, 0], X[0] + grid.H)
            | np.isclose(xy[:, 1], X[1] - grid.H)
            | np.isclose(xy[:, 1], X[1] + grid.H))
    assert np.abs(xi1[edge, 0]).max() < 1e-12
    assert np.abs(xi2[edge, 1]).max() < 1e-12
    # extension values stay bounded by the Dirichlet data scale
    # (no strict maximum principle for vector elasticity, but the
    # energy-minimizing extension cannot blow up)
    assert np.abs(xi1).max() < 2.0 and np.abs(xi2).max() < 2.0


def test_pou_sums_to_one():
    grid, med = _grid_med(N=4, n=16)
    sum1 = np.zeros(grid.num_fine_nodes)
    sum2 = np.zeros(grid.num_fine_nodes)
    for j, (xi1, xi2) in enumerate(do.build_pou(grid, med)):
        nb = grid.vertex_neighborhood(j)
        sum1[nb.fine_nodes] += xi1[:, 0]
        sum2[nb.fine_nodes] += xi2[:, 1]
    assert np.abs(sum1 - 1.0).max() < 1e-9
    assert np.abs(sum2 - 1.0).max() < 1e-9


def test_pou_factorizes_each_block_once(monkeypatch):
    grid, med = _grid_med()
    calls = []
    splu = do.spla.splu
    monkeypatch.setattr(do.spla, "splu",
                        lambda M: calls.append(M.shape) or splu(M))
    do.build_pou(grid, med)
    assert len(calls) == grid.num_coarse_cells


def test_multiply_basis_matches_nodewise_oracle():
    grid, med = _grid_med(N=2, n=6)
    j = grid.interior_coarse_vertices()[0]
    vals, vecs, nb = do.local_displacement_eig(grid, med, j, J_u=4)
    xi1, xi2 = do.build_pou(grid, med)[j]
    out = do.multiply_basis((xi1, xi2), vecs)
    # independent elementwise recomputation
    for k in range(4):
        for a in range(len(nb.fine_nodes)):
            assert out[2 * a, k] == xi1[a, 0] * vecs[2 * a, k]
            assert out[2 * a + 1, k] == xi2[a, 1] * vecs[2 * a + 1, k]


def test_constant_pou_identity():
    # multiplying the constant-one eigen-like field reproduces the POU
    grid, med = _grid_med(N=2, n=4)
    j = grid.interior_coarse_vertices()[0]
    xi1, xi2 = do.build_pou(grid, med)[j]
    ones = np.ones((2 * len(grid.vertex_neighborhood(j).fine_nodes), 1))
    out = do.multiply_basis((xi1, xi2), ones)
    assert np.array_equal(out[0::2, 0], xi1[:, 0])
    assert np.array_equal(out[1::2, 0], xi2[:, 1])


def test_assemble_R_u_counts_and_boundary():
    grid, med = _grid_med(N=4, n=8)
    basis = do.DisplacementOfflineBasis(grid, med, max_modes=3)
    R_u, modes = do.assemble_R_u(basis, J_u=3)
    # columns of interior coarse vertices only, three modes each
    ninterior = len(grid.interior_coarse_vertices())
    assert R_u.shape == (2 * grid.num_fine_nodes, 3 * ninterior)
    assert np.array_equal(modes, np.tile(np.arange(3), ninterior))
    # every column vanishes on the domain boundary
    bdofs = np.concatenate([2 * grid.boundary_fine_nodes(),
                            2 * grid.boundary_fine_nodes() + 1])
    Rb = np.abs(R_u.toarray()[bdofs])
    assert Rb.max() < 1e-12


def test_basis_holds_interior_vertices_only():
    grid, med = _grid_med(N=4, n=8)
    basis = do.DisplacementOfflineBasis(grid, med, max_modes=3)
    interior = grid.interior_coarse_vertices()
    assert [vb.vertex for vb in basis.vertex_bases] == list(interior)
    # a build over every vertex, boundary ones included, whose boundary
    # columns are then dropped, gives bitwise the same R_u
    pou = do.build_pou(grid, med)
    every = [do.VertexBasis(grid, med, j, pou[j], 3, None)
             for j in range(grid.num_coarse_vertices)]
    want, _ = ff.prolongation(
        ((ff.node_dofs(vb.nb.fine_nodes), vb.fields) for vb in every
         if not grid.coarse_vertex_is_boundary(vb.vertex)),
        2 * grid.num_fine_nodes)
    R_u, _ = do.assemble_R_u(basis, J_u=3)
    for k in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(R_u, k), getattr(want, k))


def test_coarse_pressure_indicators():
    grid = build_hierarchy(4, 12)
    R_p = do.build_coarse_pressure(grid)
    dense = R_p.toarray()
    assert dense.shape == (grid.num_fine_cells, grid.num_coarse_cells)
    assert set(np.unique(dense)) == {0.0, 1.0}
    assert np.all(dense.sum(axis=1) == 1.0)       # partition of the cells
    assert np.all(dense.sum(axis=0) == grid.m ** 2)

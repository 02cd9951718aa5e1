"""Sparse assembly vs the independent dense quadrature oracle."""

import numpy as np
import pytest

from msbiot.grid import build_hierarchy, Neighborhood
from msbiot.medium import build_medium, generate_high_contrast
from msbiot import fine_fem as ff
from msbiot import velocity_offline as vo
from msbiot import displacement_offline as do

import oracles


def _test_medium(n, seed=0):
    rng = np.random.default_rng(seed)
    kappa = np.exp(rng.uniform(-2, 2, n * n))
    return build_medium(kappa, eta=0.25, alpha=0.8, nu=1.3)


@pytest.fixture(scope="module")
def setup():
    grid = build_hierarchy(2, 4)
    med = _test_medium(4)
    spaces = ff.build_spaces(grid, ff.BoundarySpec.model1())
    ops = ff.assemble_operators(spaces, med)
    dense = oracles.dense_operators(4, med)
    return grid, med, spaces, ops, dense


def _close(sparse_M, dense_M, tol=1e-12):
    scale = np.abs(dense_M).max()
    return np.abs(sparse_M.toarray() - dense_M).max() <= tol * scale


def test_dimensions(setup):
    _, _, spaces, ops, _ = setup
    n = 4
    assert spaces.ndof_u == 2 * (n + 1) ** 2
    assert spaces.ndof_g == 2 * n * (n + 1)
    assert spaces.ndof_p == n ** 2
    assert ops.A.shape == (spaces.ndof_u, spaces.ndof_u)
    assert ops.J.shape == (spaces.ndof_g, spaces.ndof_g)
    assert ops.K.shape == (spaces.ndof_g, spaces.ndof_p)


def test_all_operators_match_oracle(setup):
    _, _, _, ops, dense = setup
    assert _close(ops.A, dense["A"])
    assert _close(ops.B, dense["B"])
    # the pressure-equation couplings are the adjoints B.T and K.T
    assert _close(ops.B.T, dense["C"])
    assert _close(ops.D, dense["D"])
    assert _close(ops.K.T, dense["E"])
    assert _close(ops.J, dense["J"])
    assert _close(ops.K, dense["K"])


def test_symmetries(setup):
    _, _, _, ops, _ = setup
    assert np.abs((ops.A - ops.A.T).toarray()).max() < 1e-13
    assert np.abs((ops.J - ops.J.T).toarray()).max() < 1e-13


def test_elasticity_kernel_is_rigid_modes(setup):
    grid, _, _, ops, _ = setup
    xy = grid.fine_node_xy(np.arange(grid.num_fine_nodes))
    # translations and in-plane rotation
    tx = np.zeros(ops.A.shape[0]); tx[0::2] = 1.0
    ty = np.zeros(ops.A.shape[0]); ty[1::2] = 1.0
    rot = np.zeros(ops.A.shape[0])
    rot[0::2] = -xy[:, 1]; rot[1::2] = xy[:, 0]
    for v in (tx, ty, rot):
        assert np.abs(ops.A @ v).max() < 1e-12


def test_velocity_divergence_exact(setup):
    grid, _, _, ops, _ = setup
    # K^T g / h^2 is the cellwise divergence; for the uniform +x field
    # (all vertical edge DOFs = 1) the divergence is zero
    g = np.zeros(grid.num_fine_edges)
    g[:grid.num_fine_vedges] = 1.0
    assert np.abs(ops.K.T @ g).max() < 1e-13


def test_boundary_masks():
    grid = build_hierarchy(2, 4)
    med = _test_medium(4)
    for bspec, g2 in ((ff.BoundarySpec.model1(),
                       ("left", "right", "bottom", "top")),
                      (ff.BoundarySpec.model2(), ())):
        spaces = ff.build_spaces(grid, bspec)
        free_u, free_g = oracles.boundary_masks(4, g2)
        assert np.array_equal(spaces.free_u, free_u)
        assert np.array_equal(spaces.free_g, free_g)


def test_boundary_spec_validation():
    with pytest.raises(ValueError):
        ff.BoundarySpec(("left",), ("left", "right", "bottom", "top"))
    with pytest.raises(ValueError):
        ff.BoundarySpec(("left",), ("right",))


def test_assemble_load():
    grid = build_hierarchy(2, 4)
    spaces = ff.build_spaces(grid, ff.BoundarySpec.model1())
    f = np.arange(16.0)
    L = ff.assemble_load(spaces, f)
    assert np.allclose(L, f * grid.h ** 2)
    Lt = ff.assemble_load(spaces, lambda t: f * t, t=2.0)
    assert np.allclose(Lt, 2.0 * f * grid.h ** 2)
    with pytest.raises(ValueError):
        ff.assemble_load(spaces, np.ones(7))


def test_medium_grid_mismatch():
    grid = build_hierarchy(2, 4)
    spaces = ff.build_spaces(grid, ff.BoundarySpec.model1())
    with pytest.raises(ValueError):
        ff.assemble_operators(spaces, _test_medium(6))


def test_energy_norm():
    grid = build_hierarchy(2, 4)
    med = _test_medium(4)
    spaces = ff.build_spaces(grid, ff.BoundarySpec.model1())
    ops = ff.assemble_operators(spaces, med)
    v = np.random.default_rng(1).standard_normal(spaces.ndof_u)
    assert np.isclose(ff.energy_norm(v, ops.A) ** 2, v @ (ops.A @ v))
    assert ff.energy_norm(np.zeros(spaces.ndof_u), ops.A) == 0.0


# ---- patch assembly: a Neighborhood is a mesh in its own numbering ------

PATCHES = ("block", "interior edge", "boundary edge", "corner vertex",
           "interior vertex")


@pytest.fixture(scope="module")
def patch_setup():
    grid = build_hierarchy(4, 16)
    med = build_medium(generate_high_contrast(16, "blobs", 1e4))
    nbs = {"block": Neighborhood([5], grid),
           "interior edge":
               grid.edge_neighborhood(grid.interior_coarse_edges()[0]),
           "boundary edge": grid.edge_neighborhood(0),
           "corner vertex": grid.vertex_neighborhood(0),
           "interior vertex":
               grid.vertex_neighborhood(grid.interior_coarse_vertices()[0])}
    return grid, med, nbs


@pytest.mark.parametrize("patch", PATCHES)
def test_patch_coefficient_assemblers_match_whole_grid(patch_setup, patch):
    grid, med, nbs = patch_setup
    nb = nbs[patch]
    cells = nb.fine_cells
    on_patch = np.zeros(grid.num_fine_cells)
    on_patch[cells] = 1.0
    dofs = ff.node_dofs(nb.fine_nodes)
    weight = med.lam + 2 * med.mu
    # (patch matrix, whole-grid matrix of the coefficient times the
    # patch's cell indicator, the patch's DOFs in the whole grid)
    pairs = (
        (ff.assemble_elasticity(nb, med.lam[cells], med.mu[cells]),
         ff.assemble_elasticity(grid, med.lam * on_patch,
                                med.mu * on_patch), dofs),
        (ff.assemble_vector_mass(nb, weight[cells]),
         ff.assemble_vector_mass(grid, weight * on_patch), dofs),
        (ff.assemble_velocity_mass(nb, 1.0 / med.kappa[cells]),
         ff.assemble_velocity_mass(grid, (1.0 / med.kappa) * on_patch),
         nb.fine_edges))
    for local, whole, idx in pairs:
        assert np.array_equal(local.toarray(),
                              ff.submat(whole, idx, idx).toarray())


@pytest.mark.parametrize("patch", PATCHES)
def test_patch_divergence_assemblers_match_whole_grid(patch_setup, patch):
    grid, _, nbs = patch_setup
    nb = nbs[patch]
    Kp = ff.assemble_div_K(nb)
    K = ff.submat(ff.assemble_div_K(grid), nb.fine_edges, nb.fine_cells)
    assert np.array_equal(Kp.toarray(), K.toarray())
    DD = ff.assemble_divdiv(nb).toarray()
    ref = (Kp @ Kp.T).toarray() / grid.h ** 2
    assert np.abs(DD - ref).max() <= 1e-14 * np.abs(ref).max()


def test_offline_stage_assembles_no_whole_grid_matrix(monkeypatch):
    grid = build_hierarchy(4, 16)
    med = build_medium(generate_high_contrast(16, "blobs", 1e4))
    shapes = []
    scatter = ff._scatter

    def recording(dofs_r, dofs_c, elems, shape):
        shapes.append(shape)
        return scatter(dofs_r, dofs_c, elems, shape)

    monkeypatch.setattr(ff, "_scatter", recording)
    vo.build_snapshot_space(grid, med)
    do.build_pou(grid, med)
    for problem in (1, 2):
        vo.VelocityOfflineBasis(grid, med, problem)
    for j in range(grid.num_coarse_vertices):
        do.local_displacement_eig(grid, med, j, J_u=4)
    whole = {grid.num_fine_cells, grid.num_fine_edges,
             2 * grid.num_fine_nodes}
    assert shapes
    assert not [s for s in shapes if set(s) & whole]

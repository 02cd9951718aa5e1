"""Velocity snapshots, local spectral reduction, and prolongation."""

import numpy as np
import pytest

from msbiot.grid import build_hierarchy
from msbiot.medium import build_medium, generate_high_contrast
from msbiot import fine_fem as ff
from msbiot import velocity_offline as vo


def _grid_med(N=4, n=16, contrast=100.0, seed=0):
    grid = build_hierarchy(N, n)
    rng = np.random.default_rng(seed)
    kappa = np.where(rng.uniform(size=n * n) < 0.25, contrast, 1.0)
    return grid, build_medium(kappa)


def test_edge_kappa_harmonic_mean():
    grid = build_hierarchy(2, 2)
    kappa = np.array([1.0, 4.0, 2.0, 8.0])  # cells (0,0),(1,0),(0,1),(1,1)
    med = build_medium(kappa)
    # interior vertical edge between cells 0 and 1: edge index iy=0, ix=1
    k = vo.edge_kappa(grid, med.kappa, [1])[0]
    assert np.isclose(k, 2.0 / (1.0 + 0.25))
    # boundary edge (left of cell 0): one-sided value
    assert np.isclose(vo.edge_kappa(grid, med.kappa, [0])[0], 1.0)


def test_snapshot_prescribed_flux_bitwise():
    grid, med = _grid_med()
    snaps = vo.build_snapshot_space(grid, med)
    n = grid.n
    for i in (grid.interior_coarse_edges()[0], 0):
        snap = snaps[i]
        loc_E = snap.nb.local_edges(snap.fine_edges_on)
        flux = snap.vel[loc_E, :]
        assert np.array_equal(flux, np.eye(len(snap.fine_edges_on)))
        # pressure jumps across the vertical coarse edge: the cell left of
        # each fine edge minus the cell right of it, a missing cell as 0
        assert i < grid.num_coarse_vedges
        p = np.zeros((grid.num_fine_cells + 1, flux.shape[1]))
        p[snap.nb.fine_cells] = snap.pressures
        iy, ix = np.divmod(snap.fine_edges_on, n + 1)
        left = np.where(ix > 0, iy * n + ix - 1, -1)
        right = np.where(ix < n, iy * n + ix, -1)
        assert np.array_equal(snap.pressure_jumps(), p[left] - p[right])


def test_snapshot_divergence_matches_block_alpha():
    grid, med = _grid_med()
    K = ff.assemble_div_K(grid)
    h2 = grid.h ** 2
    snaps = vo.build_snapshot_space(grid, med)
    for i in (grid.interior_coarse_edges()[0], 3):
        snap = snaps[i]
        assert np.allclose(np.abs(snap.alphas), grid.h * grid.N ** 2)
        for j in range(snap.vel.shape[1]):
            full = np.zeros(grid.num_fine_edges)
            full[snap.nb.fine_edges] = snap.vel[:, j]
            div = (K.T @ full) / h2
            for bi, c in enumerate(snap.nb.members):
                cells = grid.fine_cells_of_coarse_cell(c)
                assert np.abs(div[cells] - snap.alphas[bi, j]).max() < 1e-10
            outside = np.setdiff1d(np.arange(grid.num_fine_cells),
                                   np.concatenate([
                                       grid.fine_cells_of_coarse_cell(c)
                                       for c in snap.nb.members]))
            assert np.abs(div[outside]).max() < 1e-12


def test_snapshot_pressures_zero_mean_per_block():
    grid, med = _grid_med()
    snap = vo.build_snapshot_space(grid, med)[grid.interior_coarse_edges()[0]]
    for c in snap.nb.members:
        loc = snap.nb.local_cells(grid.fine_cells_of_coarse_cell(c))
        assert np.abs(snap.pressures[loc].sum(axis=0)).max() < 1e-9


def test_homogeneous_superposition_uniform_flux():
    # homogeneous kappa, m = 2: the sum of the two snapshots of an edge
    # carries uniform unit flux through the coarse edge
    grid = build_hierarchy(2, 4)
    med = build_medium(np.ones(16))
    i = grid.interior_coarse_edges()[0]
    snap = vo.build_snapshot_space(grid, med)[i]
    total = snap.vel.sum(axis=1)
    loc_E = snap.nb.local_edges(grid.fine_edges_on(i))
    assert np.allclose(total[loc_E], 1.0)


def test_snapshot_count():
    grid, med = _grid_med(N=2, n=8)
    snaps = vo.build_snapshot_space(grid, med)
    assert len(snaps) == grid.num_coarse_edges
    assert all(s.vel.shape[1] == grid.m for s in snaps)
    # N = n: one snapshot per edge
    g2 = build_hierarchy(2, 2)
    m2 = build_medium(np.ones(4))
    assert all(s.vel.shape[1] == 1 for s in vo.build_snapshot_space(g2, m2))


def test_snapshot_space_factorizes_each_block_once(monkeypatch):
    grid, med = _grid_med()
    calls = []
    splu = vo.spla.splu
    monkeypatch.setattr(vo.spla, "splu",
                        lambda M: calls.append(M.shape) or splu(M))
    vo.build_snapshot_space(grid, med)
    assert len(calls) == grid.num_coarse_cells


@pytest.mark.parametrize("problem", [1, 2])
def test_spectral_reduction_sanity(problem):
    grid, med = _grid_med()
    basis = vo.VelocityOfflineBasis(grid, med, spectral_problem=problem)
    reduce_fn = {1: vo.spectral_reduce_1, 2: vo.spectral_reduce_2}[problem]
    for eb in basis.edge_bases[:6]:
        vals = eb.eigvals
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) >= -1e-9 * max(vals.max(), 1.0))
        assert eb.fields.shape[1] == grid.m


def test_spectral_1_eigvecs_s_orthonormal():
    grid, med = _grid_med()
    snap = vo.build_snapshot_space(grid, med)[grid.interior_coarse_edges()[0]]
    eb = vo.spectral_reduce_1(grid, med, snap)
    Jk = ff.assemble_velocity_mass(snap.nb,
                                   1.0 / med.kappa[snap.nb.fine_cells])
    DD = ff.assemble_divdiv(snap.nb)
    G = eb.fields.T @ ((Jk + DD) @ eb.fields)
    assert np.abs(G - np.eye(len(G))).max() < 1e-8


def test_assemble_R_g_shapes_and_masks():
    grid, med = _grid_med(N=2, n=8)
    basis = vo.VelocityOfflineBasis(grid, med)
    J_v = 2
    R_g, modes = vo.assemble_R_g(basis, ff.BoundarySpec.model1(), J_v)
    # model 1: boundary coarse edges lie on Gamma2 and get no columns
    ninterior = len(grid.interior_coarse_edges())
    assert ninterior < grid.num_coarse_edges
    assert R_g.shape == (grid.num_fine_edges, J_v * ninterior)
    assert np.array_equal(modes, np.tile(np.arange(J_v), ninterior))
    # and every column carries no flux through the boundary
    assert not R_g[grid.boundary_fine_edges()].toarray().any()
    # model 2: every coarse edge gets its columns
    R_g2, _ = vo.assemble_R_g(basis, ff.BoundarySpec.model2(), J_v)
    assert R_g2.shape == (grid.num_fine_edges, J_v * grid.num_coarse_edges)
    # full retention
    R_full, _ = vo.assemble_R_g(basis, ff.BoundarySpec.model1(), None)
    assert R_full.shape[1] == grid.m * ninterior

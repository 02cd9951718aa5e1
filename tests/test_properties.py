"""Invariants of the offline bases and of the coarse system over random
small cases.

Each case draws the coarse grid N, the fine cells per coarse block m,
the contrast and the seed of a binary high-contrast field.  The draws
are derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from msbiot.grid import build_hierarchy, Neighborhood, edge_cells
from msbiot.medium import build_medium
from msbiot import fine_fem as ff
from msbiot import velocity_offline as vo
from msbiot import displacement_offline as do
from msbiot import ms_system
from msbiot import time_integrator as ti
from msbiot.cli import Pipeline, ScenarioConfig

cases = given(N=st.integers(2, 4), m=st.integers(1, 4),
              contrast=st.sampled_from([1.0, 1e2, 1e4]),
              seed=st.integers(0, 2 ** 16))
small = settings(max_examples=10, deadline=None, derandomize=True)


def _grid_med(N, m, contrast, seed):
    n = N * m
    grid = build_hierarchy(N, n)
    rng = np.random.default_rng(seed)
    kappa = np.where(rng.uniform(size=n * n) < 0.3, contrast, 1.0)
    return grid, build_medium(kappa)


@small
@cases
def test_pou_sums_to_one(N, m, contrast, seed):
    grid, med = _grid_med(N, m, contrast, seed)
    total = np.zeros((grid.num_fine_nodes, 2, 2))
    for j, (xi1, xi2) in enumerate(do.build_pou(grid, med)):
        nodes = grid.vertex_neighborhood(j).fine_nodes
        total[nodes, 0] += xi1
        total[nodes, 1] += xi2
    # xi1 sums to (1, 0) and xi2 to (0, 1) at every fine node
    assert np.abs(total - np.eye(2)).max() < 1e-9


@small
@cases
def test_snapshot_invariants(N, m, contrast, seed):
    grid, med = _grid_med(N, m, contrast, seed)
    K = ff.assemble_div_K(grid)
    for snap in vo.build_snapshot_space(grid, med):
        nb = snap.nb
        # prescribed fluxes: bitwise the identity
        flux = snap.vel[nb.local_edges(snap.fine_edges_on)]
        assert np.array_equal(flux, np.eye(m))
        full = np.zeros((grid.num_fine_edges, m))
        full[nb.fine_edges] = snap.vel
        div = (K.T @ full) / grid.h ** 2
        for bi, c in enumerate(nb.members):
            cells = grid.fine_cells_of_coarse_cell(c)
            # divergence equals the block's alpha, |alpha| = h N^2
            assert np.allclose(np.abs(snap.alphas[bi]), grid.h * N ** 2)
            assert np.abs(div[cells] - snap.alphas[bi]).max() < 1e-10
            # pressures have zero mean per block
            assert np.abs(snap.pressures[nb.local_cells(cells)].sum(
                axis=0)).max() < 1e-9


@small
@given(N=st.integers(2, 3), m=st.integers(2, 4),
       contrast=st.sampled_from([1.0, 1e2, 1e4]), seed=st.integers(0, 2 ** 16),
       k=st.integers(3, 8), vertex=st.integers(0, 15))
def test_local_eig_leading_modes_are_nested(N, m, contrast, seed, k, vertex):
    grid, med = _grid_med(N, m, contrast, seed)
    j = vertex % grid.num_coarse_vertices
    vals, vecs, nb = do.local_displacement_eig(grid, med, j, J_u=k + 4)
    # the leading k modes are determined only when a gap follows them
    assume(vals[k] - vals[k - 1] > 1e-6 * vals[k])
    _, vecs_k, _ = do.local_displacement_eig(grid, med, j, J_u=k)
    S = ff.assemble_vector_mass(nb, (med.lam + 2 * med.mu)[nb.fine_cells])
    lead = vecs[:, :k]
    # S-orthogonal projection onto the leading k modes of the larger build
    proj = lead @ (lead.T @ (S @ vecs_k))
    assert np.abs(proj - vecs_k).max() < 1e-8 * np.abs(vecs_k).max()


@small
@given(N=st.integers(2, 4), m=st.integers(1, 4))
def test_patches_number_their_entities_locally(N, m):
    grid = build_hierarchy(N, N * m)
    cc = grid.coarse_cell_of_fine_cell
    patches = ([grid.vertex_neighborhood(j)
                for j in range(grid.num_coarse_vertices)]
               + [grid.edge_neighborhood(i)
                  for i in range(grid.num_coarse_edges)]
               + [Neighborhood([c], grid)
                  for c in range(grid.num_coarse_cells)])
    sides = edge_cells(grid)
    for nb in patches:
        assert np.array_equal(nb.fine_cells,
                              np.flatnonzero(np.isin(cc, nb.members)))
        assert np.array_equal(nb.fine_nodes[nb.cell_nodes],
                              grid.cell_nodes[nb.fine_cells])
        assert np.array_equal(nb.fine_edges[nb.cell_edges],
                              grid.cell_edges[nb.fine_cells])
        # a patch's edge sides are the grid's, with cells outside it -1
        local = edge_cells(nb)
        want = sides[nb.fine_edges]
        want[~np.isin(want, nb.fine_cells)] = -1
        assert np.array_equal(
            np.where(local >= 0, nb.fine_cells[local], -1), want)
    # each side's cell center lies h/2 behind or ahead of the edge
    # midpoint along the edge's normal; only boundary edges miss a side
    n, h = grid.n, grid.h
    e = np.arange(grid.num_fine_edges)
    vert = (e < grid.num_fine_vedges)[:, None]
    iy, ix = np.divmod(np.where(vert[:, 0], e, e - grid.num_fine_vedges),
                       np.where(vert[:, 0], n + 1, n))
    mid = h * np.where(vert, np.stack([ix, iy + 0.5], axis=1),
                       np.stack([ix + 0.5, iy], axis=1))
    normal = np.where(vert, [1.0, 0.0], [0.0, 1.0])
    for side, sign in ((0, -1.0), (1, 1.0)):
        has = sides[:, side] >= 0
        assert np.allclose(grid.fine_cell_center(sides[has, side]),
                           mid[has] + sign * 0.5 * h * normal[has])
    assert np.array_equal(np.flatnonzero((sides < 0).any(axis=1)),
                          grid.boundary_fine_edges())
    for c in range(grid.num_coarse_cells):
        assert np.array_equal(grid.fine_cells_of_coarse_cell(c),
                              np.flatnonzero(cc == c))


@pytest.mark.parametrize("model", ["model1", "model2"])
@pytest.mark.parametrize("scheme", ["fixed_stress", "fully_coupled"])
@small
@given(N=st.integers(2, 3), m=st.integers(2, 4),
       contrast=st.sampled_from([1.0, 1e2, 1e4]), seed=st.integers(0, 2 ** 16),
       field=st.sampled_from(["blobs", "channels"]), J_u=st.integers(1, 6),
       more=st.integers(1, 4), jg=st.integers(0, 2))
def test_masked_point_is_bitwise_its_own_projection(
        model, scheme, N, m, contrast, seed, field, J_u, more, jg):
    J_g = 1 + jg % (m - 1)
    cfg = ScenarioConfig(model=model, scheme=scheme, N=N, n=N * m,
                         J_u=J_u + more, J_g=1, J_t=2, field=field,
                         contrast=contrast, seed=seed)
    # a pipeline whose coarse system was projected at a larger point,
    # and whose last point shares J_u, so a fully-coupled solve reuses
    # its elasticity factor
    warm = Pipeline(cfg)
    warm.solve_point(J_u=J_u + more, J_g=m)
    warm.solve_point(J_u=J_u, J_g=m, J_t=cfg.J_t + 1)
    _, max_res, traj = warm.solve_point(J_u=J_u, J_g=J_g)
    got = traj.final
    # every solve conserves mass per coarse cell
    assert max_res <= 1e-9 * (np.abs(warm.load).max() + 1.0)
    fresh = Pipeline(cfg)
    want = [fresh.solve_point(J_u=J_u, J_g=J_g)[2].final]
    # and the projection at the point's own J_u and J_g, on the same bases
    space = ms_system.build_multiscale_space(
        fresh.grid, fresh.med, fresh.bspec, J_u, J_g,
        dbasis=fresh.displacement_basis(J_u), vbasis=fresh.velocity_basis())
    coarse = ms_system.project_operators(fresh.ops, space)
    for M in (coarse.A, coarse.J, coarse.D):
        assert abs(M - M.T).max() <= 1e-12 * abs(M).max()
    _, traj = ms_system.solve_multiscale(
        coarse, space, ti.SchemeConfig(scheme, cfg.T, cfg.J_t), fresh.load,
        fresh.p0)
    want.append(traj.final)
    for ref in want:
        for k in "ugp":
            assert np.array_equal(getattr(got, k), getattr(ref, k))


@small
@given(N=st.integers(2, 3), m=st.integers(2, 4),
       contrast=st.sampled_from([1.0, 1e2, 1e4]), seed=st.integers(0, 2 ** 16),
       model=st.sampled_from(["model1", "model2"]), J_u=st.integers(1, 6),
       more=st.integers(1, 4), jg=st.integers(0, 3))
def test_free_columns_are_nested_and_project_as_full_width(
        N, m, contrast, seed, model, J_u, more, jg):
    grid, med = _grid_med(N, m, contrast, seed)
    bspec = ff.BoundarySpec.model1() if model == "model1" \
        else ff.BoundarySpec.model2()
    ops = ff.assemble_operators(ff.build_spaces(grid, bspec), med)
    dbasis = do.DisplacementOfflineBasis(grid, med, J_u + more)
    vbasis = vo.VelocityOfflineBasis(grid, med)
    J_g = 1 + jg % m

    def space(J_u, J_g):
        return ms_system.build_multiscale_space(
            grid, med, bspec, J_u, J_g, dbasis=dbasis, vbasis=vbasis)

    # nestedness: the space of (J_u, J_g) is, bitwise, the leading-mode
    # columns of a larger one
    point, larger = space(J_u, J_g), space(J_u + more, m)
    lead = larger.leading(J_u, J_g)
    assert np.array_equal(point.R_u.toarray(),
                          larger.R_u[:, lead.free_u].toarray())
    assert np.array_equal(point.R_g.toarray(),
                          larger.R_g[:, lead.free_g].toarray())
    # a prolongation with a column for every coarse vertex and edge; u = 0
    # on the whole boundary and, under model 1, g.n = 0 on it too
    R_u, _ = ff.prolongation(
        ((ff.node_dofs(vb.nb.fine_nodes), vb.fields[:, :J_u])
         for vb in dbasis.vertex_bases), 2 * grid.num_fine_nodes)
    R_g, _ = ff.prolongation(((eb.nb.fine_edges, eb.fields[:, :J_g])
                              for eb in vbasis.edge_bases),
                             grid.num_fine_edges)
    free_u = np.repeat([not grid.coarse_vertex_is_boundary(j)
                        for j in range(grid.num_coarse_vertices)], J_u)
    free_g = np.repeat([model == "model2" or not grid.coarse_edge_is_boundary(i)
                        for i in range(grid.num_coarse_edges)], J_g)
    full = ms_system.project_operators(
        ops, ms_system.MultiscaleSpace(R_u, R_g, point.R_p, None, None))
    coarse = ms_system.project_operators(ops, point)
    iu, ig = np.flatnonzero(free_u), np.flatnonzero(free_g)
    ip = np.arange(grid.num_coarse_cells)
    for k, rows, cols in (("A", iu, iu), ("B", iu, ip), ("J", ig, ig),
                          ("K", ig, ip), ("D", ip, ip)):
        assert np.array_equal(getattr(coarse, k).toarray(),
                              ff.submat(getattr(full, k), rows,
                                        cols).toarray()), k


@small
@given(N=st.integers(2, 3), m=st.integers(2, 4),
       contrast=st.sampled_from([1.0, 1e2, 1e4]), seed=st.integers(0, 2 ** 16),
       model=st.sampled_from(["model1", "model2"]),
       scheme=st.sampled_from(["fixed_stress", "fully_coupled"]),
       J_u=st.integers(1, 6), jg=st.integers(0, 3))
def test_zero_input_stays_exactly_zero(N, m, contrast, seed, model, scheme,
                                       J_u, jg):
    # no load and no initial pressure: every state of the fine reference
    # and of the coarse solve is zero, bitwise, so a solver that skips a
    # zero block of a right-hand side loses nothing
    grid, med = _grid_med(N, m, contrast, seed)
    bspec = ff.BoundarySpec.model1() if model == "model1" \
        else ff.BoundarySpec.model2()
    spaces = ff.build_spaces(grid, bspec)
    ops = ff.assemble_operators(spaces, med)
    zero = np.zeros(grid.num_fine_cells)
    cfg = ti.SchemeConfig(scheme, T=1.0, J_t=2)
    fine = ti.run(cfg, ops, spaces.free_u, spaces.free_g, zero, zero)
    space = ms_system.build_multiscale_space(grid, med, bspec, J_u,
                                             1 + jg % m)
    trajs = ms_system.solve_multiscale(
        ms_system.project_operators(ops, space), space, cfg, zero, zero)
    for traj in (fine, *trajs):
        assert len(traj.states) == cfg.J_t + 1
        for state in traj.states:
            for k in "ugp":
                assert not getattr(state, k).any()

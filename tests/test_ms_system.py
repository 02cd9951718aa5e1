"""Coarse projection, multiscale solves, and local conservation."""

import warnings

import numpy as np
import pytest

from msbiot.grid import build_hierarchy
from msbiot.medium import build_medium
from msbiot import fine_fem as ff
from msbiot import time_integrator as ti
from msbiot import ms_system as ms


def _setup(N=4, n=16, contrast=100.0, model="model1"):
    grid = build_hierarchy(N, n)
    rng = np.random.default_rng(3)
    kappa = np.where(rng.uniform(size=n * n) < 0.3, contrast, 1.0)
    med = build_medium(kappa)
    bspec = ff.BoundarySpec.model1() if model == "model1" \
        else ff.BoundarySpec.model2()
    spaces = ff.build_spaces(grid, bspec)
    ops = ff.assemble_operators(spaces, med)
    xy = grid.fine_cell_center(np.arange(grid.num_fine_cells))
    p0 = xy[:, 0] * xy[:, 1] * (1 - xy[:, 0]) * (1 - xy[:, 1])
    load = ff.assemble_load(spaces, np.ones(n * n))
    return grid, med, bspec, spaces, ops, p0, load


@pytest.fixture(scope="module")
def setup():
    return _setup()


@pytest.fixture(scope="module")
def space(setup):
    grid, med, bspec = setup[:3]
    return ms.build_multiscale_space(grid, med, bspec, J_u=6, J_g=2)


def test_space_dimensions(setup, space):
    grid = setup[0]
    assert space.R_u.shape == (2 * grid.num_fine_nodes,
                               6 * grid.num_coarse_vertices)
    assert space.R_g.shape == (grid.num_fine_edges,
                               2 * grid.num_coarse_edges)
    assert space.R_p.shape == (grid.num_fine_cells, grid.num_coarse_cells)
    assert space.dims == {"u": space.R_u.shape[1], "g": space.R_g.shape[1],
                          "p": grid.num_coarse_cells}


def test_projection_is_congruence(setup, space):
    ops = setup[4]
    coarse = ms.project_operators(ops, space)
    Ru = space.R_u.toarray()
    Rg = space.R_g.toarray()
    Rp = space.R_p.toarray()
    assert np.allclose(coarse.A.toarray(), Ru.T @ ops.A.toarray() @ Ru)
    assert np.allclose(coarse.J.toarray(), Rg.T @ ops.J.toarray() @ Rg)
    assert np.allclose(coarse.K.toarray(), Rg.T @ ops.K.toarray() @ Rp)
    assert np.allclose(coarse.D.toarray(), Rp.T @ ops.D.toarray() @ Rp)
    # symmetry survives projection
    assert np.abs((coarse.A - coarse.A.T).toarray()).max() < 1e-12
    assert np.abs((coarse.J - coarse.J.T).toarray()).max() < 1e-12


def test_project_initial_pressure_is_cell_mean(setup, space):
    grid, p0 = setup[0], setup[5]
    pc = ms.project_initial_pressure(space, p0)
    for c in range(grid.num_coarse_cells):
        cells = grid.fine_cells_of_coarse_cell(c)
        assert np.isclose(pc[c], p0[cells].mean())
    # constants are reproduced exactly
    ones = np.ones(grid.num_fine_cells)
    assert np.allclose(ms.project_initial_pressure(space, ones), 1.0)


def test_downscale_roundtrip(setup, space):
    state = ti.SystemState(
        np.zeros(space.R_u.shape[1]),
        np.zeros(space.R_g.shape[1]),
        np.arange(space.R_p.shape[1], dtype=float), t=0.5)
    fine = ms.downscale(space, state)
    assert fine.u.shape == (space.R_u.shape[0],)
    assert fine.t == 0.5
    # coarse pressure indicator downscales to a piecewise-constant field
    grid = setup[0]
    for c in range(grid.num_coarse_cells):
        cells = grid.fine_cells_of_coarse_cell(c)
        assert np.all(fine.p[cells] == float(c))


def test_solve_multiscale_runs_and_histories(setup, space):
    ops, p0, load = setup[4], setup[5], setup[6]
    cfg = ti.SchemeConfig(T=1.0, J_t=3)
    traj_c, traj_f = ms.solve_multiscale(ops, space, cfg, load, p0)
    assert len(traj_c.states) == len(traj_f.states) == 4
    down = ms.downscale(space, traj_c.final)
    assert np.array_equal(down.p, traj_f.final.p)


@pytest.mark.parametrize("model,scheme", [
    ("model1", "fixed_stress"), ("model1", "fully_coupled"),
    ("model2", "fixed_stress")])
def test_local_conservation(model, scheme):
    grid, med, bspec, spaces, ops, p0, load = _setup(model=model)
    space = ms.build_multiscale_space(grid, med, bspec, J_u=6, J_g=2)
    cfg = ti.SchemeConfig(scheme, T=1.0, J_t=4)
    _, traj_f = ms.solve_multiscale(ops, space, cfg, load, p0)
    max_res, res = ms.conservation_report(ops, space.R_p, traj_f, load,
                                          cfg.tau, scheme)
    assert res.shape == (4, grid.num_coarse_cells)
    assert max_res <= 1e-9 * (np.abs(load).max() + 1.0)


def test_fine_space_is_not_conservative_on_coarse_cells(setup):
    # sanity that the residual actually measures something: a perturbed
    # trajectory violates the balance
    grid, med, bspec, spaces, ops, p0, load = setup
    space = ms.build_multiscale_space(grid, med, bspec, J_u=6, J_g=2)
    cfg = ti.SchemeConfig(T=1.0, J_t=2)
    _, traj_f = ms.solve_multiscale(ops, space, cfg, load, p0)
    traj_f.states[-1].p = traj_f.states[-1].p + 0.01
    max_res, _ = ms.conservation_report(ops, space.R_p, traj_f, load,
                                        cfg.tau)
    assert max_res > 1e-6


def test_conservation_report_rejects_gapped_history(setup, space):
    # a trajectory without its intermediate states cannot be balanced
    # step by step; the report must refuse it rather than misreport
    grid, med, bspec, spaces, ops, p0, load = setup
    cfg = ti.SchemeConfig(T=1.0, J_t=3)
    traj = ti.run(cfg, ops, spaces.free_u, spaces.free_g, load, p0,
                  keep_history=False)
    with pytest.raises(ValueError, match="keep_history"):
        ms.conservation_report(ops, space.R_p, traj, load, cfg.tau)


def test_dense_fallback_warns(setup):
    # full retention makes the coarse elasticity block singular, so the
    # dense least-squares fallback runs, and says so; truncated spaces
    # and the fine reference factorize cleanly
    grid, med, bspec, spaces, ops, p0, load = setup
    cfg = ti.SchemeConfig(T=1.0, J_t=2)

    def fallbacks(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        return sum("least-squares fallback" in str(w.message)
                   for w in caught)

    assert fallbacks(lambda: ti.run(cfg, ops, spaces.free_u, spaces.free_g,
                                    load, p0)) == 0
    for J_u, J_g, fires in ((None, None, True), (4, 1, False),
                            (20, 2, False)):
        space = ms.build_multiscale_space(grid, med, bspec, J_u, J_g)
        n = fallbacks(lambda: ms.solve_multiscale(ops, space, cfg, load, p0))
        assert (n > 0) == fires, (J_u, J_g, n)


def test_full_retention_not_worse(setup):
    grid, med, bspec, spaces, ops, p0, load = setup
    cfg = ti.SchemeConfig(T=1.0, J_t=2)
    fine_traj = ti.run(cfg, ops, spaces.free_u, spaces.free_g, load, p0)
    ref = fine_traj.final

    def err(space):
        _, traj_f = ms.solve_multiscale(ops, space, cfg, load, p0)
        s = traj_f.final
        return (np.linalg.norm(s.u - ref.u), np.linalg.norm(s.p - ref.p),
                np.linalg.norm(s.g - ref.g))

    full = ms.build_multiscale_space(grid, med, bspec, J_u=None, J_g=None)
    e_full = err(full)
    small = ms.build_multiscale_space(grid, med, bspec, J_u=4, J_g=1)
    e_small = err(small)
    assert all(f <= s + 1e-8 for f, s in zip(e_full, e_small))

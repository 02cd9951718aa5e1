"""Coarse projection, multiscale solves, and local conservation."""

import warnings
import weakref

import numpy as np
import pytest

from msbiot.grid import build_hierarchy
from msbiot.medium import build_medium
from msbiot import fine_fem as ff
from msbiot import time_integrator as ti
from msbiot import ms_system as ms
from msbiot import cli
from msbiot.displacement_offline import assemble_R_u

import oracles


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
    # only columns a solve can use: none for a boundary coarse vertex
    # (u = 0) or, under model 1, for a coarse edge on Gamma2
    grid = setup[0]
    assert space.R_u.shape == (2 * grid.num_fine_nodes,
                               6 * len(grid.interior_coarse_vertices()))
    assert space.R_g.shape == (grid.num_fine_edges,
                               2 * len(grid.interior_coarse_edges()))
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
    fine = ms.downscale(space, ti.Trajectory([state])).final
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
    traj_c, traj_f = ms.solve_multiscale(ms.project_operators(ops, space),
                                         space, cfg, load, p0)
    assert len(traj_c.states) == len(traj_f.states) == 4
    # one state alone downscales as it does among all of them
    down = ms.downscale(space, ti.Trajectory([traj_c.final])).final
    assert np.array_equal(down.p, traj_f.final.p)


def _stepwise_residuals(ops, R_p, states, load, tau, scheme):
    """conservation_report's residuals, formed one step at a time."""
    res = []
    for k in range(1, len(states)):
        new, old, older = states[k], states[k - 1], states[max(k - 2, 0)]
        du = old.u - older.u if scheme == "fixed_stress" else new.u - old.u
        r = ops.K.T @ new.g + ops.D @ ((new.p - old.p) / tau) \
            + ops.B.T @ (du / tau) - load
        res.append(np.abs(R_p.T @ r))
    return np.array(res)


@pytest.mark.parametrize("model,scheme", [
    ("model1", "fixed_stress"), ("model1", "fully_coupled"),
    ("model2", "fixed_stress")])
def test_local_conservation(model, scheme):
    grid, med, bspec, spaces, ops, p0, load = _setup(model=model)
    space = ms.build_multiscale_space(grid, med, bspec, J_u=6, J_g=2)
    cfg = ti.SchemeConfig(scheme, T=1.0, J_t=4)
    _, traj_f = ms.solve_multiscale(ms.project_operators(ops, space), space,
                                    cfg, load, p0)
    max_res, res = ms.conservation_report(ops, space.R_p, traj_f, load,
                                          cfg.tau, scheme)
    assert res.shape == (4, grid.num_coarse_cells)
    assert max_res <= 1e-9 * (np.abs(load).max() + 1.0)
    # all steps at once, bitwise as one step at a time
    assert np.array_equal(res, _stepwise_residuals(
        ops, space.R_p, traj_f.states, load, cfg.tau, scheme))


def test_fine_space_is_not_conservative_on_coarse_cells(setup):
    # sanity that the residual actually measures something: a perturbed
    # trajectory violates the balance
    grid, med, bspec, spaces, ops, p0, load = setup
    space = ms.build_multiscale_space(grid, med, bspec, J_u=6, J_g=2)
    cfg = ti.SchemeConfig(T=1.0, J_t=2)
    _, traj_f = ms.solve_multiscale(ms.project_operators(ops, space), space,
                                    cfg, load, p0)
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
    # dense least-squares fallback runs, and says so, whether the block
    # has SuperLU's factor (fixed stress) or a Cholesky factor (fully
    # coupled); truncated spaces and the fine reference factorize cleanly
    grid, med, bspec, spaces, ops, p0, load = setup

    def fallbacks(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        return sum("least-squares fallback" in str(w.message)
                   for w in caught)

    cases = [(J_u, J_g, fires,
              ms.build_multiscale_space(grid, med, bspec, J_u, J_g))
             for J_u, J_g, fires in ((None, None, True), (4, 1, False),
                                     (20, 2, False))]
    for scheme in ("fixed_stress", "fully_coupled"):
        cfg = ti.SchemeConfig(scheme, T=1.0, J_t=2)
        assert fallbacks(lambda: ti.run(cfg, ops, spaces.free_u,
                                        spaces.free_g, load, p0)) == 0
        for J_u, J_g, fires, space in cases:
            n = fallbacks(
                lambda: ms.solve_multiscale(
                    ms.project_operators(ops, space), space, cfg, load, p0))
            assert (n > 0) == fires, (scheme, J_u, J_g, n)


@pytest.mark.parametrize("model", ["model1", "model2"])
def test_coarse_fully_coupled_matches_dense_oracle(model):
    # the block factor onto the coarse pressure, against dense solves of
    # the projected matrices; warnings are errors, so a fallback that
    # would hide a wrong factor fails the test
    grid, med, bspec, spaces, ops, p0, load = _setup(model=model)
    space = ms.build_multiscale_space(grid, med, bspec, J_u=6, J_g=2)
    coarse = ms.project_operators(ops, space)
    dense = {k: getattr(coarse, k).toarray() for k in "ABDJK"}
    dense["C"], dense["E"] = dense["B"].T, dense["K"].T
    p0_c = ms.project_initial_pressure(space, p0)
    load_c = space.R_p.T @ load
    cfg = ti.SchemeConfig("fully_coupled", T=1.0, J_t=4)
    free_u, free_g = space.free_u, space.free_g
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stepper = ti.make_stepper(cfg, coarse, free_u, free_g, schur=True)
        state, u_prev = ti.initialize(stepper, p0_c)
        s1 = stepper.step(state, u_prev, load_c)
    u_o, g_o, _ = oracles.dense_initialize(dense, free_u, free_g, p0_c)
    want = oracles.dense_fully_coupled_step(dense, free_u, free_g, cfg.tau,
                                            u_o, p0_c, load_c)
    for got, ref in ((state.u, u_o), (state.g, g_o), (s1.u, want[0]),
                     (s1.g, want[1]), (s1.p, want[2])):
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.array_equal(state.p, p0_c)
    assert np.array_equal(u_prev, state.u)


def test_coarse_fully_coupled_factors_by_blocks(setup, space, monkeypatch):
    # one dense Cholesky each of the coarse A_ff, J_ff and pressure Schur
    # complement, reused by initialize, and no SuperLU factorization;
    # the fine reference keeps SuperLU
    grid, med, bspec, spaces, ops, p0, load = setup
    splu_shapes, cholesky_sizes = [], []
    splu, cho_factor = ti.spla.splu, ti.sla.cho_factor

    def counted_splu(M, *args, **kwargs):
        splu_shapes.append(M.shape)
        return splu(M, *args, **kwargs)

    def counted_cho_factor(M, *args, **kwargs):
        cholesky_sizes.append(M.shape[0])
        return cho_factor(M, *args, **kwargs)

    monkeypatch.setattr(ti.spla, "splu", counted_splu)
    monkeypatch.setattr(ti.sla, "cho_factor", counted_cho_factor)
    cfg = ti.SchemeConfig("fully_coupled", T=1.0, J_t=2)
    ms.solve_multiscale(ms.project_operators(ops, space), space, cfg, load,
                        p0)
    assert splu_shapes == []
    assert sorted(cholesky_sizes) == sorted([
        space.free_u.sum(), space.free_g.sum(), grid.num_coarse_cells])
    # the monolithic block, and the initial elasticity and Darcy blocks
    ti.run(cfg, ops, spaces.free_u, spaces.free_g, load, p0)
    assert len(splu_shapes) == 3
    assert len(cholesky_sizes) == 3


def test_coarse_step_back_solves_no_zero_block(setup, space, monkeypatch):
    # a coarse fully-coupled step's right-hand side is zero in u and g,
    # so a step solves with the Schur complement only: the A_ff and J_ff
    # factors solve once for A_ff⁻¹B and J_ff⁻¹K and once in initialize.
    # The monolithic matrix is never assembled; refinement applies it by
    # blocks
    grid, med, bspec, spaces, ops, p0, load = setup
    nu, ng = space.free_u.sum(), space.free_g.sum()
    assert len({nu, ng, grid.num_coarse_cells}) == 3
    solves, bmats = [], []
    cho_solve, bmat = ti._Cholesky.solve, ti.sp.bmat

    def counted_solve(self, rhs):
        solves.append((self.cf[0].shape[0], rhs.ndim))
        return cho_solve(self, rhs)

    def counted_bmat(*args, **kwargs):
        bmats.append(args)
        return bmat(*args, **kwargs)

    monkeypatch.setattr(ti._Cholesky, "solve", counted_solve)
    monkeypatch.setattr(ti.sp, "bmat", counted_bmat)
    cfg = ti.SchemeConfig("fully_coupled", T=1.0, J_t=3)
    ms.solve_multiscale(ms.project_operators(ops, space), space, cfg, load,
                        p0)
    assert sorted(solves) == sorted(
        [(nu, 2), (nu, 1), (ng, 2), (ng, 1)]
        + [(grid.num_coarse_cells, 1)] * cfg.J_t)
    assert bmats == []


def test_full_retention_not_worse(setup):
    grid, med, bspec, spaces, ops, p0, load = setup
    cfg = ti.SchemeConfig(T=1.0, J_t=2)
    fine_traj = ti.run(cfg, ops, spaces.free_u, spaces.free_g, load, p0)
    ref = fine_traj.final

    def err(space):
        _, traj_f = ms.solve_multiscale(ms.project_operators(ops, space),
                                        space, cfg, load, p0)
        s = traj_f.final
        return (np.linalg.norm(s.u - ref.u), np.linalg.norm(s.p - ref.p),
                np.linalg.norm(s.g - ref.g))

    full = ms.build_multiscale_space(grid, med, bspec, J_u=None, J_g=None)
    e_full = err(full)
    small = ms.build_multiscale_space(grid, med, bspec, J_u=4, J_g=1)
    e_small = err(small)
    assert all(f <= s + 1e-8 for f, s in zip(e_full, e_small))


def test_pipeline_projects_each_half_once_per_widening(monkeypatch):
    # the benchmark's sweep points in order, on a pipeline configured as
    # `msbiot sweep` configures it: the displacement half is projected
    # once, with every basis mode, and the velocity half again only when
    # J_g grows past the configured 2
    halves = []
    project = ms.project_operators

    def counted(fine_ops, space, *coarse):
        halves.append("g" if coarse else "ug")
        return project(fine_ops, space, *coarse)

    monkeypatch.setattr(ms, "project_operators", counted)
    p = cli.Pipeline(cli.ScenarioConfig(
        model="model2", scheme="fully_coupled", spectral_problem=2, N=4,
        n=16, J_u=20, J_t=2, contrast=100.0))
    for J_u, J_g in ((4, 2), (12, 2), (20, 2), (20, 1), (20, 3)):
        p.solve_point(J_u=J_u, J_g=J_g)
    assert halves == ["ug", "g"]


def _fully_coupled_pipeline(J_u):
    return cli.Pipeline(cli.ScenarioConfig(
        scheme="fully_coupled", N=4, n=16, J_u=J_u, J_g=1, J_t=2,
        contrast=100.0))


def _free_u_count(p, J_u):
    return assemble_R_u(p.displacement_basis(J_u), J_u)[0].shape[1]


@pytest.mark.parametrize("vary", ["J_g", "J_t"])
def test_pipeline_factors_the_coarse_elasticity_block_once_per_J_u(
        monkeypatch, vary):
    # neither J_g nor τ enters the elasticity half of the block factor,
    # so points that share J_u share one Cholesky factor of A_ff
    sizes = []
    cho_factor = ti.sla.cho_factor

    def counted(M, *args, **kwargs):
        sizes.append(M.shape[0])
        return cho_factor(M, *args, **kwargs)

    monkeypatch.setattr(ti.sla, "cho_factor", counted)
    p = _fully_coupled_pipeline(4)
    for v in (1, 2, 3):
        p.solve_point(**{vary: v})
    n_u = _free_u_count(p, 4)
    assert sizes.count(n_u) == 1
    # the Darcy block and the Schur complement are factored per point
    assert sizes.count(p.grid.num_coarse_cells) == 3


def test_pipeline_keeps_one_coarse_elasticity_factor(monkeypatch):
    made = []

    class Recorded(ti._Cholesky):
        def __init__(self, M):
            super().__init__(M)
            made.append((M.shape[0], weakref.ref(self)))

    monkeypatch.setattr(ti, "_Cholesky", Recorded)
    p = _fully_coupled_pipeline(4)
    for J_u in (2, 3, 4):
        p.solve_point(J_u=J_u)
    elas = [(size, ref) for size, ref in made
            if size in {_free_u_count(p, J_u) for J_u in (2, 3, 4)}]
    assert [size for size, _ in elas] == [_free_u_count(p, J_u)
                                          for J_u in (2, 3, 4)]
    # each J_u's factor is released when the next one is built
    assert [ref() is not None for _, ref in elas] == [False, False, True]


def test_elasticity_slot_cuts_blocks_only_on_a_miss(monkeypatch):
    # on a miss the slot releases the half it holds before the new A_ff
    # is cut out of the coarse A, so two halves are never held at once;
    # a hit cuts nothing out, and at the largest J_u A_ff is the coarse
    # A itself, not a copy
    p = _fully_coupled_pipeline(4)
    slot, cuts, blocks = p._elasticity, [], []
    submat, make_stepper = ti.submat, ti.make_stepper

    def recorded_submat(M, rows, cols):
        if M is p._coarse.A:
            cuts.append((point, held() is None))
        return submat(M, rows, cols)

    def recorded_make_stepper(*args, **kwargs):
        stepper = make_stepper(*args, **kwargs)
        if isinstance(stepper, ti.SchurFullyCoupledStepper):
            blocks.append(stepper.elas.M is p._coarse.A)
        return stepper

    monkeypatch.setattr(ti, "submat", recorded_submat)
    monkeypatch.setattr(ti, "make_stepper", recorded_make_stepper)
    points = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2))
    for point in points:
        held = weakref.ref(slot._half) if slot._half else lambda: None
        p.solve_point(*point)
    assert cuts == [((2, 1), True), ((3, 1), True), ((4, 1), True)]
    assert blocks == [J_u == 4 for J_u, _ in points]

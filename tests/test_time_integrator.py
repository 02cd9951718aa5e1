"""Time stepping vs the dense oracle, plus scheme-consistency checks."""

import numpy as np
import pytest

from msbiot.grid import build_hierarchy
from msbiot.medium import build_medium
from msbiot import fine_fem as ff
from msbiot import time_integrator as ti

import oracles


def _setup(n=4, N=2, contrast=10.0):
    grid = build_hierarchy(N, n)
    rng = np.random.default_rng(7)
    kappa = np.where(rng.uniform(size=n * n) < 0.3, contrast, 1.0)
    med = build_medium(kappa)
    spaces = ff.build_spaces(grid, ff.BoundarySpec.model1())
    ops = ff.assemble_operators(spaces, med)
    dense = oracles.dense_operators(n, med)
    xy = grid.fine_cell_center(np.arange(grid.num_fine_cells))
    p0 = xy[:, 0] * xy[:, 1] * (1 - xy[:, 0]) * (1 - xy[:, 1])
    load = ff.assemble_load(spaces, np.ones(n * n))
    return grid, med, spaces, ops, dense, p0, load


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        ti.SchemeConfig(scheme="verlet")
    with pytest.raises(ValueError):
        ti.SchemeConfig(J_t=0)
    for T in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            ti.SchemeConfig(T=T)
    assert ti.SchemeConfig(T=2.0, J_t=8).tau == 0.25


def test_initialize_matches_oracle():
    _, _, spaces, ops, dense, p0, _ = _setup()
    u_o, g_o, p_o = oracles.dense_initialize(
        dense, spaces.free_u, spaces.free_g, p0)
    # fixed stress reuses its elasticity block; fully coupled has none
    for scheme in ("fixed_stress", "fully_coupled"):
        stepper = ti.make_stepper(ti.SchemeConfig(scheme), ops,
                                  spaces.free_u, spaces.free_g)
        state, u_prev = ti.initialize(stepper, p0)
        assert np.allclose(state.u, u_o, rtol=0,
                           atol=1e-12 * np.abs(u_o).max())
        assert np.allclose(state.g, g_o, rtol=0,
                           atol=1e-12 * np.abs(g_o).max())
        assert np.array_equal(state.p, p0)
        assert np.array_equal(u_prev, state.u)


def test_one_step_matches_dense_oracle():
    """Both schemes: one step equals dense sequential/monolithic
    elimination to relative 1e-10."""
    _, _, spaces, ops, dense, p0, load = _setup()
    tau = 0.1
    fs = ti.FixedStressStepper(ops, spaces.free_u, spaces.free_g, tau)
    state0, u_prev = ti.initialize(fs, p0)
    s1 = fs.step(state0, u_prev, load)
    u_o, g_o, p_o = oracles.dense_fixed_stress_step(
        dense, spaces.free_u, spaces.free_g, tau,
        state0.u, u_prev, state0.p, load)
    for got, want in ((s1.u, u_o), (s1.g, g_o), (s1.p, p_o)):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    fc = ti.FullyCoupledStepper(ops, spaces.free_u, spaces.free_g, tau)
    s1 = fc.step(state0, u_prev, load)
    u_o, g_o, p_o = oracles.dense_fully_coupled_step(
        dense, spaces.free_u, spaces.free_g, tau, state0.u, state0.p, load)
    for got, want in ((s1.u, u_o), (s1.g, g_o), (s1.p, p_o)):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_multi_step_matches_dense_oracle():
    _, _, spaces, ops, dense, p0, load = _setup()
    cfg = ti.SchemeConfig(scheme="fixed_stress", T=1.0, J_t=4)
    traj = ti.run(cfg, ops, spaces.free_u, spaces.free_g, load, p0)
    u, g, p = oracles.dense_initialize(dense, spaces.free_u, spaces.free_g, p0)
    u_prev = u.copy()
    for _ in range(4):
        u_new, g, p = oracles.dense_fixed_stress_step(
            dense, spaces.free_u, spaces.free_g, cfg.tau, u, u_prev, p, load)
        u_prev, u = u, u_new
    assert np.linalg.norm(traj.final.u - u) <= 1e-9 * np.linalg.norm(u)
    assert np.linalg.norm(traj.final.p - p) <= 1e-9 * np.linalg.norm(p)
    assert len(traj.states) == 5
    assert np.isclose(traj.final.t, 1.0)


def test_time_dependent_and_list_loads():
    _, _, spaces, ops, _, p0, load = _setup()
    cfg = ti.SchemeConfig(T=1.0, J_t=3)
    t_seen = []

    def loads(t):
        t_seen.append(t)
        return load * t

    traj_f = ti.run(cfg, ops, spaces.free_u, spaces.free_g, loads, p0)
    assert np.allclose(t_seen, [1 / 3, 2 / 3, 1.0])
    as_list = [load * t for t in (1 / 3, 2 / 3, 1.0)]
    traj_l = ti.run(cfg, ops, spaces.free_u, spaces.free_g, as_list, p0)
    assert np.allclose(traj_f.final.p, traj_l.final.p)


def test_zero_input_exactly_zero():
    _, _, spaces, ops, _, _, _ = _setup()
    cfg = ti.SchemeConfig(T=1.0, J_t=3)
    zero_load = np.zeros(ops.D.shape[0])
    p0 = np.zeros(ops.D.shape[0])
    for scheme in ("fixed_stress", "fully_coupled"):
        cfg = ti.SchemeConfig(scheme=scheme, T=1.0, J_t=3)
        traj = ti.run(cfg, ops, spaces.free_u, spaces.free_g, zero_load, p0)
        for s in traj.states:
            assert np.all(s.u == 0.0)
            assert np.all(s.g == 0.0)
            assert np.all(s.p == 0.0)


def test_splitting_error_first_order_in_tau():
    """Fixed-stress vs fully-coupled difference at T shrinks ~ tau."""
    _, _, spaces, ops, _, p0, load = _setup(n=8)
    diffs = []
    for J_t in (4, 8, 16):
        ps = {}
        for scheme in ("fixed_stress", "fully_coupled"):
            cfg = ti.SchemeConfig(scheme=scheme, T=1.0, J_t=J_t)
            ps[scheme] = ti.run(cfg, ops, spaces.free_u, spaces.free_g,
                                load, p0, keep_history=False).final.p
        diffs.append(np.linalg.norm(ps["fixed_stress"] - ps["fully_coupled"])
                     / np.linalg.norm(ps["fully_coupled"]))
    orders = np.log2(np.array(diffs[:-1]) / np.array(diffs[1:]))
    assert np.all(orders > 0.6)


def test_keep_history_flag():
    _, _, spaces, ops, _, p0, load = _setup()
    cfg = ti.SchemeConfig(T=1.0, J_t=5)
    traj = ti.run(cfg, ops, spaces.free_u, spaces.free_g, load, p0,
                  keep_history=False)
    assert len(traj.states) == 2  # initial + final
    assert np.isclose(traj.final.t, 1.0)

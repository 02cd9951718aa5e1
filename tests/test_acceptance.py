"""Acceptance criteria for the multiscale poroelasticity solver.

Each test prints one PASS/FAIL line.  Criteria 3, 7, and 8 run the
full N = 10 pipeline and take the longest (the whole module is a few
minutes); everything else is seconds.
"""

import numpy as np
import pytest

from msbiot.grid import build_hierarchy
from msbiot.medium import build_medium, generate_high_contrast
from msbiot import fine_fem as ff
from msbiot import time_integrator as ti
from msbiot import ms_system
from msbiot import diagnostics as dg
from msbiot import velocity_offline as vo
from msbiot import displacement_offline as do
from msbiot.cli import ScenarioConfig, Pipeline

import conftest
import oracles


def _report(num, name, ok, detail):
    line = f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    conftest.criterion_lines.append(line)
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def pipeline_m1():
    """Shared N=10, n=80 Model 1 pipeline on the bundled generator field."""
    p = Pipeline(ScenarioConfig())
    p.displacement_basis(24)
    p.velocity_basis()
    return p


def test_criterion_1_oracle_equivalence():
    n = 4
    grid = build_hierarchy(2, n)
    med = build_medium(generate_high_contrast(n, "blobs", 100.0))
    spaces = ff.build_spaces(grid, ff.BoundarySpec.model1())
    ops = ff.assemble_operators(spaces, med)
    dense = oracles.dense_operators(n, med)
    xy = grid.fine_cell_center(np.arange(n * n))
    p0 = xy[:, 0] * xy[:, 1] * (1 - xy[:, 0]) * (1 - xy[:, 1])
    load = ff.assemble_load(spaces, np.ones(n * n))
    tau = 0.1
    worst = 0.0
    fs = ti.FixedStressStepper(ops, spaces.free_u, spaces.free_g, tau)
    state0, u_prev = ti.initialize(fs, p0)
    s = fs.step(state0, u_prev, load)
    u_o, g_o, p_o = oracles.dense_fixed_stress_step(
        dense, spaces.free_u, spaces.free_g, tau,
        state0.u, u_prev, state0.p, load)
    for got, want in ((s.u, u_o), (s.g, g_o), (s.p, p_o)):
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    fc = ti.FullyCoupledStepper(ops, spaces.free_u, spaces.free_g, tau)
    s = fc.step(state0, u_prev, load)
    u_o, g_o, p_o = oracles.dense_fully_coupled_step(
        dense, spaces.free_u, spaces.free_g, tau, state0.u, state0.p, load)
    for got, want in ((s.u, u_o), (s.g, g_o), (s.p, p_o)):
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    _report(1, "oracle equivalence", worst <= 1e-10,
            f"max relative one-step deviation {worst:.2e} (tol 1e-10)")


def test_criterion_2_partition_of_unity():
    worst = 0.0
    for N in (4, 10):
        n = 8 * N
        grid = build_hierarchy(N, n)
        med = build_medium(generate_high_contrast(n, "blobs", 1e4))
        s11 = np.zeros(grid.num_fine_nodes)
        s12 = np.zeros(grid.num_fine_nodes)
        for j, (xi1, _) in enumerate(do.build_pou(grid, med)):
            nb = grid.vertex_neighborhood(j)
            s11[nb.fine_nodes] += xi1[:, 0]
            s12[nb.fine_nodes] += xi1[:, 1]
        worst = max(worst, np.abs(s11 - 1.0).max(), np.abs(s12).max())
    _report(2, "partition of unity", worst <= 1e-9,
            f"max nodewise deviation {worst:.2e} over N in {{4, 10}} "
            "(tol 1e-9)")


def test_criterion_3_local_mass_conservation(pipeline_m1):
    worst = 0.0
    details = []
    for tag, pipe in (("model1", pipeline_m1),
                      ("model2", Pipeline(ScenarioConfig(model="model2")))):
        _, max_res, _ = pipe.solve_point()
        tol = 1e-9 * (np.abs(pipe.load).max() + 1.0)
        worst = max(worst, max_res / tol)
        details.append(f"{tag}: {max_res:.2e} (tol {tol:.1e})")
    _report(3, "local mass conservation", worst <= 1.0, "; ".join(details))


def test_criterion_4_spectral_sanity():
    grid = build_hierarchy(4, 32)
    med = build_medium(generate_high_contrast(32, "blobs", 1e4))
    ok = True
    worst_gram, worst_zero = 0.0, 0.0
    for problem in (1, 2):
        basis = vo.VelocityOfflineBasis(grid, med, problem)
        for eb in basis.edge_bases:
            vals = eb.eigvals
            ok &= np.all(np.isreal(vals)) and np.all(vals >= 0.0)
            ok &= np.all(np.diff(vals) >= -1e-12 * max(vals.max(), 1.0))
            if problem == 1:
                Jk = ff.assemble_velocity_mass(
                    eb.nb, 1.0 / med.kappa[eb.nb.fine_cells])
                DD = ff.assemble_divdiv(eb.nb)
                G = eb.fields.T @ ((Jk + DD) @ eb.fields)
                worst_gram = max(worst_gram,
                                 np.abs(G - np.eye(len(G))).max())
    for j in range(grid.num_coarse_vertices):
        vals, vecs, nb = do.local_displacement_eig(grid, med, j)
        ok &= np.all(np.isreal(vals)) and np.all(vals >= 0.0)
        ok &= np.all(np.diff(vals) >= 0.0)
        nzero = np.sum(np.abs(vals) <= 1e-9 * vals.max())
        ok &= nzero >= 2
        worst_zero = max(worst_zero, np.abs(vals[:2]).max() / vals.max())
        S = ff.assemble_vector_mass(
            nb, (med.lam + 2 * med.mu)[nb.fine_cells])
        G = vecs.T @ (S @ vecs)
        worst_gram = max(worst_gram, np.abs(G - np.eye(len(G))).max())
    ok &= worst_gram <= 1e-8
    _report(4, "spectral sanity", ok,
            f"max Gram deviation {worst_gram:.2e} (tol 1e-8), "
            f"max relative zero-mode magnitude {worst_zero:.2e} (tol 1e-9)")


def test_criterion_5_snapshot_exactness():
    grid = build_hierarchy(4, 16)
    med = build_medium(generate_high_contrast(16, "blobs", 1e4))
    K = ff.assemble_div_K(grid)
    h2 = grid.h ** 2
    bitwise = True
    worst_div = 0.0
    for snap in vo.build_snapshot_space(grid, med):
        loc_E = snap.nb.local_edges(snap.fine_edges_on)
        flux = snap.vel[loc_E, :]
        bitwise &= np.array_equal(flux, np.eye(flux.shape[0]))
        for j in range(snap.vel.shape[1]):
            full = np.zeros(grid.num_fine_edges)
            full[snap.nb.fine_edges] = snap.vel[:, j]
            div = (K.T @ full) / h2
            for bi, c in enumerate(snap.nb.members):
                cells = grid.fine_cells_of_coarse_cell(c)
                worst_div = max(worst_div, np.abs(
                    div[cells] - snap.alphas[bi, j]).max())
    _report(5, "snapshot exactness", bitwise and worst_div <= 1e-10,
            f"prescribed fluxes bitwise: {bitwise}; max divergence "
            f"deviation from blockwise alpha {worst_div:.2e} (tol 1e-10)")


def test_criterion_6_scheme_consistency():
    n = 64
    grid = build_hierarchy(8, n)
    med = build_medium(np.ones(n * n))
    spaces = ff.build_spaces(grid, ff.BoundarySpec.model1())
    ops = ff.assemble_operators(spaces, med)
    xy = grid.fine_cell_center(np.arange(n * n))
    p0 = xy[:, 0] * xy[:, 1] * (1 - xy[:, 0]) * (1 - xy[:, 1])
    from msbiot.cli import model1_source
    load = ff.assemble_load(spaces, model1_source(grid))
    diffs = []
    for J_t in (10, 20, 40, 80, 160, 640):
        finals = {}
        for scheme in ("fixed_stress", "fully_coupled"):
            cfg = ti.SchemeConfig(scheme, 1.0, J_t)
            finals[scheme] = ti.run(cfg, ops, spaces.free_u, spaces.free_g,
                                    load, p0, keep_history=False).final
        a, b = finals["fixed_stress"], finals["fully_coupled"]
        d = max(np.linalg.norm(a.u - b.u) / np.linalg.norm(b.u),
                np.linalg.norm(a.g - b.g) / np.linalg.norm(b.g),
                np.linalg.norm(a.p - b.p) / np.linalg.norm(b.p))
        diffs.append(d)
    orders = np.log2(np.array(diffs[:3][:-1]) / np.array(diffs[:3][1:]))
    decreasing = bool(np.all(np.array(diffs[:3][:-1]) > np.array(diffs[:3][1:])))
    in_window = bool(np.all((orders >= 0.7) & (orders <= 1.3)))
    # supporting evidence beyond the required window: the observed order
    # settles toward 1 when the time step resolves the consolidation
    # transient (this scenario is superconvergent at the coarser steps)
    extra = (f"finer steps J_t=80/160/640 give differences "
             f"{['%.3e' % d for d in diffs[3:]]} with order "
             f"{np.log2(diffs[2] / diffs[3]):.2f}, "
             f"{np.log2(diffs[3] / diffs[4]):.2f}, "
             f"{np.log2(diffs[4] / diffs[5]) / 2.0:.2f} toward first order")
    _report(6, "scheme consistency",
            decreasing and in_window,
            f"splitting differences {['%.3e' % d for d in diffs[:3]]} under "
            f"tau-halving over J_t in {{10,20,40}}, decreasing: {decreasing}, "
            f"observed orders {['%.2f' % o for o in orders]} "
            f"(required in [0.7, 1.3]); {extra}")


def test_criterion_7_trend_reproduction(pipeline_m1):
    p = pipeline_m1
    checks = []
    # (a) displacement basis refinement
    eu = {j: p.solve_point(J_u=j)[0].e_l2_u for j in (4, 8, 16, 20, 24)}
    drop = eu[4] / eu[8]
    plateau = abs(eu[16] - eu[24]) / eu[16]
    checks.append((drop >= 5.0 and plateau <= 0.20,
                   f"(a) e_u {eu[4]:.4f}->{eu[8]:.4f} (factor {drop:.1f}, "
                   f"need >= 5), plateau change {plateau:.1%} (need <= 20%)"))
    # (b) velocity basis refinement
    pts = [p.solve_point(J_g=j)[0] for j in (2, 3, 4, 5, 6)]
    egs = [r.e_l2_g for r in pts]
    eps = [r.e_l2_p for r in pts]
    mono = all(b <= a for a, b in zip(egs, egs[1:]))
    pvar = (max(eps) - min(eps)) / min(eps)
    checks.append((mono and pvar < 0.05,
                   f"(b) e_g {['%.4f' % e for e in egs]} monotone: {mono}; "
                   f"e_p variation {pvar:.2%} (need < 5%)"))
    # (c) coarse refinement
    reports = {10: p.solve_point()[0]}
    for N in (8, 20):
        reports[N] = Pipeline(ScenarioConfig(N=N)).solve_point()[0]
    seq = [reports[N].values() for N in (8, 10, 20)]
    mono_N = all(all(b < a for a, b in zip(r1, r2))
                 for r1, r2 in [(seq[0], seq[1]), (seq[1], seq[2])])
    checks.append((mono_N,
                   "(c) all four errors decrease over N in {8, 10, 20}: "
                   f"{mono_N} (e_u {seq[0][0]:.3f}->{seq[1][0]:.3f}->"
                   f"{seq[2][0]:.3f})"))
    # (d) time-step refinement
    jt_reports = [p.solve_point(J_t=j)[0].values() for j in (5, 10, 20, 40)]
    arr = np.array(jt_reports)
    var = ((arr.max(axis=0) - arr.min(axis=0)) / arr.min(axis=0)).max()
    checks.append((var < 0.02,
                   f"(d) max error change over J_t in {{5,10,20,40}}: "
                   f"{var:.2%} (need < 2%)"))
    ok = all(c for c, _ in checks)
    _report(7, "trend reproduction", ok,
            "; ".join(d for _, d in checks))


@pytest.mark.slow
def test_criterion_8_order_of_magnitude_anchor():
    p = Pipeline(ScenarioConfig(n=200))
    r = p.solve_point()[0]
    ok = r.e_l2_p <= 0.1 and r.e_l2_u <= 0.1
    _report(8, "order-of-magnitude anchor", ok,
            f"N=10, n=200 defaults: e_u = {r.e_l2_u:.4f}, "
            f"e_p = {r.e_l2_p:.4f} (both need <= 0.1)")


def test_criterion_9_zero_input_invariance():
    n = 16
    grid = build_hierarchy(4, n)
    med = build_medium(generate_high_contrast(n, "blobs", 1e4))
    bspec = ff.BoundarySpec.model1()
    spaces = ff.build_spaces(grid, bspec)
    ops = ff.assemble_operators(spaces, med)
    zeros_p = np.zeros(n * n)
    cfg = ti.SchemeConfig(T=1.0, J_t=4)
    exactly_zero = True
    fine = ti.run(cfg, ops, spaces.free_u, spaces.free_g, zeros_p, zeros_p)
    for s in fine.states:
        exactly_zero &= not (s.u.any() or s.g.any() or s.p.any())
    space = ms_system.build_multiscale_space(grid, med, bspec, 4, 2)
    _, traj_f = ms_system.solve_multiscale(
        ms_system.project_operators(ops, space), space, cfg, zeros_p,
        zeros_p)
    for s in traj_f.states:
        exactly_zero &= not (s.u.any() or s.g.any() or s.p.any())
    report = dg.zero_report()
    zero_report_ok = report.values() == (0.0, 0.0, 0.0, 0.0)
    _report(9, "zero-input invariance", exactly_zero and zero_report_ok,
            f"all trajectory states identically zero: {exactly_zero}; "
            f"zero error report: {zero_report_ok}")


def test_criterion_10_nestedness():
    p = Pipeline(ScenarioConfig(N=4, n=16))
    grid, med, bspec, ops = p.grid, p.med, p.bspec, p.ops
    cfg = ti.SchemeConfig(p.cfg.scheme, p.cfg.T, p.cfg.J_t)
    fine_ref = p.fine_reference().final

    def errors(J_u, J_g):
        space = ms_system.build_multiscale_space(grid, med, bspec, J_u, J_g)
        _, traj_f = ms_system.solve_multiscale(
            ms_system.project_operators(ops, space), space, cfg, p.load,
            p.p0)
        return np.array(dg.compute_errors(
            traj_f.final, fine_ref, ops, grid, med).values())

    e_full = errors(None, None)
    ok = True
    worst = -np.inf
    for J_u, J_g in ((2, 1), (4, 1), (4, 2), (8, 2), (12, 4)):
        e_trunc = errors(J_u, J_g)
        worst = max(worst, float((e_full - e_trunc).max()))
        ok &= bool(np.all(e_full <= e_trunc + 1e-8))
    _report(10, "nestedness", ok,
            f"full-retention errors {np.round(e_full, 6).tolist()}; max "
            f"excess over truncated runs {worst:.2e} (margin 1e-8)")

"""Coarse-system projection, multiscale solves, and conservation checks.

Coarse operators are congruence projections R^T M R of the fine ones
with the matching prolongation pair; the adjoint couplings B.T and K.T
are transposes of the projected B and K.  The projected system is advanced
by the same time integrator as the fine reference, then downscaled back
to fine-grid coefficient vectors.

The prolongations hold only columns a solve can use: a boundary coarse
vertex (u = 0) or a coarse edge on Gamma2 (zero normal flux) gets none.
A space truncated to fewer modes per vertex or edge keeps a subset of
the columns of a larger one, and each entry of R^T M R depends only on
its own two columns of R.  So cli.Pipeline projects once, at its largest
J_u and J_g, and a solve point selects the columns of its leading modes
(MultiscaleSpace.leading); the steppers restrict every block to them.
The velocity half (J, K) is projected again only when a point asks for
a larger J_g; the displacement half (A, B) and D are kept.

A Pipeline also passes every solve one time_integrator.ElasticitySlot,
which keeps the elasticity half of the fully-coupled block factor
across points (see the time_integrator docstring).
"""

from dataclasses import dataclass, replace

import numpy as np

from .fine_fem import OperatorSet
from . import time_integrator as ti
from .displacement_offline import DisplacementOfflineBasis, assemble_R_u, \
    build_coarse_pressure
from .velocity_offline import VelocityOfflineBasis, assemble_R_g


@dataclass
class MultiscaleSpace:
    """Prolongations of the reduced spaces, each column's mode index
    within its vertex or edge basis, and the number of leading modes per
    vertex (J_u) and per edge (J_g) that a solve uses."""
    R_u: object
    R_g: object
    R_p: object
    mode_u: np.ndarray
    mode_g: np.ndarray
    J_u: float = np.inf
    J_g: float = np.inf

    @property
    def dims(self):
        return {"u": self.R_u.shape[1], "g": self.R_g.shape[1],
                "p": self.R_p.shape[1]}

    @property
    def free_u(self):
        """The displacement columns a solve uses."""
        return self.mode_u < self.J_u

    @property
    def free_g(self):
        """The velocity columns a solve uses."""
        return self.mode_g < self.J_g

    def leading(self, J_u, J_g):
        """The space of the leading J_u modes per vertex and J_g per edge:
        the same prolongations, with the other columns masked out."""
        return replace(self, J_u=J_u, J_g=J_g)


def build_multiscale_space(grid, med, bspec, J_u, J_g, spectral_problem=1,
                           dbasis=None, vbasis=None):
    """Construct all three reduced spaces.

    J_u / J_g = None keeps every local mode.  Prebuilt offline bases may
    be passed in to amortize the offline stage across parameter sweeps.
    """
    if dbasis is None:
        dbasis = DisplacementOfflineBasis(grid, med, max_modes=J_u)
    if vbasis is None:
        vbasis = VelocityOfflineBasis(grid, med, spectral_problem)
    R_u, mode_u = assemble_R_u(dbasis, J_u)
    R_g, mode_g = assemble_R_g(vbasis, bspec, J_g)
    return MultiscaleSpace(R_u, R_g, build_coarse_pressure(grid),
                           mode_u, mode_g)


def project_operators(fine_ops: OperatorSet, ms: MultiscaleSpace,
                      coarse: OperatorSet = None) -> OperatorSet:
    """Galerkin projection of every operator onto the reduced spaces.

    coarse: an earlier projection onto the same R_u and R_p, whose
    displacement half (A, B) and D are kept; only the velocity half
    (J, K) is projected, onto the new R_g.
    """
    Ru, Rg, Rp = ms.R_u, ms.R_g, ms.R_p
    if coarse is None:
        A = (Ru.T @ fine_ops.A @ Ru).tocsr()
        B = (Ru.T @ fine_ops.B @ Rp).tocsr()
        D = (Rp.T @ fine_ops.D @ Rp).tocsr()
    else:
        A, B, D = coarse.A, coarse.B, coarse.D
    return OperatorSet(A=A, B=B, D=D,
                       J=(Rg.T @ fine_ops.J @ Rg).tocsr(),
                       K=(Rg.T @ fine_ops.K @ Rp).tocsr())


def project_initial_pressure(ms: MultiscaleSpace, p0_fine):
    """Mean of the fine cell values per coarse cell (the L2 projection
    onto coarse constants on a uniform grid)."""
    counts = np.asarray(ms.R_p.sum(axis=0)).ravel()
    return (ms.R_p.T @ p0_fine) / counts


def downscale(ms: MultiscaleSpace, traj: ti.Trajectory) -> ti.Trajectory:
    """Every state of a coarse trajectory as fine coefficient vectors:
    one sparse product per field takes all states at once.  It runs over
    every column of R, masked ones too, whose coefficients are zero:
    copying out the columns a point uses would cost more than it saves."""
    states = traj.states

    def prolong(R, k):
        # one state per row of a C-ordered array: each state's vector is
        # contiguous, as a product of R with that state alone gives it
        X = np.column_stack([getattr(s, k) for s in states])
        return np.ascontiguousarray((R @ X).T)

    u, g, p = prolong(ms.R_u, "u"), prolong(ms.R_g, "g"), prolong(ms.R_p, "p")
    return ti.Trajectory([ti.SystemState(*f, s.t)
                          for s, *f in zip(states, u, g, p)])


def solve_multiscale(coarse_ops, ms: MultiscaleSpace, cfg: ti.SchemeConfig,
                     loads, p0_fine, elasticity_slot=None):
    """Run the projected system on the columns ms uses and downscale
    every state.  coarse_ops: project_operators onto ms's prolongations.
    elasticity_slot: a time_integrator.ElasticitySlot that the
    fully-coupled scheme takes its elasticity half from and leaves it in
    (see the time_integrator docstring).

    Returns (coarse trajectory, fine-representation trajectory).
    """
    # every step's load projected in one product
    fine_loads = np.column_stack([ti.step_load(loads, k, (k + 1) * cfg.tau)
                                  for k in range(cfg.J_t)])
    coarse_loads = list(np.ascontiguousarray((ms.R_p.T @ fine_loads).T))
    p0_c = project_initial_pressure(ms, p0_fine)
    # the coarse pressure is one constant per coarse cell, so its Schur
    # complement is small and dense
    traj_c = ti.run(cfg, coarse_ops, ms.free_u, ms.free_g, coarse_loads, p0_c,
                    schur=True, elasticity_slot=elasticity_slot)
    return traj_c, downscale(ms, traj_c)


def conservation_report(fine_ops, R_p, traj_fine: ti.Trajectory, loads, tau,
                        scheme="fixed_stress"):
    """Per-coarse-cell mass balance residuals at every step.

    For each coarse cell and each step the divergence, storage,
    coupling, and source terms are integrated over the cell; the
    indicator of a coarse cell is an admissible pressure test function,
    so the residual is bounded by the linear-solver tolerance.  Every
    step's residual is formed at once, in one product per operator.

    Returns (max_residual, residuals[step, coarse_cell]).  The states
    must be consecutive steps, as run with keep_history=True.
    """
    states = traj_fine.states
    nsteps = len(states) - 1
    t = np.array([s.t for s in states])
    gaps = np.flatnonzero(~np.isclose(np.diff(t), tau, rtol=1e-9, atol=0.0))
    if len(gaps):
        k = gaps[0]
        raise ValueError(
            f"states {k} and {k + 1} lie {t[k + 1] - t[k]:g} apart, "
            f"not one step tau={tau:g}; the residual needs every step "
            f"(keep_history=True)")
    if not nsteps:
        return 0.0, np.zeros((0, R_p.shape[1]))
    # one state per column; step k ends at state k + 1
    u, g, p = (np.column_stack([getattr(s, k) for s in states])
               for k in "ugp")
    if scheme == "fixed_stress":
        # the displacement change of the step before, none at the first
        du = u[:, :-1] - u[:, np.maximum(np.arange(nsteps) - 1, 0)]
    else:
        du = u[:, 1:] - u[:, :-1]
    load = np.column_stack([ti.step_load(loads, k, states[k + 1].t)
                            for k in range(nsteps)])
    r = fine_ops.Kt @ g[:, 1:] + fine_ops.D @ ((p[:, 1:] - p[:, :-1]) / tau) \
        + fine_ops.Bt @ (du / tau) - load
    res = np.abs(R_p.T @ r).T
    return res.max(initial=0.0), res

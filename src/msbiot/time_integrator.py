"""Time stepping for the coupled displacement/velocity/pressure system.

Works on any OperatorSet plus boundary masks, so the same steppers run
the fine reference problem and the projected multiscale problem.  Two
schemes: a fixed-stress splitting (flow block first, then elasticity)
and a monolithic fully-coupled solve.  All essential boundary values
are homogeneous, so masked DOFs simply stay zero.

Every block is solved by a direct factorization, refined against the
sparse block.  That factorization is SuperLU's, except for a
fully-coupled system whose pressure has few unknowns, such as the
coarse one with its N^2 cell constants: run(..., schur=True) factors it
by blocks onto the pressure, with dense Cholesky factors of the
elasticity and Darcy blocks and of the pressure Schur complement, and
the initial state reuses the first two.  Its monolithic matrix is never
assembled: the blocks apply it for the refinement residual.  The fine
pressure has n^2 unknowns, so its Schur complement would be a dense
n^2 x n^2 matrix.

Neither τ nor the velocity space enters the elasticity half of that
block factor: A_ff and B_f, the Cholesky factor of A_ff and A_ff⁻¹B_f.
An ElasticitySlot passed to run keeps it across runs on the same A, B
and free displacement columns, so runs that share them, such as the
points of a J_g or J_t sweep on one cli.Pipeline, cut out and factor
A_ff once.  The slot keeps one half: a run with another key releases it
before it cuts out its own blocks.  Fixed stress builds its SuperLU
factors per run.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fine_fem import submat


@dataclass
class SchemeConfig:
    scheme: str = "fixed_stress"    # or "fully_coupled"
    T: float = 1.0
    J_t: int = 10

    def __post_init__(self):
        if self.scheme not in ("fixed_stress", "fully_coupled"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.J_t < 1 or not 0 < self.T < np.inf:
            raise ValueError("need J_t >= 1 and a finite T > 0")

    @property
    def tau(self):
        return self.T / self.J_t


@dataclass
class SystemState:
    u: np.ndarray
    g: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def copy(self):
        return SystemState(self.u.copy(), self.g.copy(), self.p.copy(), self.t)


@dataclass
class Trajectory:
    states: list = field(default_factory=list)

    @property
    def final(self):
        return self.states[-1]


class _Solver:
    """Direct factorization with iterative refinement.

    factorize(M) returns an object whose solve(rhs) solves with M;
    SuperLU's splu by default, which takes M sparse.  With a factorize
    of its own, M need only have @, shape and, for the least-squares
    fallback, toarray().  Refines to 1e-10 relative residual against M;
    high-contrast coefficients can otherwise leave a single backsolve
    short of that.
    """

    def __init__(self, M, name, factorize=None):
        # SuperLU factors a CSC matrix; any other factorize takes M as is
        self.M = M if factorize else M.tocsc()
        self.name = name
        try:
            self.lu = (factorize or spla.splu)(self.M)
        except (RuntimeError, np.linalg.LinAlgError):
            # singular LU or a Cholesky that met a nonpositive pivot;
            # least-squares fallback
            self.lu = None

    def solve(self, rhs):
        scale = np.linalg.norm(rhs)
        res = np.inf        # norm of the residual of the current x
        if self.lu is not None:
            x = self.lu.solve(rhs)
            if scale == 0.0:
                return x
            r = rhs - self.M @ x
            res = np.linalg.norm(r)
            for _ in range(3):
                if res <= 1e-10 * scale:
                    break
                x = x + self.lu.solve(r)
                r = rhs - self.M @ x
                res = np.linalg.norm(r)
        if self.lu is None or not np.all(np.isfinite(x)) \
                or res > 1e-6 * scale:
            # rank-deficient but consistent systems occur for
            # full-retention reduced spaces; take the min-norm solution
            warnings.warn(f"{self.name}: dense least-squares fallback on a "
                          f"{self.M.shape[0]}x{self.M.shape[1]} system",
                          RuntimeWarning, stacklevel=2)
            x = np.linalg.lstsq(self.M.toarray(), rhs, rcond=None)[0]
            res = np.linalg.norm(self.M @ x - rhs)
        if scale > 0 and res > 1e-6 * scale:
            raise RuntimeError(
                f"{self.name} solve breakdown: relative residual {res / scale:.3e}")
        return x


class _Cholesky:
    """Dense Cholesky factor of an SPD matrix, with a solve(rhs) like
    SuperLU's."""

    def __init__(self, M):
        # LAPACK factors a Fortran-ordered array in place; any other
        # would be copied first
        self.cf = sla.cho_factor(M.toarray(order="F") if sp.issparse(M)
                                 else M, overwrite_a=True)

    def solve(self, rhs):
        return sla.cho_solve(self.cf, rhs, check_finite=False)


class _CoupledBlocks:
    """The fully-coupled matrix

        [ A      0    -B  ]
        [ 0      J    -K  ]
        [ Bt/τ   Kt   D/τ ]

    kept as its sparse blocks, never assembled, with Bt = B.T and
    Kt = K.T given as CSR: @ applies it block by block, and toarray()
    gives it dense, for the least-squares fallback only."""

    def __init__(self, A, J, B, K, Bt, Kt, D, tau):
        self.A, self.J, self.B, self.K, self.D, self.tau = A, J, B, K, D, tau
        self.Bt, self.Kt = Bt, Kt
        n = A.shape[0] + J.shape[0] + D.shape[0]
        self.shape = (n, n)

    def split(self, x):
        """The u, g and p blocks of a vector."""
        nu, ng = self.A.shape[0], self.J.shape[0]
        return x[:nu], x[nu:nu + ng], x[nu + ng:]

    def __matmul__(self, x):
        u, g, p = self.split(x)
        return np.concatenate([
            self.A @ u - self.B @ p, self.J @ g - self.K @ p,
            self.Bt @ u / self.tau + self.Kt @ g + self.D @ p / self.tau])

    def toarray(self):
        nu, ng = self.A.shape[0], self.J.shape[0]
        return np.block([
            [self.A.toarray(), np.zeros((nu, ng)), -self.B.toarray()],
            [np.zeros((ng, nu)), self.J.toarray(), -self.K.toarray()],
            [self.Bt.toarray() / self.tau, self.Kt.toarray(),
             self.D.toarray() / self.tau]])


def _back_solve(factor, rhs):
    """factor.solve(rhs); a zero rhs gives zeros without a solve."""
    return factor.solve(rhs) if rhs.any() else np.zeros_like(rhs)


class _PressureSchur:
    """Block factor of a _CoupledBlocks matrix M onto its pressure, from
    the Cholesky factors of A and J and of the SPD Schur complement
    S = D/τ + B.T A⁻¹ B/τ + K.T J⁻¹ K, which has one row per pressure
    unknown.  A solve is a back-solve with A and J, one with S, and the
    update of u and g by the new pressure.  A time step's right-hand
    side is zero in u and g, so it is one solve with S and the products
    A⁻¹B p and J⁻¹K p.  The elasticity half, A's factor and AiB = A⁻¹B,
    comes in prebuilt, so that an ElasticitySlot can keep it.
    """

    def __init__(self, M, A, AiB, J):
        if A is None or J is None:
            raise np.linalg.LinAlgError("the A or J block has no factor")
        self.M, self.A, self.AiB, self.J = M, A, AiB, J
        self.JiK = J.solve(M.K.toarray())
        self.S = _Cholesky(M.D.toarray() / M.tau + M.Bt @ AiB / M.tau
                           + M.Kt @ self.JiK)

    def solve(self, rhs):
        M = self.M
        r_u, r_g, r_p = M.split(rhs)
        y_u, y_g = _back_solve(self.A, r_u), _back_solve(self.J, r_g)
        p = self.S.solve(r_p - M.Bt @ y_u / M.tau - M.Kt @ y_g)
        return np.concatenate([y_u + self.AiB @ p, y_g + self.JiK @ p, p])


class _Stepper:
    """What both schemes share: the operators, free-DOF index sets, the
    blocks restricted to them (each scheme's _factor builds its solvers
    from A_ff and J_ff; B_fp and K_fp are kept), the pressure right-hand
    side, whose couplings are the adjoints B.T and K.T, and the scatter
    of a solution to full-length vectors.  A stepper whose _factor keeps
    solvers of the elasticity block A_ff or the Darcy block J_ff names
    them elas and darcy, and initialize reuses them."""

    elas = darcy = None

    def __init__(self, ops, free_u, free_g, tau):
        self.tau = tau
        self.ops = ops
        self._iu = np.flatnonzero(free_u)
        self._ig = ig = np.flatnonzero(free_g)
        self._ip = np.arange(ops.D.shape[0])
        A_ff, self.B_fp = self._elasticity_blocks()
        self.K_fp = submat(ops.K, ig, self._ip)
        self._factor(A_ff, submat(ops.J, ig, ig))

    def _elasticity_blocks(self):
        """A_ff and B_fp: A and B on the free displacement rows."""
        iu = self._iu
        return submat(self.ops.A, iu, iu), submat(self.ops.B, iu, self._ip)

    def _rhs_p(self, load, du, p):
        """Pressure right-hand side with the displacement change du
        moved to it."""
        return load - self.ops.Bt @ (du / self.tau) \
            + self.ops.D @ (p / self.tau)

    def _state(self, prev, u_free, g_free, p):
        u = np.zeros(self.ops.A.shape[0])
        u[self._iu] = u_free
        g = np.zeros(self.ops.J.shape[0])
        g[self._ig] = g_free
        return SystemState(u, g, p, prev.t + self.tau)


class FixedStressStepper(_Stepper):
    """One step of the sequential splitting: coupled flow block, then
    elasticity driven by the fresh pressure.  The flow block sees the
    displacement change of the previous step."""

    def _factor(self, A_ff, J_ff):
        K_fp = self.K_fp
        self.flow = _Solver(sp.bmat([[J_ff, -K_fp],
                                     [K_fp.T, self.ops.D / self.tau]],
                                    format="csc"), "flow block")
        self.elas = _Solver(A_ff, "elasticity block")

    def step(self, state, u_prev, load):
        ng = len(self._ig)
        rhs_p = self._rhs_p(load, state.u - u_prev, state.p)
        sol = self.flow.solve(np.concatenate([np.zeros(ng), rhs_p]))
        p = sol[ng:]
        return self._state(state, self.elas.solve(self.B_fp @ p), sol[:ng], p)


class FullyCoupledStepper(_Stepper):
    """One step of the monolithic three-field solve, with SuperLU's
    factorization of the whole matrix."""

    def _factor(self, A_ff, J_ff):
        tau, K_fp = self.tau, self.K_fp
        self.mono = _Solver(sp.bmat([
            [A_ff, None, -self.B_fp],
            [None, J_ff, -K_fp],
            [self.B_fp.T / tau, K_fp.T, self.ops.D / tau]], format="csc"),
            "monolithic block")

    def step(self, state, u_prev, load):
        nu, ng = len(self._iu), len(self._ig)
        # the new displacement is an unknown here, so only the old one
        # goes to the right-hand side
        rhs_p = self._rhs_p(load, -state.u, state.p)
        sol = self.mono.solve(np.concatenate([np.zeros(nu + ng), rhs_p]))
        return self._state(state, sol[:nu], sol[nu:nu + ng], sol[nu + ng:])


class _ElasticityHalf:
    """The elasticity half of a _PressureSchur factor: the blocks A_ff,
    B_f and Bt_f = B_f.T, A_ff's Cholesky factor chol and AiB = A_ff⁻¹B_f.
    chol and AiB are None when A_ff has no Cholesky factor; the
    elasticity _Solver then falls back."""

    def __init__(self, ops, iu):
        ip = np.arange(ops.B.shape[1])
        self.A_ff = submat(ops.A, iu, iu)
        self.B_f = submat(ops.B, iu, ip)
        self.Bt_f = submat(ops.Bt, ip, iu)
        try:
            self.chol = _Cholesky(self.A_ff)
        except np.linalg.LinAlgError:
            self.chol = self.AiB = None
        else:
            self.AiB = self.chol.solve(self.B_f.toarray())


class ElasticitySlot:
    """One kept elasticity half of a _PressureSchur factor (see the
    module docstring), keyed by the A and B objects and the free
    displacement columns."""

    def __init__(self):
        self._key = self._half = None

    def get(self, ops, iu):
        """The half of ops.A and ops.B on the free displacement columns
        iu: the held one when its key matches, else a new one, which
        replaces it.  The held half is released before the new one's
        blocks are cut out, so two are never held at once."""
        key = self._key
        if key is None or key[0] is not ops.A or key[1] is not ops.B \
                or not np.array_equal(key[2], iu):
            self._key = self._half = None
            self._half = _ElasticityHalf(ops, iu)
            self._key = (ops.A, ops.B, iu)
        return self._half


class SchurFullyCoupledStepper(FullyCoupledStepper):
    """The monolithic solve with the _PressureSchur block factor, for a
    system whose pressure has few unknowns.  Its elasticity and Darcy
    factors also serve initialize.  elasticity_slot: an ElasticitySlot
    to take the elasticity half from and leave it in; without one the
    stepper keeps its own."""

    def __init__(self, ops, free_u, free_g, tau, elasticity_slot=None):
        self._slot = elasticity_slot or ElasticitySlot()
        super().__init__(ops, free_u, free_g, tau)

    def _elasticity_blocks(self):
        # the slot releases a half of another key before it cuts out
        # this one's blocks
        self._half = self._slot.get(self.ops, self._iu)
        return self._half.A_ff, self._half.B_f

    def _factor(self, A_ff, J_ff):
        half = self._half
        self.elas = _Solver(A_ff, "elasticity block", lambda M: half.chol)
        self.darcy = _Solver(J_ff, "darcy block", _Cholesky)
        self.mono = _Solver(
            _CoupledBlocks(A_ff, J_ff, self.B_fp, self.K_fp, half.Bt_f,
                           submat(self.ops.Kt, self._ip, self._ig),
                           self.ops.D, self.tau),
            "monolithic block",
            lambda M: _PressureSchur(M, half.chol, half.AiB, self.darcy.lu))


def initialize(stepper, p0):
    """Consistent initial state from the prescribed initial pressure.

    u0 solves the elasticity relation against p0; g0 solves the Darcy
    relation against p0; the previous-step displacement is set to u0.
    The stepper's elas and darcy solvers are reused where it has them;
    any other initial solver lives for this solve only.
    """
    ops, iu, ig = stepper.ops, stepper._iu, stepper._ig
    p0 = np.asarray(p0, dtype=float)
    u = np.zeros(ops.A.shape[0])
    if len(iu):
        elas = stepper.elas or _Solver(submat(ops.A, iu, iu),
                                       "initial elasticity")
        u[iu] = elas.solve(stepper.B_fp @ p0)
    g = np.zeros(ops.J.shape[0])
    if len(ig):
        darcy = stepper.darcy or _Solver(submat(ops.J, ig, ig),
                                         "initial flow")
        g[ig] = darcy.solve(stepper.K_fp @ p0)
    state = SystemState(u, g, p0.copy(), 0.0)
    return state, u.copy()


def step_load(loads, k, t):
    """Load of step k, the step that ends at time t.

    loads: a per-cell load vector used at every step, a callable
    evaluated at t, or a list of one vector per step.
    """
    if callable(loads):
        return loads(t)
    if isinstance(loads, (list, tuple)):
        return loads[k]
    return loads


def make_stepper(cfg: SchemeConfig, ops, free_u, free_g, schur=False,
                 elasticity_slot=None):
    """The stepper of cfg.scheme.  schur: factor a fully-coupled system
    by blocks onto its pressure (SchurFullyCoupledStepper); only for a
    system with few pressure unknowns.  elasticity_slot: an
    ElasticitySlot that such a stepper reuses.  Fixed stress ignores
    both: it keeps SuperLU factors, built for each stepper."""
    if cfg.scheme == "fixed_stress":
        return FixedStressStepper(ops, free_u, free_g, cfg.tau)
    if schur:
        return SchurFullyCoupledStepper(ops, free_u, free_g, cfg.tau,
                                        elasticity_slot)
    return FullyCoupledStepper(ops, free_u, free_g, cfg.tau)


def run(cfg: SchemeConfig, ops, free_u, free_g, loads, p0,
        keep_history=True, schur=False, elasticity_slot=None):
    """Advance J_t uniform steps from the initial pressure p0.

    loads: as step_load takes them; a callable is evaluated at the end
    of each step interval.  schur, elasticity_slot: as make_stepper
    takes them.
    """
    stepper = make_stepper(cfg, ops, free_u, free_g, schur, elasticity_slot)
    state, u_prev = initialize(stepper, p0)
    traj = Trajectory([state.copy()])
    for k in range(cfg.J_t):
        new = stepper.step(state, u_prev,
                           step_load(loads, k, (k + 1) * cfg.tau))
        u_prev = state.u
        state = new
        if keep_history or k == cfg.J_t - 1:
            traj.states.append(state.copy())
    return traj

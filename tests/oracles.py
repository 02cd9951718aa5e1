"""Independent dense reference assembly and stepping.

Everything here is built by naive per-cell Python loops with 3-point
Gauss-Legendre quadrature in actual coordinates, deliberately avoiding
the vectorized reference-cell templates of the package.  Only the DOF
numbering conventions (node/edge/cell indices, interleaved displacement
components, global +x/+y edge normals) are shared, since those are
interface contracts rather than computations.

The per-patch offline systems at the end are the exception: they are
the package's own local problems built the direct way, one patch at a
time, against which the shape-wise builders are checked bitwise.
"""

import numpy as np
import scipy.sparse as sp

from msbiot import fine_fem as ff
from msbiot import displacement_offline as do
from msbiot.grid import Neighborhood

_GP, _GW = np.polynomial.legendre.leggauss(3)


def _gauss_1d(a, b):
    """3-point Gauss nodes and weights on [a, b]."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _GP, half * _GW


def node_index(n, ix, iy):
    return iy * (n + 1) + ix


def cell_index(n, ix, iy):
    return iy * n + ix


def vedge_index(n, ix, iy):
    """Vertical edge (normal +x) at column ix in cell-row iy."""
    return iy * (n + 1) + ix


def hedge_index(n, ix, iy):
    """Horizontal edge (normal +y) at row iy in cell-column ix."""
    return n * (n + 1) + iy * n + ix


def cell_entities(n, ix, iy):
    """(node ids SW,SE,NW,NE), (edge ids L,R,B,T) of cell (ix, iy)."""
    nodes = [node_index(n, ix, iy), node_index(n, ix + 1, iy),
             node_index(n, ix, iy + 1), node_index(n, ix + 1, iy + 1)]
    edges = [vedge_index(n, ix, iy), vedge_index(n, ix + 1, iy),
             hedge_index(n, ix, iy), hedge_index(n, ix, iy + 1)]
    return nodes, edges


def _q1_shapes(x, y, x0, y0, h):
    """Values and gradients of the 4 bilinear shapes at (x, y)."""
    xi, et = (x - x0) / h, (y - y0) / h
    N = np.array([(1 - xi) * (1 - et), xi * (1 - et),
                  (1 - xi) * et, xi * et])
    dNx = np.array([-(1 - et), (1 - et), -et, et]) / h
    dNy = np.array([-(1 - xi), -xi, (1 - xi), xi]) / h
    return N, dNx, dNy


def _rt_shapes(x, y, x0, y0, h):
    """x-velocity weights of (L, R) and y-velocity weights of (B, T)."""
    wx = np.array([(x0 + h - x) / h, (x - x0) / h])
    wy = np.array([(y0 + h - y) / h, (y - y0) / h])
    return wx, wy


def dense_operators(n, med):
    """All seven dense operators by per-cell quadrature loops.

    Returns a dict with keys A, B, C, D, E, J, K.
    """
    h = 1.0 / n
    ndof_u = 2 * (n + 1) ** 2
    ndof_g = 2 * n * (n + 1)
    ndof_p = n * n
    A = np.zeros((ndof_u, ndof_u))
    B = np.zeros((ndof_u, ndof_p))
    C = np.zeros((ndof_p, ndof_u))
    D = np.zeros((ndof_p, ndof_p))
    E = np.zeros((ndof_p, ndof_g))
    J = np.zeros((ndof_g, ndof_g))
    K = np.zeros((ndof_g, ndof_p))

    for iy in range(n):
        for ix in range(n):
            c = cell_index(n, ix, iy)
            x0, y0 = ix * h, iy * h
            nodes, edges = cell_entities(n, ix, iy)
            udofs = np.array([[2 * a, 2 * a + 1] for a in nodes]).ravel()
            lam, mu = med.lam[c], med.mu[c]
            xs, wxs = _gauss_1d(x0, x0 + h)
            ys, wys = _gauss_1d(y0, y0 + h)
            Ae = np.zeros((8, 8))
            Be = np.zeros(8)
            Je = np.zeros((4, 4))
            for x, wx in zip(xs, wxs):
                for y, wy in zip(ys, wys):
                    w = wx * wy
                    _, dNx, dNy = _q1_shapes(x, y, x0, y0, h)
                    # strains of the 8 vector shapes: (exx, eyy, exy)
                    eps = np.zeros((8, 3))
                    eps[0::2, 0] = dNx
                    eps[0::2, 2] = 0.5 * dNy
                    eps[1::2, 1] = dNy
                    eps[1::2, 2] = 0.5 * dNx
                    dv = np.zeros(8)
                    dv[0::2] = dNx
                    dv[1::2] = dNy
                    for a in range(8):
                        for b in range(8):
                            s = (2.0 * mu * (eps[a, 0] * eps[b, 0]
                                             + eps[a, 1] * eps[b, 1]
                                             + 2.0 * eps[a, 2] * eps[b, 2])
                                 + lam * dv[a] * dv[b])
                            Ae[a, b] += w * s
                    Be += w * med.alpha * dv
                    vx, vy = _rt_shapes(x, y, x0, y0, h)
                    coef = med.nu / med.kappa[c]
                    Je[:2, :2] += w * coef * np.outer(vx, vx)
                    Je[2:, 2:] += w * coef * np.outer(vy, vy)
            A[np.ix_(udofs, udofs)] += Ae
            B[udofs, c] += Be
            C[c, udofs] += Be
            D[c, c] += h * h / med.M[c]
            J[np.ix_(edges, edges)] += Je
            # div of the RT0 shapes is constant +-1/h per cell
            dsign = np.array([-1.0, 1.0, -1.0, 1.0]) / h
            for a in range(4):
                K[edges[a], c] += dsign[a] * h * h
                E[c, edges[a]] += dsign[a] * h * h
    return {"A": A, "B": B, "C": C, "D": D, "E": E, "J": J, "K": K}


def boundary_masks(n, gamma2_sides=("left", "right", "bottom", "top")):
    """(free_u, free_g) with u = 0 on the whole boundary and zero normal
    flux on the listed Gamma2 sides."""
    free_u = np.ones(2 * (n + 1) ** 2, dtype=bool)
    for iy in range(n + 1):
        for ix in range(n + 1):
            if ix in (0, n) or iy in (0, n):
                a = node_index(n, ix, iy)
                free_u[2 * a] = free_u[2 * a + 1] = False
    free_g = np.ones(2 * n * (n + 1), dtype=bool)
    for iy in range(n):
        if "left" in gamma2_sides:
            free_g[vedge_index(n, 0, iy)] = False
        if "right" in gamma2_sides:
            free_g[vedge_index(n, n, iy)] = False
    for ix in range(n):
        if "bottom" in gamma2_sides:
            free_g[hedge_index(n, ix, 0)] = False
        if "top" in gamma2_sides:
            free_g[hedge_index(n, ix, n)] = False
    return free_u, free_g


def dense_initialize(ops, free_u, free_g, p0):
    iu = np.flatnonzero(free_u)
    ig = np.flatnonzero(free_g)
    u = np.zeros(ops["A"].shape[0])
    g = np.zeros(ops["J"].shape[0])
    u[iu] = np.linalg.solve(ops["A"][np.ix_(iu, iu)], ops["B"][iu] @ p0)
    g[ig] = np.linalg.solve(ops["J"][np.ix_(ig, ig)], ops["K"][ig] @ p0)
    return u, g, np.asarray(p0, dtype=float).copy()


def dense_fixed_stress_step(ops, free_u, free_g, tau, u, u_prev, p, load):
    """Sequential elimination: flow block first, then elasticity."""
    iu = np.flatnonzero(free_u)
    ig = np.flatnonzero(free_g)
    ng = len(ig)
    J_ff = ops["J"][np.ix_(ig, ig)]
    K_fp = ops["K"][ig]
    E_pf = ops["E"][:, ig]
    flow = np.block([[J_ff, -K_fp], [E_pf, ops["D"] / tau]])
    rhs_p = load - ops["C"] @ ((u - u_prev) / tau) + ops["D"] @ (p / tau)
    sol = np.linalg.solve(flow, np.concatenate([np.zeros(ng), rhs_p]))
    g_new = np.zeros(ops["J"].shape[0])
    g_new[ig] = sol[:ng]
    p_new = sol[ng:]
    u_new = np.zeros(ops["A"].shape[0])
    u_new[iu] = np.linalg.solve(ops["A"][np.ix_(iu, iu)],
                                ops["B"][iu] @ p_new)
    return u_new, g_new, p_new


def dense_fully_coupled_step(ops, free_u, free_g, tau, u, p, load):
    """Monolithic three-field solve."""
    iu = np.flatnonzero(free_u)
    ig = np.flatnonzero(free_g)
    nu_, ng = len(iu), len(ig)
    mono = np.block([
        [ops["A"][np.ix_(iu, iu)], np.zeros((nu_, ng)), -ops["B"][iu]],
        [np.zeros((ng, nu_)), ops["J"][np.ix_(ig, ig)], -ops["K"][ig]],
        [ops["C"][:, iu] / tau, ops["E"][:, ig], ops["D"] / tau]])
    rhs_p = load + ops["C"] @ (u / tau) + ops["D"] @ (p / tau)
    sol = np.linalg.solve(mono, np.concatenate([np.zeros(nu_ + ng), rhs_p]))
    u_new = np.zeros(ops["A"].shape[0])
    g_new = np.zeros(ops["J"].shape[0])
    u_new[iu] = sol[:nu_]
    g_new[ig] = sol[nu_:nu_ + ng]
    p_new = sol[nu_ + ng:]
    return u_new, g_new, p_new


# ---- per-patch offline systems ----------------------------------------
# Each system is assembled on its own grid.Neighborhood and sliced there,
# as the offline builders did before they worked by patch shape.

def patch_vertex_pencil(grid, med, j):
    """(nb, A, S): elastic energy and (lam+2mu)-weighted mass on the
    neighborhood of vertex j."""
    nb = grid.vertex_neighborhood(j)
    lam, mu = med.lam[nb.fine_cells], med.mu[nb.fine_cells]
    return (nb, ff.assemble_elasticity(nb, lam, mu),
            ff.assemble_vector_mass(nb, lam + 2.0 * mu))


def patch_pou_system(grid, med, c):
    """(A_ii, rhs): the interior elasticity matrix of block c, as CSC,
    and the right-hand sides of its four corner hats in both
    components; None when the block has no interior node."""
    block = Neighborhood([c], grid)
    nodes = block.fine_nodes
    on_bnd = np.bincount(block.cell_nodes.ravel()) < 4
    A = ff.assemble_elasticity(block, med.lam[block.fine_cells],
                               med.mu[block.fine_cells])
    bnd_dofs = np.repeat(on_bnd, 2)
    ii = np.flatnonzero(~bnd_dofs)
    bb = np.flatnonzero(bnd_dofs)
    if not len(ii):
        return None
    xy = grid.fine_node_xy(nodes[on_bnd])
    sol = np.zeros((2 * len(nodes), 8))
    for k, j in enumerate(grid.coarse_cell_nodes[c]):
        hat = do.hat_value(grid, j, xy)
        sol[bb[0::2], 2 * k] = hat
        sol[bb[1::2], 2 * k + 1] = hat
    return A[ii][:, ii].tocsc(), -(A[ii][:, bb] @ sol[bb])


def patch_snapshot_system(grid, med, c):
    """(saddle, rhs): the Neumann saddle system of block c, as CSC, and
    its unit-flux right-hand sides, one per fine edge of its sides."""
    _SIDE_SIGNS = (-1.0, 1.0, -1.0, 1.0)
    block = Neighborhood([c], grid)
    m, h = grid.m, grid.h
    alpha = h / (m * h) ** 2
    cells, edges = block.fine_cells, block.fine_edges
    counts = np.bincount(block.cell_edges.ravel())
    ii = np.flatnonzero(counts == 2)
    bb = np.flatnonzero(counts != 2)
    Jb = ff.assemble_velocity_mass(block, (med.nu / med.kappa)[cells])
    Kb = ff.assemble_div_K(block)
    w = np.full((len(cells), 1), h ** 2)
    saddle = sp.bmat([[Jb[ii][:, ii], -Kb[ii], None],
                      [Kb[ii].T, None, w],
                      [None, w.T, None]], format="csc")
    g_B = np.zeros((len(bb), 4 * m))
    for k, i in enumerate(grid.coarse_cell_edges[c]):
        g_B[np.searchsorted(edges[bb], grid.fine_edges_on(i)),
            k * m + np.arange(m)] = 1.0
    alphas = alpha * np.repeat(_SIDE_SIGNS, m)
    return saddle, np.vstack([-(Jb[ii][:, bb] @ g_B),
                              alphas * h ** 2 - Kb[bb].T @ g_B,
                              np.zeros((1, 4 * m))])


def patch_edge_gram(grid, med, i, spectral_problem):
    """The Gram matrix spectral problem 1 (velocity mass plus div-div)
    or 2 (velocity mass) reads on the neighborhood of edge i."""
    nb = grid.edge_neighborhood(i)
    Jk = ff.assemble_velocity_mass(nb, 1.0 / med.kappa[nb.fine_cells])
    return Jk + ff.assemble_divdiv(nb) if spectral_problem == 1 else Jk


def coo_prolongation(blocks, nrows):
    """fine_fem.prolongation's R, placed entry by entry through COO."""
    rows, cols, vals = [], [], []
    ncol = 0
    for idx, fields in blocks:
        k = fields.shape[1]
        rows.append(np.tile(idx, k))
        cols.append(np.repeat(np.arange(ncol, ncol + k), len(idx)))
        vals.append(fields.T.ravel())
        ncol += k
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nrows, ncol)).tocsr()

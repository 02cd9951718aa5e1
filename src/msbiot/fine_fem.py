"""Fine-scale discrete spaces and sparse operator assembly.

Displacement: vector bilinear (Q1) elements, 2 DOFs per fine node,
interleaved (node k -> dofs 2k, 2k+1).  Velocity: lowest-order
Raviart-Thomas on rectangles, one normal-flux DOF per fine edge with
the global +x/+y normal convention.  Pressure: one constant per cell.

All integrands are polynomial with cellwise-constant coefficients, so
2x2 Gauss quadrature per cell is exact.

An assembler takes a mesh and one coefficient per cell of that mesh.
The mesh is either the fine grid (``GridHierarchy``) or a patch of it
(``grid.Neighborhood``); an assembler reads only its ``cell_nodes``,
``cell_edges``, ``h`` and ``num_fine_*`` counts, so on a patch the
matrix comes out directly in the patch's local numbering.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .grid import GridHierarchy

_SIDES = ("left", "right", "bottom", "top")


class BoundarySpec:
    """Partition of the unit-square boundary into Gamma1 and Gamma2.

    Gamma1 carries (u = 0, p = 0); Gamma2 carries (u = 0, zero normal
    flux).  The two side lists must partition {left, right, bottom, top}.
    """

    def __init__(self, gamma1, gamma2):
        g1, g2 = set(gamma1), set(gamma2)
        if g1 & g2:
            raise ValueError(f"overlapping boundary portions: {g1 & g2}")
        if g1 | g2 != set(_SIDES):
            raise ValueError(f"boundary portions do not cover the boundary: "
                             f"{(g1 | g2)} vs {set(_SIDES)}")
        self.gamma1 = tuple(s for s in _SIDES if s in g1)
        self.gamma2 = tuple(s for s in _SIDES if s in g2)

    @classmethod
    def model1(cls):
        """Gamma1 empty: no-flux condition on the whole boundary."""
        return cls((), _SIDES)

    @classmethod
    def model2(cls):
        """Gamma2 empty: pressure condition on the whole boundary."""
        return cls(_SIDES, ())


class FineSpaces:
    """DOF counts and essential-BC masks for the fine spaces."""

    def __init__(self, grid: GridHierarchy, bspec: BoundarySpec):
        self.grid = grid
        self.bspec = bspec
        n = grid.n
        self.ndof_u = 2 * (n + 1) ** 2
        self.ndof_g = 2 * n * (n + 1)
        self.ndof_p = n ** 2

        # u = 0 on the whole boundary in both models
        self.free_u = np.ones(self.ndof_u, dtype=bool)
        bnodes = grid.boundary_fine_nodes()
        self.free_u[2 * bnodes] = False
        self.free_u[2 * bnodes + 1] = False

        # g.n = 0 only on Gamma2
        self.free_g = np.ones(self.ndof_g, dtype=bool)
        self.free_g[grid.boundary_fine_edges(bspec.gamma2)] = False


class OperatorSet:
    """Sparse discrete operators of the coupled variational system.

    A: elasticity; B: pressure-to-displacement coupling; D: storage
    mass; J: weighted velocity mass; K: pressure tested with velocity
    divergence.  The pressure equation couples through the adjoints:
    Bt = B.T tests the displacement divergence with pressure and
    Kt = K.T the velocity divergence; each is built once, as CSR, on
    first use.  No boundary masks are applied here.
    """

    def __init__(self, A, B, D, J, K):
        self.A = A
        self.B = B
        self.D = D
        self.J = J
        self.K = K

    @cached_property
    def Bt(self):
        return self.B.T.tocsr()

    @cached_property
    def Kt(self):
        return self.K.T.tocsr()


def build_spaces(grid, bspec):
    return FineSpaces(grid, bspec)


# ---- element templates (unit reference cell, scaled on use) ------------

def _q1_templates():
    """Gradient-product templates for Q1 on the unit cell.

    Returns (K_mu, K_div, M_sc): K_mu[2a+i,2b+j] = int eps:eps of the
    vector shapes, K_div = int (div)(div), M_sc[a,b] = int Na Nb.
    """
    gp = np.array([0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)])
    K_mu = np.zeros((8, 8))
    K_div = np.zeros((8, 8))
    M_sc = np.zeros((4, 4))
    for x in gp:
        for y in gp:
            w = 0.25
            N = np.array([(1 - x) * (1 - y), x * (1 - y), (1 - x) * y, x * y])
            dNx = np.array([-(1 - y), (1 - y), -y, y])
            dNy = np.array([-(1 - x), -x, (1 - x), x])
            M_sc += w * np.outer(N, N)
            # strain of shape (a, i): eps_xx, eps_yy, eps_xy
            eps = np.zeros((8, 3))
            eps[0::2, 0] = dNx            # x-component shapes
            eps[0::2, 2] = 0.5 * dNy
            eps[1::2, 1] = dNy            # y-component shapes
            eps[1::2, 2] = 0.5 * dNx
            # eps:eps with doubled shear term
            K_mu += w * (np.outer(eps[:, 0], eps[:, 0])
                         + np.outer(eps[:, 1], eps[:, 1])
                         + 2.0 * np.outer(eps[:, 2], eps[:, 2]))
            dv = np.zeros(8)
            dv[0::2] = dNx
            dv[1::2] = dNy
            K_div += w * np.outer(dv, dv)
    return K_mu, K_div, M_sc


_K_MU, _K_DIV, _M_SC = _q1_templates()
_M_VEC = np.kron(_M_SC, np.eye(2))  # vector Q1 mass, interleaved DOFs

# int over the unit cell of d(Na)/dx and d(Na)/dy
_DIVX = np.array([-0.5, 0.5, -0.5, 0.5])
_DIVY = np.array([-0.5, -0.5, 0.5, 0.5])

# RT0 per-direction mass block on the unit cell, edge order (L,R,B,T)
_RT_MASS = np.zeros((4, 4))
_RT_MASS[:2, :2] = [[1 / 3, 1 / 6], [1 / 6, 1 / 3]]
_RT_MASS[2:, 2:] = [[1 / 3, 1 / 6], [1 / 6, 1 / 3]]

# h times the divergence of each RT0 shape on a cell, edge order (L,R,B,T)
_RT_DIV = np.array([-1.0, 1.0, -1.0, 1.0])


def node_dofs(nodes):
    """Interleaved displacement DOFs of fine nodes (node k -> 2k, 2k+1).

    The last axis doubles: a flat node list gives a flat DOF list, and
    (ncell, 4) cell nodes give (ncell, 8) cell DOFs.
    """
    nodes = np.asarray(nodes)
    return np.stack([2 * nodes, 2 * nodes + 1], axis=-1).reshape(
        nodes.shape[:-1] + (-1,))


def submat(M, rows, cols):
    """Rows and columns of a sparse matrix, as CSR.  An axis whose index
    list is all of it in order is not indexed, so a block that keeps
    every row and column is M itself, not a copy."""
    M = M.tocsr()
    if not _whole(rows, M.shape[0]):
        M = M[rows]
    if not _whole(cols, M.shape[1]):
        M = M[:, cols]
    return M


def _whole(idx, n):
    return len(idx) == n and np.array_equal(idx, np.arange(n))


def _scatter(dofs_r, dofs_c, elems, shape):
    nr, nc = elems.shape[1], elems.shape[2]
    rows = np.repeat(dofs_r, nc, axis=1).ravel()
    cols = np.tile(dofs_c, (1, nr)).ravel()
    return sp.coo_matrix((elems.ravel(), (rows, cols)), shape=shape).tocsr()


def prolongation(blocks, nrows):
    """Sparse prolongation whose columns are local fields placed in the
    global numbering, block after block.

    blocks yields (rows, fields): the global index of each local DOF and
    the local field columns to keep.  Returns (R, modes), where
    modes[c] is column c's index among its block's fields.
    """
    rows, cols, vals, modes = [], [], [], []
    ncol = 0
    for idx, fields in blocks:
        k = fields.shape[1]
        rows.append(np.tile(idx, k))
        cols.append(np.repeat(np.arange(ncol, ncol + k), len(idx)))
        vals.append(fields.T.ravel())
        modes.append(np.arange(k))
        ncol += k
    R = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nrows, ncol)).tocsr()
    return R, np.concatenate(modes)


# ---- assembly routines -------------------------------------------------

def assemble_elasticity(mesh, lam, mu):
    """Stiffness of 2 mu eps(u):eps(v) + lam (div u)(div v)."""
    lam, mu = np.asarray(lam), np.asarray(mu)
    elems = (2.0 * mu)[:, None, None] * _K_MU + lam[:, None, None] * _K_DIV
    dofs = node_dofs(mesh.cell_nodes)
    ndof = 2 * mesh.num_fine_nodes
    return _scatter(dofs, dofs, elems, (ndof, ndof))


def assemble_vector_mass(mesh, coeff=None):
    """Weighted vector Q1 mass matrix (unit weight by default)."""
    c = np.ones(mesh.num_fine_cells) if coeff is None else np.asarray(coeff)
    elems = (c * mesh.h ** 2)[:, None, None] * _M_VEC
    dofs = node_dofs(mesh.cell_nodes)
    ndof = 2 * mesh.num_fine_nodes
    return _scatter(dofs, dofs, elems, (ndof, ndof))


def assemble_coupling_B(mesh, alpha):
    """B[v, q] = int alpha (div v) q, shape (ndof_u, ndof_p)."""
    cells = np.arange(mesh.num_fine_cells)
    dv = np.empty(8)
    dv[0::2] = _DIVX
    dv[1::2] = _DIVY
    elems = (alpha * mesh.h) * np.tile(dv, (len(cells), 1))[:, :, None]
    return _scatter(node_dofs(mesh.cell_nodes), cells[:, None], elems,
                    (2 * mesh.num_fine_nodes, len(cells)))


def assemble_velocity_mass(mesh, coeff):
    """Weighted RT0 mass matrix."""
    elems = (np.asarray(coeff) * mesh.h ** 2)[:, None, None] * _RT_MASS
    ne = mesh.num_fine_edges
    return _scatter(mesh.cell_edges, mesh.cell_edges, elems, (ne, ne))


def assemble_div_K(mesh):
    """K[z, q] = int (div z) q, shape (ndof_g, ndof_p); entries +-h."""
    cells = np.arange(mesh.num_fine_cells)
    elems = mesh.h * np.tile(_RT_DIV, (len(cells), 1))[:, :, None]
    return _scatter(mesh.cell_edges, cells[:, None], elems,
                    (mesh.num_fine_edges, len(cells)))


def assemble_divdiv(mesh):
    """Gram matrix of cellwise divergences, int (div g)(div z)."""
    elems = np.tile(np.outer(_RT_DIV, _RT_DIV), (mesh.num_fine_cells, 1, 1))
    ne = mesh.num_fine_edges
    return _scatter(mesh.cell_edges, mesh.cell_edges, elems, (ne, ne))


def assemble_pressure_mass(mesh, coeff=None):
    """Diagonal pressure mass, int coeff q p (unit weight by default)."""
    c = np.ones(mesh.num_fine_cells) if coeff is None else np.asarray(coeff)
    return sp.diags(c * mesh.h ** 2).tocsr()


def assemble_operators(spaces: FineSpaces, med) -> OperatorSet:
    """Assemble every bilinear operator of the coupled system (unmasked)."""
    grid = spaces.grid
    if med.ncells != grid.num_fine_cells:
        raise ValueError(f"medium has {med.ncells} cells, grid has "
                         f"{grid.num_fine_cells}")
    A = assemble_elasticity(grid, med.lam, med.mu)
    B = assemble_coupling_B(grid, med.alpha)
    D = assemble_pressure_mass(grid, 1.0 / med.M)
    J = assemble_velocity_mass(grid, med.nu / med.kappa)
    K = assemble_div_K(grid)
    return OperatorSet(A, B, D, J, K)


def assemble_load(spaces: FineSpaces, f, t=0.0):
    """Load vector over the pressure space: entry = f * cell area.

    f may be a flat per-cell array or a callable f(t) -> per-cell array.
    """
    grid = spaces.grid
    fc = f(t) if callable(f) else np.asarray(f, dtype=float)
    if fc.size != grid.num_fine_cells:
        raise ValueError("source has wrong number of cells")
    return fc * grid.h ** 2


def energy_norm(u, A):
    """sqrt(u^T A u); tiny negative round-off is clipped to zero."""
    return np.sqrt(max(float(u @ (A @ u)), 0.0))

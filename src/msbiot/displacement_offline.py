"""Multiscale displacement basis and the coarse pressure space.

Per coarse vertex neighborhood: a generalized eigenproblem on the full
local fine displacement space (elastic energy against a (lam+2mu)-
weighted mass), a pair of blockwise elasticity-harmonic partition-of-
unity fields driven by the bilinear hat of the vertex, and the nodewise
products of the two.  The coarse pressure space is the indicator basis
of the coarse cells.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fine_fem
from .grid import Neighborhood

_DENSE_EIG_LIMIT = 900  # local DOF count below which dense eigh is used


def hat_value(grid, j, xy):
    """Bilinear hat of coarse vertex j evaluated at points xy."""
    X = grid.coarse_vertex_xy(j)
    H = grid.H
    xy = np.atleast_2d(xy)
    return (np.maximum(0.0, 1.0 - np.abs(xy[:, 0] - X[0]) / H)
            * np.maximum(0.0, 1.0 - np.abs(xy[:, 1] - X[1]) / H))


def local_displacement_eig(grid, med, j, J_u=None):
    """Smallest eigenpairs of the local energy/mass pencil on the vertex
    neighborhood.  J_u=None keeps the full local spectrum.

    Returns (eigvals, eigvecs, nb): eigvecs columns are s-orthonormal
    local DOF vectors (interleaved over nb.fine_nodes).
    """
    nb = grid.vertex_neighborhood(j)
    lam, mu = med.lam[nb.fine_cells], med.mu[nb.fine_cells]
    A = fine_fem.assemble_elasticity(nb, lam, mu)
    S = fine_fem.assemble_vector_mass(nb, lam + 2.0 * mu)
    dim = 2 * nb.num_fine_nodes
    if J_u is None:
        J_u = dim
    if not 1 <= J_u <= dim:
        raise ValueError(f"J_u={J_u} outside [1, {dim}] on vertex {j}")

    if dim <= _DENSE_EIG_LIMIT or J_u > dim - 2:
        vals, vecs = scipy.linalg.eigh(A.toarray(), S.toarray(),
                                       subset_by_index=[0, J_u - 1])
    else:
        # shift-invert with a small negative shift; A alone is singular
        # (rigid translations)
        sigma = -1e-3 * (A.diagonal().sum() / S.diagonal().sum())
        # a fixed start vector makes repeated calls return the same
        # eigenvectors; ARPACK's own random start changes between calls
        v0 = np.random.default_rng(0).standard_normal(dim)
        vals, vecs = spla.eigsh(A.tocsc(), k=J_u, M=S.tocsc(),
                                sigma=sigma, which="LM", v0=v0)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    vals = np.where(np.abs(vals) < 1e-10 * max(abs(vals[-1]), 1.0), 0.0, vals)
    vals = np.maximum(vals, 0.0)
    # enforce exact s-orthonormality (degenerate modes may come out skew)
    G = vecs.T @ (S @ vecs)
    L = scipy.linalg.cholesky(G, lower=True)
    vecs = scipy.linalg.solve_triangular(L, vecs.T, lower=True).T
    return vals, vecs, nb


def build_pou(grid, med):
    """Partition-of-unity pair (xi1, xi2) of every coarse vertex.

    On each coarse block, the homogeneous elasticity problem is solved
    with the hat of a corner vertex as Dirichlet data in one component
    and zero in the other.  The block's interior elasticity matrix is
    factorized once and solved at once for its four corners and both
    components.  Returns one (xi1, xi2) per vertex j; each field has
    shape (len(nb.fine_nodes), 2) on nb = grid.vertex_neighborhood(j).
    """
    nbs = [grid.vertex_neighborhood(j)
           for j in range(grid.num_coarse_vertices)]
    pou = [(np.zeros((len(nb.fine_nodes), 2)),
            np.zeros((len(nb.fine_nodes), 2))) for nb in nbs]
    for c in range(grid.num_coarse_cells):
        block = Neighborhood([c], grid)
        nodes = block.fine_nodes
        # nodes of fewer than four block cells lie on the block boundary
        on_bnd = np.bincount(block.cell_nodes.ravel()) < 4
        A = fine_fem.assemble_elasticity(block, med.lam[block.fine_cells],
                                         med.mu[block.fine_cells])
        bnd_dofs = np.repeat(on_bnd, 2)
        ii = np.flatnonzero(~bnd_dofs)
        bb = np.flatnonzero(bnd_dofs)

        # columns 2k and 2k+1: corner k's hat in the x and y component
        corners = grid.coarse_cell_nodes[c]
        xy = grid.fine_node_xy(nodes[on_bnd])
        sol = np.zeros((2 * len(nodes), 8))
        for k, j in enumerate(corners):
            hat = hat_value(grid, j, xy)
            sol[bb[0::2], 2 * k] = hat
            sol[bb[1::2], 2 * k + 1] = hat
        if len(ii):
            sol[ii] = spla.splu(A[ii][:, ii].tocsc()).solve(
                -(A[ii][:, bb] @ sol[bb]))

        for k, j in enumerate(corners):
            loc = nbs[j].local_nodes(nodes)
            for comp, xi in enumerate(pou[j]):
                xi[loc] = sol[:, 2 * k + comp].reshape(-1, 2)
    return pou


def multiply_basis(pou, eigvecs):
    """Nodewise product of the POU multipliers with eigenfields.

    pou = (xi1, xi2); eigvecs columns are interleaved local DOF vectors.
    Returns columns of the same layout: x-components scaled by xi1's
    first component, y-components by xi2's second.
    """
    xi1, xi2 = pou
    out = np.empty_like(eigvecs)
    out[0::2, :] = xi1[:, 0][:, None] * eigvecs[0::2, :]
    out[1::2, :] = xi2[:, 1][:, None] * eigvecs[1::2, :]
    return out


class VertexBasis:
    """Eigenpairs and product fields of one coarse vertex."""

    def __init__(self, grid, med, j, pou, J_u=None):
        self.vertex = j
        self.eigvals, eigvecs, self.nb = local_displacement_eig(
            grid, med, j, J_u)
        self.fields = multiply_basis(pou, eigvecs)


class DisplacementOfflineBasis:
    """Product basis for every coarse vertex (up to max_modes eigenpairs
    each; truncation to a smaller J_u happens at prolongation time)."""

    def __init__(self, grid, med, max_modes=None):
        self.grid = grid
        self.max_modes = max_modes
        self.vertex_bases = [VertexBasis(grid, med, j, pou, max_modes)
                             for j, pou in enumerate(build_pou(grid, med))]


def assemble_R_u(basis: DisplacementOfflineBasis, J_u=None):
    """Prolongation from offline displacement coefficients to fine DOFs.

    Only interior coarse vertices get columns: u = 0 on the whole
    boundary in both models.  Returns (R_u, modes), where modes holds
    each column's mode index at its vertex.
    """
    grid = basis.grid
    return fine_fem.prolongation(
        ((fine_fem.node_dofs(vb.nb.fine_nodes), vb.fields[:, :J_u])
         for vb in basis.vertex_bases
         if not grid.coarse_vertex_is_boundary(vb.vertex)),
        2 * grid.num_fine_nodes)


def build_coarse_pressure(grid):
    """Indicator prolongation from coarse-cell to fine-cell constants."""
    rows = np.arange(grid.num_fine_cells)
    cols = grid.coarse_cell_of_fine_cell
    return sp.coo_matrix(
        (np.ones(grid.num_fine_cells), (rows, cols)),
        shape=(grid.num_fine_cells, grid.num_coarse_cells)).tocsr()

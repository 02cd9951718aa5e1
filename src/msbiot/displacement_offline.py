"""Multiscale displacement basis and the coarse pressure space.

Per interior coarse vertex neighborhood: a generalized eigenproblem on
the full local fine displacement space (elastic energy against a
(lam+2mu)-weighted mass), a pair of blockwise elasticity-harmonic
partition-of-unity fields driven by the bilinear hat of the vertex, and
the nodewise products of the two.  Boundary vertices get the partition
of unity only: u = 0 on the boundary, so no basis of theirs is used.
The coarse pressure space is the indicator basis of the coarse cells.

Local problems are set up by patch shape: the coarse blocks are all
congruent, and so are the interior vertex neighborhoods, so their
matrices are assembled together (fine_fem.assemble_patches) and the
block's interior/boundary split, sub-block positions and scatter-back
indices are found once.  Every SuperLU factor and eigenproblem still
runs per patch on the arrays a per-patch assembly gives, so the answers
are bitwise unchanged.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fine_fem
from .grid import Neighborhood, Placements

_DENSE_EIG_LIMIT = 900  # local DOF count below which dense eigh is used


def hat_value(grid, j, xy):
    """Bilinear hat of coarse vertex j evaluated at points xy.  j and
    the leading axes of xy broadcast against each other."""
    X = grid.coarse_vertex_xy(j)
    H = grid.H
    xy = np.atleast_2d(xy)
    return (np.maximum(0.0, 1.0 - np.abs(xy[..., 0] - X[..., 0]) / H)
            * np.maximum(0.0, 1.0 - np.abs(xy[..., 1] - X[..., 1]) / H))


def vertex_pencils(grid, med, vertices):
    """(nb, A, S) of each vertex: its neighborhood nb, the elastic
    energy A and the (lam+2mu)-weighted mass S on it.  Congruent
    neighborhoods are assembled together (fine_fem.assemble_patches),
    bitwise as on each alone.  Yields them in the order of vertices."""
    lam, mu = med.lam, med.mu
    nbs = [grid.vertex_neighborhood(j) for j in vertices]
    mats = fine_fem.assemble_patches(nbs, lambda mesh, cells: (
        fine_fem.assemble_elasticity(mesh, lam[cells], mu[cells]),
        fine_fem.assemble_vector_mass(mesh, lam[cells] + 2.0 * mu[cells])))
    for nb, (A, S) in zip(nbs, mats):
        yield nb, A, S


def local_displacement_eig(grid, med, j, J_u=None, pencil=None):
    """Smallest eigenpairs of the local energy/mass pencil on the vertex
    neighborhood.  J_u=None keeps the full local spectrum.  pencil: the
    vertex's (nb, A, S) as vertex_pencils gives it, assembled here when
    None.

    Returns (eigvals, eigvecs, nb): eigvecs columns are s-orthonormal
    local DOF vectors (interleaved over nb.fine_nodes).
    """
    nb, A, S = pencil or next(vertex_pencils(grid, med, [j]))
    dim = 2 * nb.num_fine_nodes
    if J_u is None:
        J_u = dim
    if not 1 <= J_u <= dim:
        raise ValueError(f"J_u={J_u} outside [1, {dim}] on vertex {j}")

    if dim <= _DENSE_EIG_LIMIT or J_u > dim - 2:
        # LAPACK works in place on Fortran-ordered copies
        vals, vecs = scipy.linalg.eigh(
            A.toarray(order="F"), S.toarray(order="F"),
            subset_by_index=[0, J_u - 1], overwrite_a=True, overwrite_b=True,
            check_finite=False)
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
    components.  The blocks are congruent, so their interior/boundary
    split, the positions of the interior and coupling sub-blocks and
    where a block's nodes lie in each corner's neighborhood are found
    once; a block only gathers its own values into them.  Returns one
    (xi1, xi2) per vertex j; each field has shape
    (len(nb.fine_nodes), 2) on nb = grid.vertex_neighborhood(j).
    """
    nbs = [grid.vertex_neighborhood(j)
           for j in range(grid.num_coarse_vertices)]
    pou = [(np.zeros((len(nb.fine_nodes), 2)),
            np.zeros((len(nb.fine_nodes), 2))) for nb in nbs]
    blocks = [Neighborhood([c], grid) for c in range(grid.num_coarse_cells)]
    shape = blocks[0].shape
    # nodes of fewer than four block cells lie on the block boundary
    on_bnd = np.bincount(shape.cell_nodes.ravel()) < 4
    bnd_dofs = np.repeat(on_bnd, 2)
    ii = np.flatnonzero(~bnd_dofs)
    bb = np.flatnonzero(bnd_dofs)
    ones = np.ones(shape.num_fine_cells)
    template = fine_fem.assemble_elasticity(shape, ones, ones)
    A_ii = fine_fem.Gather(lambda A: A[ii][:, ii].tocsc(), template)
    A_ib = fine_fem.Gather(lambda A: A[ii][:, bb], template)
    place = Placements()

    # Dirichlet data: hat k of each block's corners on its boundary nodes
    corners = grid.coarse_cell_nodes
    hats = hat_value(grid, corners[:, :, None], grid.fine_node_xy(
        np.stack([b.fine_nodes[on_bnd] for b in blocks]))[:, None])
    mats = fine_fem.assemble_patches(blocks, lambda mesh, cells: (
        fine_fem.assemble_elasticity(mesh, med.lam[cells], med.mu[cells]),))
    for block, hat, (A,) in zip(blocks, hats, mats):
        # columns 2k and 2k+1: corner k's hat in the x and y component
        sol = np.zeros((2 * shape.num_fine_nodes, 8))
        sol[bb[0::2], 0::2] = hat.T
        sol[bb[1::2], 1::2] = hat.T
        if len(ii):
            sol[ii] = spla.splu(A_ii(A.data)).solve(
                -(A_ib(A.data) @ sol[bb]))

        for k, j in enumerate(corners[block.members[0]]):
            _, loc, _ = place(nbs[j], block)
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

    def __init__(self, grid, med, j, pou, J_u, pencil):
        self.vertex = j
        self.eigvals, eigvecs, self.nb = local_displacement_eig(
            grid, med, j, J_u, pencil)
        self.fields = multiply_basis(pou, eigvecs)


class DisplacementOfflineBasis:
    """Product basis of every interior coarse vertex (up to max_modes
    eigenpairs each; truncation to a smaller J_u happens at prolongation
    time).  u = 0 on the whole boundary in both models, so no column of
    a prolongation uses a boundary vertex, and none gets a basis; the
    partition of unity is still built for every vertex."""

    def __init__(self, grid, med, max_modes=None):
        self.grid = grid
        self.max_modes = max_modes
        pou = build_pou(grid, med)
        interior = grid.interior_coarse_vertices()
        self.vertex_bases = [
            VertexBasis(grid, med, j, pou[j], max_modes, pencil)
            for j, pencil in zip(interior,
                                 vertex_pencils(grid, med, interior))]


def assemble_R_u(basis: DisplacementOfflineBasis, J_u=None):
    """Prolongation from offline displacement coefficients to fine DOFs.

    The basis holds interior coarse vertices only, so only they get
    columns: u = 0 on the whole boundary in both models.  Returns
    (R_u, modes), where modes holds each column's mode index at its
    vertex.
    """
    return fine_fem.prolongation(
        ((fine_fem.node_dofs(vb.nb.fine_nodes), vb.fields[:, :J_u])
         for vb in basis.vertex_bases),
        2 * basis.grid.num_fine_nodes)


def build_coarse_pressure(grid):
    """Indicator prolongation from coarse-cell to fine-cell constants."""
    rows = np.arange(grid.num_fine_cells)
    cols = grid.coarse_cell_of_fine_cell
    return sp.coo_matrix(
        (np.ones(grid.num_fine_cells), (rows, cols)),
        shape=(grid.num_fine_cells, grid.num_coarse_cells)).tocsr()

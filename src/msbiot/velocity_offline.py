"""Multiscale velocity basis: snapshots and local spectral reduction.

Per coarse edge, one unit-flux mixed Darcy problem is solved for every
fine edge composing it; each problem decouples into independent
pure-Neumann solves on the adjacent coarse blocks.  The snapshot span
is then reduced by a generalized eigenproblem on the edge neighborhood
(two variants), keeping the smallest-eigenvalue modes.

Snapshot fields are stored in the local edge numbering of their
neighborhood to keep memory bounded.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import VERTICAL
from . import fine_fem


def edge_kappa(grid, med, fine_edges):
    """Harmonic mean of kappa across each fine edge (one-sided on the
    domain boundary)."""
    out = np.empty(len(fine_edges), dtype=float)
    for k, e in enumerate(fine_edges):
        vals = med.kappa[[c for c in grid.fine_edge_cells(e) if c is not None]]
        out[k] = len(vals) / np.sum(1.0 / vals)
    return out


def _block_sign(grid, i, coarse_cell):
    """+1 if the fixed edge normal m_i points out of the coarse block."""
    orient, IX, IY = grid.coarse_edge_components(i)
    N = grid.N
    CX, CY = coarse_cell % N, coarse_cell // N
    if orient == VERTICAL:
        return 1.0 if CX == IX - 1 else -1.0
    return 1.0 if CY == IY - 1 else -1.0


class EdgeSnapshots:
    """All snapshot solutions attached to one coarse edge.

    vel: (len(nb.fine_edges), l_i) snapshot velocity coefficients in
    local edge numbering; pressures: (len(nb.fine_cells), l_i) with
    zero mean per coarse block; alphas: per-block source constants.
    """

    def __init__(self, grid, med, i):
        self.edge = i
        self.nb = grid.edge_neighborhood(i)
        self.fine_edges_on = grid.fine_edges_on(i)
        nb = self.nb
        l = len(self.fine_edges_on)
        h = grid.h
        self.vel = np.zeros((len(nb.fine_edges), l))
        self.pressures = np.zeros((len(nb.fine_cells), l))
        self.alphas = np.zeros((len(nb.members), l))
        self.block_signs = np.array(
            [_block_sign(grid, i, c) for c in nb.members])

        loc_E = nb.local_edges(self.fine_edges_on)
        # prescribed flux data: identity on the coarse edge's fine edges
        self.vel[loc_E, np.arange(l)] = 1.0

        for bi, coarse_cell in enumerate(nb.members):
            cells = grid.fine_cells_of_coarse_cell(coarse_cell)
            edges = np.unique(grid.cell_edges[cells])
            # edges shared by two block cells are interior to the block
            counts = np.bincount(
                np.searchsorted(edges, grid.cell_edges[cells].ravel()),
                minlength=len(edges))
            interior = counts == 2

            Jb = fine_fem.submat(fine_fem.assemble_velocity_mass(
                grid, med.nu / med.kappa, cells), edges, edges)
            Kb = fine_fem.submat(fine_fem.assemble_div_K(grid), edges, cells)

            ii = np.flatnonzero(interior)
            bb = np.flatnonzero(~interior)
            J_II = Jb[ii][:, ii]
            J_IB = Jb[ii][:, bb]
            K_I = Kb[ii]
            K_B = Kb[bb]
            ncell = len(cells)
            w = np.full(ncell, h ** 2)
            sys = sp.bmat([
                [J_II, -K_I, None],
                [K_I.T, None, w[:, None]],
                [None, w[None, :], None]], format="csc")
            lu = spla.splu(sys)

            sign = self.block_signs[bi]
            area = (grid.m * h) ** 2
            alpha = sign * h / area          # |alpha| = h * N^2
            self.alphas[bi, :] = alpha

            loc_cells = nb.local_cells(cells)
            loc_block_edges = nb.local_edges(edges)
            for j in range(l):
                g_B = self.vel[loc_block_edges[bb], j]
                rhs = np.concatenate([
                    -J_IB @ g_B,
                    alpha * h ** 2 - K_B.T @ g_B,
                    [0.0]])
                sol = lu.solve(rhs)
                self.vel[loc_block_edges[ii], j] = sol[:len(ii)]
                self.pressures[loc_cells, j] = sol[len(ii):len(ii) + ncell]

    def pressure_jumps(self, grid):
        """Jump of each snapshot pressure across every fine edge of the
        coarse edge; single-sided trace on a boundary edge."""
        nb = self.nb
        jumps = np.zeros((len(self.fine_edges_on), self.vel.shape[1]))
        cc = grid.coarse_cell_of_fine_cell
        for k, e in enumerate(self.fine_edges_on):
            for cell, s in zip(grid.fine_edge_cells(e), (1.0, -1.0)):
                if cell is not None and cc[cell] in nb.members:
                    jumps[k] += s * self.pressures[nb.local_cells(cell), :]
        return jumps


def build_snapshot_space(grid, med):
    """Snapshot sets for every coarse edge."""
    return [EdgeSnapshots(grid, med, i) for i in range(grid.num_coarse_edges)]


class EdgeBasis:
    """Eigenpairs and offline fields of one coarse edge."""

    def __init__(self, edge, nb, eigvals, fields):
        self.edge = edge
        self.nb = nb
        self.eigvals = eigvals       # nondecreasing
        self.fields = fields         # (len(nb.fine_edges), l) offline fields


def _neighborhood_grams(grid, med, snap):
    nb = snap.nb
    cells = nb.fine_cells
    edges = nb.fine_edges
    Jk = fine_fem.submat(fine_fem.assemble_velocity_mass(
        grid, 1.0 / med.kappa, cells), edges, edges)
    DD = fine_fem.submat(fine_fem.assemble_divdiv(grid, cells), edges, edges)
    return Jk, DD


def spectral_reduce_1(grid, med, snap: EdgeSnapshots):
    """Edge-flux vs neighborhood energy eigenproblem (default variant)."""
    S = snap.vel
    loc_E = snap.nb.local_edges(snap.fine_edges_on)
    kap_e = edge_kappa(grid, med, snap.fine_edges_on)
    # snapshot normal traces on the coarse edge are the identity, so the
    # edge form is diagonal in the snapshot coordinates
    flux = S[loc_E, :]
    a_mat = flux.T @ ((grid.h / kap_e)[:, None] * flux)
    Jk, DD = _neighborhood_grams(grid, med, snap)
    s_mat = S.T @ ((Jk + DD) @ S)
    return _edge_eigh(snap, a_mat, s_mat, allow_shift=False)


def spectral_reduce_2(grid, med, snap: EdgeSnapshots):
    """Neighborhood velocity form against the pressure-jump form."""
    S = snap.vel
    Jk, _ = _neighborhood_grams(grid, med, snap)
    a_mat = S.T @ (Jk @ S)
    jumps = snap.pressure_jumps(grid)
    s_mat = grid.h * jumps.T @ jumps
    return _edge_eigh(snap, a_mat, s_mat, allow_shift=True)


def _edge_eigh(snap, a_mat, s_mat, allow_shift):
    a_mat = 0.5 * (a_mat + a_mat.T)
    s_mat = 0.5 * (s_mat + s_mat.T)
    try:
        scipy.linalg.cholesky(s_mat)
    except scipy.linalg.LinAlgError:
        if not allow_shift:
            raise RuntimeError(
                f"snapshot Gram matrix not SPD on edge {snap.edge}")
        s_mat = s_mat + 1e-12 * np.trace(s_mat) * np.eye(len(s_mat))
    vals, vecs = scipy.linalg.eigh(a_mat, s_mat)
    vals = np.maximum(vals, 0.0)
    return EdgeBasis(snap.edge, snap.nb, vals, snap.vel @ vecs)


class VelocityOfflineBasis:
    """Offline velocity modes for every coarse edge (full spectrum kept;
    truncation to J_v happens when the prolongation is assembled)."""

    def __init__(self, grid, med, spectral_problem=1):
        reduce_fn = {1: spectral_reduce_1, 2: spectral_reduce_2}[spectral_problem]
        self.grid = grid
        self.edge_bases = [reduce_fn(grid, med, snap)
                           for snap in build_snapshot_space(grid, med)]


def assemble_R_g(basis: VelocityOfflineBasis, bspec, J_v):
    """Prolongation from offline velocity coefficients to fine edges.

    Returns (R_g, free_cols): free_cols masks out columns of coarse
    edges lying on a Gamma2 portion of the boundary.
    """
    grid = basis.grid
    gamma2 = set(grid.boundary_fine_edges(bspec.gamma2).tolist())
    return fine_fem.prolongation(
        ((eb.nb.fine_edges, eb.fields[:, :J_v],
          not gamma2.issuperset(grid.fine_edges_on(eb.edge).tolist()))
         for eb in basis.edge_bases), grid.num_fine_edges)

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

from . import fine_fem
from .grid import Neighborhood, edge_cells

# sign of each block side's fixed normal (left, right, bottom, top)
# against the block's outward normal
_SIDE_SIGNS = (-1.0, 1.0, -1.0, 1.0)


def edge_kappa(mesh, kappa, edges):
    """Harmonic mean of kappa (one value per mesh cell) across each of
    the mesh's edges; one-sided where the mesh has a cell on one side."""
    sides = edge_cells(mesh)[edges]
    # a missing side's term is exactly 0.0
    inv = np.append(1.0 / kappa, 0.0)[sides]
    return (sides >= 0).sum(axis=1) / (inv[:, 0] + inv[:, 1])


class EdgeSnapshots:
    """All snapshot solutions attached to one coarse edge; created with
    the prescribed fluxes and filled in by build_snapshot_space.

    vel: (len(nb.fine_edges), l_i) snapshot velocity coefficients in
    local edge numbering; pressures: (len(nb.fine_cells), l_i) with
    zero mean per coarse block; alphas: per-block source constants.
    """

    def __init__(self, grid, i):
        self.edge = i
        self.nb = nb = grid.edge_neighborhood(i)
        self.fine_edges_on = grid.fine_edges_on(i)
        l = len(self.fine_edges_on)
        self.vel = np.zeros((len(nb.fine_edges), l))
        # prescribed flux data: identity on the coarse edge's fine edges
        self.vel[nb.local_edges(self.fine_edges_on), np.arange(l)] = 1.0
        self.pressures = np.zeros((len(nb.fine_cells), l))
        self.alphas = np.zeros((len(nb.members), l))

    def pressure_jumps(self):
        """Jump (before minus after) of each snapshot pressure across
        every fine edge of the coarse edge; single-sided trace on a
        boundary edge."""
        sides = edge_cells(self.nb)[self.nb.local_edges(self.fine_edges_on)]
        # row -1 is the exactly-zero pressure of a missing side
        p = np.vstack([self.pressures, np.zeros(self.vel.shape[1])])
        return p[sides[:, 0]] - p[sides[:, 1]]


def build_snapshot_space(grid, med):
    """Snapshot sets for every coarse edge.

    A snapshot's problem splits into one pure-Neumann problem per
    adjacent coarse block, so the loop runs over blocks: each block's
    saddle system (the mean-zero pressure held by a multiplier) is
    factorized once and solved at once for the unit fluxes through
    every fine edge of its four sides.
    """
    snaps = [EdgeSnapshots(grid, i) for i in range(grid.num_coarse_edges)]
    m, h = grid.m, grid.h
    alpha = h / (m * h) ** 2             # |alpha| = h * N^2
    weight = med.nu / med.kappa
    for c in range(grid.num_coarse_cells):
        block = Neighborhood([c], grid)
        cells, edges = block.fine_cells, block.fine_edges
        # edges shared by two block cells are interior to the block
        counts = np.bincount(block.cell_edges.ravel())
        ii = np.flatnonzero(counts == 2)
        bb = np.flatnonzero(counts != 2)
        Jb = fine_fem.assemble_velocity_mass(block, weight[cells])
        Kb = fine_fem.assemble_div_K(block)
        w = np.full((len(cells), 1), h ** 2)
        lu = spla.splu(sp.bmat([
            [Jb[ii][:, ii], -Kb[ii], None],
            [Kb[ii].T, None, w],
            [None, w.T, None]], format="csc"))

        # one column per fine edge of each side: unit flux through it,
        # no flux through the rest of the block boundary
        sides = grid.coarse_cell_edges[c]
        g_B = np.zeros((len(bb), 4 * m))
        for k, i in enumerate(sides):
            g_B[np.searchsorted(edges[bb], grid.fine_edges_on(i)),
                k * m + np.arange(m)] = 1.0
        alphas = alpha * np.repeat(_SIDE_SIGNS, m)
        sol = lu.solve(np.vstack([
            -(Jb[ii][:, bb] @ g_B),
            alphas * h ** 2 - Kb[bb].T @ g_B,
            np.zeros((1, 4 * m))]))

        for k, (i, sign) in enumerate(zip(sides, _SIDE_SIGNS)):
            snap = snaps[i]
            cols = sol[:, k * m:(k + 1) * m]
            snap.vel[snap.nb.local_edges(edges[ii])] = cols[:len(ii)]
            snap.pressures[snap.nb.local_cells(cells)] = cols[len(ii):-1]
            snap.alphas[list(snap.nb.members).index(c)] = sign * alpha
    return snaps


class EdgeBasis:
    """Eigenpairs and offline fields of one coarse edge."""

    def __init__(self, edge, nb, eigvals, fields):
        self.edge = edge
        self.nb = nb
        self.eigvals = eigvals       # nondecreasing
        self.fields = fields         # (len(nb.fine_edges), l) offline fields


def spectral_reduce_1(grid, med, snap: EdgeSnapshots):
    """Edge-flux vs neighborhood energy eigenproblem (default variant)."""
    S = snap.vel
    nb = snap.nb
    loc_E = nb.local_edges(snap.fine_edges_on)
    kap_e = edge_kappa(nb, med.kappa[nb.fine_cells], loc_E)
    # snapshot normal traces on the coarse edge are the identity, so the
    # edge form is diagonal in the snapshot coordinates
    flux = S[loc_E, :]
    a_mat = flux.T @ ((grid.h / kap_e)[:, None] * flux)
    energy = fine_fem.assemble_velocity_mass(
        nb, 1.0 / med.kappa[nb.fine_cells]) + fine_fem.assemble_divdiv(nb)
    s_mat = S.T @ (energy @ S)
    return _edge_eigh(snap, a_mat, s_mat, allow_shift=False)


def spectral_reduce_2(grid, med, snap: EdgeSnapshots):
    """Neighborhood velocity form against the pressure-jump form."""
    S = snap.vel
    nb = snap.nb
    Jk = fine_fem.assemble_velocity_mass(nb, 1.0 / med.kappa[nb.fine_cells])
    a_mat = S.T @ (Jk @ S)
    jumps = snap.pressure_jumps()
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

    Coarse edges lying on a Gamma2 portion of the boundary (zero normal
    flux) get no columns.  Returns (R_g, modes), where modes holds each
    column's mode index at its edge.
    """
    grid = basis.grid
    gamma2 = set(grid.boundary_fine_edges(bspec.gamma2).tolist())
    return fine_fem.prolongation(
        ((eb.nb.fine_edges, eb.fields[:, :J_v])
         for eb in basis.edge_bases
         if not gamma2.issuperset(grid.fine_edges_on(eb.edge).tolist())),
        grid.num_fine_edges)

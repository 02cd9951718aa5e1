"""Multiscale velocity basis: snapshots and local spectral reduction.

Per coarse edge, one unit-flux mixed Darcy problem is solved for every
fine edge composing it; each problem decouples into independent
pure-Neumann solves on the adjacent coarse blocks.  The snapshot span
is then reduced by a generalized eigenproblem on the edge neighborhood
(two variants), keeping the smallest-eigenvalue modes.

Snapshot fields are stored in the local edge numbering of their
neighborhood to keep memory bounded.

Local problems are set up by patch shape: the coarse blocks are all
congruent, and so are the edge neighborhoods of each orientation, so
their matrices are assembled together (fine_fem.assemble_patches) and
the saddle system's layout, its fixed entries, the unit-flux right-hand
sides and the scatter-back indices are found once.  Every SuperLU factor
and eigenproblem still runs per patch on the arrays a per-patch assembly
gives, so the answers are bitwise unchanged.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fine_fem
from .grid import Neighborhood, Placements, edge_cells

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
    every fine edge of its four sides.  The blocks are congruent, so the
    saddle system's layout, its divergence and multiplier entries, the
    unit-flux right-hand sides and where a block's edges and cells lie
    in each side's neighborhood are found once; a block only gathers its
    velocity mass into them.
    """
    snaps = [EdgeSnapshots(grid, i) for i in range(grid.num_coarse_edges)]
    m, h = grid.m, grid.h
    alpha = h / (m * h) ** 2             # |alpha| = h * N^2
    weight = med.nu / med.kappa
    blocks = [Neighborhood([c], grid) for c in range(grid.num_coarse_cells)]
    first = blocks[0]
    shape = first.shape
    # edges shared by two block cells are interior to the block
    counts = np.bincount(shape.cell_edges.ravel())
    ii = np.flatnonzero(counts == 2)
    bb = np.flatnonzero(counts != 2)
    Kb = fine_fem.assemble_div_K(shape)
    w = np.full((shape.num_fine_cells, 1), h ** 2)
    fixed = (-Kb[ii], Kb[ii].T, w, w.T)
    template = fine_fem.assemble_velocity_mass(
        shape, np.ones(shape.num_fine_cells))
    saddle = fine_fem.Gather(lambda J, mK, Kt, w, wt: sp.bmat([
        [J[ii][:, ii], mK, None],
        [Kt, None, w],
        [None, wt, None]], format="csc"), template, *fixed)
    fixed_data = [a.data if sp.issparse(a) else a.ravel() for a in fixed]
    J_ib = fine_fem.Gather(lambda J: J[ii][:, bb], template)

    # one column per fine edge of each side: unit flux through it, no
    # flux through the rest of the block boundary; the same for every
    # block in its local numbering
    g_B = np.zeros((len(bb), 4 * m))
    for k, i in enumerate(grid.coarse_cell_edges[first.members[0]]):
        g_B[np.searchsorted(first.fine_edges[bb], grid.fine_edges_on(i)),
            k * m + np.arange(m)] = 1.0
    alphas = alpha * np.repeat(_SIDE_SIGNS, m)
    rhs_p = np.vstack([alphas * h ** 2 - Kb[bb].T @ g_B,
                       np.zeros((1, 4 * m))])
    place = Placements()

    mats = fine_fem.assemble_patches(blocks, lambda mesh, cells: (
        fine_fem.assemble_velocity_mass(mesh, weight[cells]),))
    for block, (Jb,) in zip(blocks, mats):
        c = block.members[0]
        lu = spla.splu(saddle(Jb.data, *fixed_data))
        sol = lu.solve(np.vstack([-(J_ib(Jb.data) @ g_B), rhs_p]))

        for k, (i, sign) in enumerate(zip(grid.coarse_cell_edges[c],
                                          _SIDE_SIGNS)):
            snap = snaps[i]
            cols = sol[:, k * m:(k + 1) * m]
            cells, _, edges = place(snap.nb, block)
            snap.vel[edges[ii]] = cols[:len(ii)]
            snap.pressures[cells] = cols[len(ii):-1]
            snap.alphas[list(snap.nb.members).index(c)] = sign * alpha
    return snaps


class EdgeBasis:
    """Eigenpairs and offline fields of one coarse edge."""

    def __init__(self, edge, nb, eigvals, fields):
        self.edge = edge
        self.nb = nb
        self.eigvals = eigvals       # nondecreasing
        self.fields = fields         # (len(nb.fine_edges), l) offline fields


def edge_grams(grid, med, snaps, spectral_problem):
    """The neighborhood Gram matrix each spectral problem reads, one per
    snapshot set: the velocity mass weighted by 1/kappa, plus the
    div-div Gram for problem 1.  Congruent neighborhoods are assembled
    together (fine_fem.assemble_patches), bitwise as on each alone."""
    inv = 1.0 / med.kappa

    def assemble(mesh, cells):
        gram = fine_fem.assemble_velocity_mass(mesh, inv[cells])
        if spectral_problem == 1:
            gram = gram + fine_fem.assemble_divdiv(mesh)
        return (gram,)

    for (gram,) in fine_fem.assemble_patches([s.nb for s in snaps],
                                             assemble):
        yield gram


def spectral_reduce_1(grid, med, snap: EdgeSnapshots, energy):
    """Edge-flux vs neighborhood energy eigenproblem (default variant).
    energy: the neighborhood's velocity mass plus div-div Gram, as
    edge_grams gives it."""
    S = snap.vel
    nb = snap.nb
    loc_E = nb.local_edges(snap.fine_edges_on)
    kap_e = edge_kappa(nb, med.kappa[nb.fine_cells], loc_E)
    # snapshot normal traces on the coarse edge are the identity, so the
    # edge form is diagonal in the snapshot coordinates
    flux = S[loc_E, :]
    a_mat = flux.T @ ((grid.h / kap_e)[:, None] * flux)
    s_mat = S.T @ (energy @ S)
    return _edge_eigh(snap, a_mat, s_mat, allow_shift=False)


def spectral_reduce_2(grid, med, snap: EdgeSnapshots, Jk):
    """Neighborhood velocity form against the pressure-jump form.  Jk:
    the neighborhood's 1/kappa-weighted velocity mass, as edge_grams
    gives it."""
    S = snap.vel
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
    # LAPACK works in place on Fortran-ordered copies
    vals, vecs = scipy.linalg.eigh(
        np.asfortranarray(a_mat), np.asfortranarray(s_mat),
        overwrite_a=True, overwrite_b=True, check_finite=False)
    vals = np.maximum(vals, 0.0)
    return EdgeBasis(snap.edge, snap.nb, vals, snap.vel @ vecs)


class VelocityOfflineBasis:
    """Offline velocity modes for every coarse edge (full spectrum kept;
    truncation to J_v happens when the prolongation is assembled)."""

    def __init__(self, grid, med, spectral_problem=1):
        reduce_fn = {1: spectral_reduce_1, 2: spectral_reduce_2}[spectral_problem]
        self.grid = grid
        snaps = build_snapshot_space(grid, med)
        self.edge_bases = [
            reduce_fn(grid, med, snap, gram) for snap, gram in zip(
                snaps, edge_grams(grid, med, snaps, spectral_problem))]


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

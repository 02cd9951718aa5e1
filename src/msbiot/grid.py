"""Nested structured grids on the unit square.

Two uniform quadrilateral grids are kept: a coarse N x N partition and a
fine n x n refinement (n divisible by N).  All entities are indexed
row-major with x running fastest.  Edge normals are fixed globally:
vertical edges carry the +x normal, horizontal edges the +y normal.

Fine edge numbering: all vertical edges first (index iy*(n+1) + ix for
ix in 0..n, iy in 0..n-1), then all horizontal edges with offset
(n+1)*n (index iy*n + ix for ix in 0..n-1, iy in 0..n).  Coarse edges
follow the same scheme with N in place of n.
"""

import numpy as np

VERTICAL = 0    # edge normal +x
HORIZONTAL = 1  # edge normal +y


class GridHierarchy:
    """Nested coarse/fine tensor grids with entity adjacency queries."""

    def __init__(self, N, n):
        if N < 2:
            raise ValueError(f"need N >= 2, got N={N}")
        if n % N != 0:
            raise ValueError(f"fine grid n={n} not divisible by coarse grid N={N}")
        self.N = N
        self.n = n
        self.m = n // N          # fine cells per coarse cell side; also l_i
        self.H = 1.0 / N
        self.h = 1.0 / n

        # fine entity counts
        self.num_fine_nodes = (n + 1) ** 2
        self.num_fine_cells = n ** 2
        self.num_fine_vedges = (n + 1) * n
        self.num_fine_edges = 2 * n * (n + 1)

        # coarse entity counts
        self.num_coarse_vertices = (N + 1) ** 2
        self.num_coarse_cells = N ** 2
        self.num_coarse_vedges = (N + 1) * N
        self.num_coarse_edges = 2 * N * (N + 1)

        self._build_maps()

    def _build_maps(self):
        n, N, m = self.n, self.N, self.m

        # coarse cell owning each fine cell
        ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        self.coarse_cell_of_fine_cell = ((iy // m) * N + (ix // m)).ravel()

        # per-cell edge indices, order (left, right, bottom, top)
        off = self.num_fine_vedges
        left = iy * (n + 1) + ix
        right = left + 1
        bottom = off + iy * n + ix
        top = off + (iy + 1) * n + ix
        self.cell_edges = np.stack(
            [left.ravel(), right.ravel(), bottom.ravel(), top.ravel()], axis=1)

        # per-cell node indices, order (SW, SE, NW, NE)
        sw = iy * (n + 1) + ix
        self.cell_nodes = np.stack(
            [sw.ravel(), sw.ravel() + 1, sw.ravel() + n + 1, sw.ravel() + n + 2],
            axis=1)

        # orientation of every fine edge
        self.fine_edge_orientation = np.concatenate([
            np.full(self.num_fine_vedges, VERTICAL, dtype=np.int8),
            np.full(n * (n + 1), HORIZONTAL, dtype=np.int8)])

    # ---- index helpers -------------------------------------------------

    def fine_node_xy(self, idx):
        """Coordinates of fine node(s)."""
        idx = np.asarray(idx)
        return np.stack([(idx % (self.n + 1)) * self.h,
                         (idx // (self.n + 1)) * self.h], axis=-1)

    def fine_cell_center(self, idx):
        idx = np.asarray(idx)
        return np.stack([((idx % self.n) + 0.5) * self.h,
                         ((idx // self.n) + 0.5) * self.h], axis=-1)

    def coarse_vertex_xy(self, j):
        j = np.asarray(j)
        return np.stack([(j % (self.N + 1)) * self.H,
                         (j // (self.N + 1)) * self.H], axis=-1)

    def fine_edge_cells(self, e):
        """Cells on the two sides of fine edge e, (before, after) along
        its normal; None on a side outside the domain."""
        n = self.n
        if e < self.num_fine_vedges:
            iy, ix = divmod(e, n + 1)
            return (iy * n + ix - 1 if ix > 0 else None,
                    iy * n + ix if ix < n else None)
        iy, ix = divmod(e - self.num_fine_vedges, n)
        return ((iy - 1) * n + ix if iy > 0 else None,
                iy * n + ix if iy < n else None)

    def coarse_edge_components(self, i):
        """Return (orientation, IX, IY) of coarse edge i."""
        if not 0 <= i < self.num_coarse_edges:
            raise IndexError(f"coarse edge index {i} out of range")
        N = self.N
        if i < self.num_coarse_vedges:
            return VERTICAL, i % (N + 1), i // (N + 1)
        k = i - self.num_coarse_vedges
        return HORIZONTAL, k % N, k // N

    def fine_edges_on(self, i):
        """Fine edges composing coarse edge i, ordered along the edge tangent."""
        orient, IX, IY = self.coarse_edge_components(i)
        n, m = self.n, self.m
        if orient == VERTICAL:
            iys = np.arange(IY * m, (IY + 1) * m)
            return iys * (n + 1) + IX * m
        ixs = np.arange(IX * m, (IX + 1) * m)
        return self.num_fine_vedges + (IY * m) * n + ixs

    def coarse_edge_is_boundary(self, i):
        orient, IX, IY = self.coarse_edge_components(i)
        if orient == VERTICAL:
            return IX == 0 or IX == self.N
        return IY == 0 or IY == self.N

    def interior_coarse_edges(self):
        return np.array([i for i in range(self.num_coarse_edges)
                         if not self.coarse_edge_is_boundary(i)])

    def coarse_vertex_is_boundary(self, j):
        VX, VY = j % (self.N + 1), j // (self.N + 1)
        return VX == 0 or VX == self.N or VY == 0 or VY == self.N

    def interior_coarse_vertices(self):
        return np.array([j for j in range(self.num_coarse_vertices)
                         if not self.coarse_vertex_is_boundary(j)])

    def fine_cells_of_coarse_cell(self, c):
        """Fine cells of coarse cell c, ascending."""
        if not 0 <= c < self.num_coarse_cells:
            raise IndexError(f"coarse cell index {c} out of range")
        m = self.m
        CY, CX = divmod(c, self.N)
        iy = np.arange(CY * m, (CY + 1) * m)[:, None]
        ix = np.arange(CX * m, (CX + 1) * m)
        return (iy * self.n + ix).ravel()

    # ---- neighborhoods -------------------------------------------------

    def vertex_neighborhood(self, j):
        """Union of coarse cells sharing coarse vertex j."""
        if not 0 <= j < self.num_coarse_vertices:
            raise IndexError(f"coarse vertex index {j} out of range")
        N = self.N
        VY, VX = divmod(j, N + 1)
        return Neighborhood([CY * N + CX for CY in (VY - 1, VY)
                             for CX in (VX - 1, VX)
                             if 0 <= CX < N and 0 <= CY < N], self)

    def edge_neighborhood(self, i):
        """Union of the coarse cells adjacent to coarse edge i."""
        orient, IX, IY = self.coarse_edge_components(i)
        N = self.N
        if orient == VERTICAL:
            members = [IY * N + CX for CX in (IX - 1, IX) if 0 <= CX < N]
        else:
            members = [CY * N + IX for CY in (IY - 1, IY) if 0 <= CY < N]
        return Neighborhood(members, self)

    # ---- boundary ------------------------------------------------------

    def boundary_fine_nodes(self):
        n = self.n
        idx = np.arange(self.num_fine_nodes)
        ix, iy = idx % (n + 1), idx // (n + 1)
        return idx[(ix == 0) | (ix == n) | (iy == 0) | (iy == n)]

    def boundary_fine_edges(self, sides=("left", "right", "bottom", "top")):
        """Fine edges lying on the requested sides of the unit square."""
        n = self.n
        out = []
        if "left" in sides:
            out.append(np.arange(n) * (n + 1))
        if "right" in sides:
            out.append(np.arange(n) * (n + 1) + n)
        if "bottom" in sides:
            out.append(self.num_fine_vedges + np.arange(n))
        if "top" in sides:
            out.append(self.num_fine_vedges + n * n + np.arange(n))
        if not out:
            return np.array([], dtype=int)
        return np.sort(np.concatenate(out))


class Neighborhood:
    """A union of coarse cells, as a mesh in its own local numbering.

    The local number of a fine cell, node or edge is its position in the
    sorted global arrays ``fine_cells``, ``fine_nodes``, ``fine_edges``.
    ``cell_nodes`` and ``cell_edges`` give each local cell's nodes and
    edges in that numbering, in the grid's per-cell order.  With ``h``
    and the ``num_fine_*`` counts they are all a fine_fem assembler
    reads, so a local matrix is assembled on the neighborhood itself.
    """

    def __init__(self, members, grid):
        self.members = np.asarray(members)
        self.h = grid.h
        self.fine_cells = np.sort(np.concatenate(
            [grid.fine_cells_of_coarse_cell(c) for c in self.members]))
        self.fine_nodes, nodes = np.unique(grid.cell_nodes[self.fine_cells],
                                           return_inverse=True)
        self.fine_edges, edges = np.unique(grid.cell_edges[self.fine_cells],
                                           return_inverse=True)
        self.cell_nodes = nodes.reshape(-1, 4)
        self.cell_edges = edges.reshape(-1, 4)
        self.num_fine_cells = len(self.fine_cells)
        self.num_fine_nodes = len(self.fine_nodes)
        self.num_fine_edges = len(self.fine_edges)

    def local_cells(self, global_idx):
        return _local(self.fine_cells, global_idx, "fine cell")

    def local_nodes(self, global_idx):
        return _local(self.fine_nodes, global_idx, "fine node")

    def local_edges(self, global_idx):
        return _local(self.fine_edges, global_idx, "fine edge")


def _local(sorted_globals, global_idx, what):
    loc = np.minimum(np.searchsorted(sorted_globals, global_idx),
                     len(sorted_globals) - 1)
    if np.any(sorted_globals[loc] != global_idx):
        raise IndexError(f"{what} index not in neighborhood")
    return loc


def build_hierarchy(N, n):
    """Build the nested coarse/fine grid pair on the unit square."""
    return GridHierarchy(N, n)

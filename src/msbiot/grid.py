"""Nested structured grids on the unit square.

Two uniform quadrilateral grids are kept: a coarse N x N partition and a
fine n x n refinement (n divisible by N).  All entities are indexed
row-major with x running fastest.  Edge normals are fixed globally:
vertical edges carry the +x normal, horizontal edges the +y normal.

Fine edge numbering: all vertical edges first (index iy*(n+1) + ix for
ix in 0..n, iy in 0..n-1), then all horizontal edges with offset
(n+1)*n (index iy*n + ix for ix in 0..n-1, iy in 0..n).  Coarse edges
follow the same scheme with N in place of n.

Incidence is stated once: ``_cell_maps(kx, ky)`` gives each cell's
edges and nodes on a kx x ky grid, for the fine grid (n x n), the coarse
one (N x N) and the rectangle of a ``PatchShape``.  Every other
incidence fact is read off a map.  An edge is interior when two cells
list it and a node when four do; the cells of a vertex or edge
neighborhood are those whose coarse map lists it; ``edge_cells(mesh)``
gives the cells on the two sides of every edge of the fine grid or of a
``Neighborhood``, in that mesh's numbering.  Congruent neighborhoods
share the ``PatchShape`` of their size, so a local problem's layout is
found once per shape.
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

        # coarse cell owning each fine cell, and its inverse: each coarse
        # cell's fine cells, ascending
        iy, ix = np.divmod(np.arange(n * n), n)
        self.coarse_cell_of_fine_cell = (iy // self.m) * N + ix // self.m
        self._fine_cells_of = np.argsort(self.coarse_cell_of_fine_cell,
                                         kind="stable").reshape(N * N, -1)
        self.cell_edges, self.cell_nodes = _cell_maps(n)
        self.coarse_cell_edges, self.coarse_cell_nodes = _cell_maps(N)
        # an edge is interior when two cells list it, a node when four do
        self._interior_coarse_edge = _listed(self.coarse_cell_edges, 2)
        self._interior_coarse_vertex = _listed(self.coarse_cell_nodes, 4)
        self._shapes = {}

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

    def coarse_edge_components(self, i):
        """Return (orientation, IX, IY) of coarse edge i."""
        i, N = _checked(i, self.num_coarse_edges, "coarse edge"), self.N
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
        return not self._interior_coarse_edge[
            _checked(i, self.num_coarse_edges, "coarse edge")]

    def interior_coarse_edges(self):
        return np.flatnonzero(self._interior_coarse_edge)

    def coarse_vertex_is_boundary(self, j):
        return not self._interior_coarse_vertex[
            _checked(j, self.num_coarse_vertices, "coarse vertex")]

    def interior_coarse_vertices(self):
        return np.flatnonzero(self._interior_coarse_vertex)

    def fine_cells_of_coarse_cell(self, c):
        """Fine cells of coarse cell c, ascending."""
        return self._fine_cells_of[
            _checked(c, self.num_coarse_cells, "coarse cell")].copy()

    # ---- neighborhoods -------------------------------------------------

    def vertex_neighborhood(self, j):
        """Union of coarse cells sharing coarse vertex j."""
        j = _checked(j, self.num_coarse_vertices, "coarse vertex")
        return Neighborhood(_cells_listing(self.coarse_cell_nodes, j), self)

    def edge_neighborhood(self, i):
        """Union of the coarse cells adjacent to coarse edge i."""
        i = _checked(i, self.num_coarse_edges, "coarse edge")
        return Neighborhood(_cells_listing(self.coarse_cell_edges, i), self)

    def patch_shape(self, cx, cy):
        """The one PatchShape of cx x cy fine cells on this grid."""
        if (cx, cy) not in self._shapes:
            self._shapes[cx, cy] = PatchShape(cx, cy, self)
        return self._shapes[cx, cy]

    # ---- boundary ------------------------------------------------------

    def boundary_fine_nodes(self):
        return np.flatnonzero(~_listed(self.cell_nodes, 4))

    def boundary_fine_edges(self, sides=("left", "right", "bottom", "top")):
        """Fine edges lying on the requested sides of the unit square:
        the cells' left (right, ...) edges that no other cell lists."""
        cols = [k for k, side in enumerate(("left", "right", "bottom", "top"))
                if side in sides]
        edges = self.cell_edges[:, cols].ravel()
        return np.sort(edges[_listed(self.cell_edges, 1)[edges]])


class PatchShape:
    """A rectangle of cx x cy fine cells, as a mesh in its own numbering.

    Cells and nodes are numbered row-major and vertical edges before
    horizontal ones, as on the grid.  Every patch of this size has these
    cell maps, so congruent patches share one ``PatchShape`` (from
    ``GridHierarchy.patch_shape``), and a matrix assembled on a patch has
    the structure of one assembled on its shape.  The ``*_offsets``
    arrays hold the global index of each local entity of the patch whose
    south-west fine cell is cell 0.
    """

    def __init__(self, cx, cy, grid):
        self.h = grid.h
        self.cell_edges, self.cell_nodes = _cell_maps(cx, cy)
        self.num_fine_cells = cx * cy
        self.num_fine_nodes = (cx + 1) * (cy + 1)
        self.num_fine_edges = cy * (cx + 1) + (cy + 1) * cx
        n = grid.n
        self.cell_offsets = _rect(cx, cy, n)
        self.node_offsets = _rect(cx + 1, cy + 1, n + 1)
        self.edge_offsets = np.concatenate([
            _rect(cx + 1, cy, n + 1),
            grid.num_fine_vedges + _rect(cx, cy + 1, n)])
        # global rows of vertical edges hold n + 1, of horizontal ones n
        self._edge_stride = np.where(
            np.arange(self.num_fine_edges) < cy * (cx + 1), n + 1, n)

    def stack(self, count):
        """count copies of the shape numbered one after another, as one
        mesh: a matrix assembled on it is block diagonal, with copy k's
        matrix, in its own numbering shifted by k blocks, as block k."""
        return _Stack(self, count)


class _Stack:
    def __init__(self, shape, count):
        self.h = shape.h
        k = np.arange(count)[:, None, None]
        self.cell_nodes = (shape.cell_nodes
                           + k * shape.num_fine_nodes).reshape(-1, 4)
        self.cell_edges = (shape.cell_edges
                           + k * shape.num_fine_edges).reshape(-1, 4)
        self.num_fine_cells = count * shape.num_fine_cells
        self.num_fine_nodes = count * shape.num_fine_nodes
        self.num_fine_edges = count * shape.num_fine_edges


class Neighborhood:
    """A rectangle of coarse cells, as a mesh in its own local numbering.

    The local number of a fine cell, node or edge is its position in the
    sorted global arrays ``fine_cells``, ``fine_nodes``, ``fine_edges``.
    ``cell_nodes`` and ``cell_edges`` give each local cell's nodes and
    edges in that numbering, in the grid's per-cell order.  With ``h``
    and the ``num_fine_*`` counts they are all a fine_fem assembler
    reads, so a local matrix is assembled on the neighborhood itself.
    They are those of its ``shape``, shared by every congruent patch;
    ``origin`` is the (x, y) fine cell index of its south-west cell.
    """

    def __init__(self, members, grid):
        self.members = np.asarray(members)
        self.h = grid.h
        m, n = grid.m, grid.n
        IY, IX = np.divmod(self.members, grid.N)
        cx, cy = m * (IX.max() - IX.min() + 1), m * (IY.max() - IY.min() + 1)
        if len(set(self.members.tolist())) * m * m != cx * cy:
            raise ValueError("coarse cells do not fill a rectangle")
        self.shape = shape = grid.patch_shape(cx, cy)
        self.origin = x0, y0 = m * IX.min(), m * IY.min()
        self.fine_cells = shape.cell_offsets + (y0 * n + x0)
        self.fine_nodes = shape.node_offsets + (y0 * (n + 1) + x0)
        self.fine_edges = shape.edge_offsets + y0 * shape._edge_stride + x0
        self.cell_nodes = shape.cell_nodes
        self.cell_edges = shape.cell_edges
        self.num_fine_cells = shape.num_fine_cells
        self.num_fine_nodes = shape.num_fine_nodes
        self.num_fine_edges = shape.num_fine_edges

    def local_cells(self, global_idx):
        return _local(self.fine_cells, global_idx, "fine cell")

    def local_nodes(self, global_idx):
        return _local(self.fine_nodes, global_idx, "fine node")

    def local_edges(self, global_idx):
        return _local(self.fine_edges, global_idx, "fine edge")


class Placements:
    """Local numbers, in a neighborhood, of the cells, nodes and edges of
    a smaller one inside it.  They depend only on the two shapes and the
    offset between the origins, so each distinct placement is looked up
    once; calling returns (cells, nodes, edges)."""

    def __init__(self):
        self._found = {}

    def __call__(self, outer, inner):
        key = (outer.shape, inner.shape, inner.origin[0] - outer.origin[0],
               inner.origin[1] - outer.origin[1])
        if key not in self._found:
            self._found[key] = (outer.local_cells(inner.fine_cells),
                                outer.local_nodes(inner.fine_nodes),
                                outer.local_edges(inner.fine_edges))
        return self._found[key]


def _cell_maps(kx, ky=None):
    """Each cell's edges (left, right, bottom, top) and nodes (SW, SE,
    NW, NE) on the kx x ky grid (ky = kx by default)."""
    ky = kx if ky is None else ky
    iy, ix = np.divmod(np.arange(kx * ky), kx)
    sw = iy * (kx + 1) + ix                 # also the left edge
    bottom = (kx + 1) * ky + iy * kx + ix
    return (np.stack([sw, sw + 1, bottom, bottom + kx], axis=1),
            np.stack([sw, sw + 1, sw + kx + 1, sw + kx + 2], axis=1))


def _rect(kx, ky, stride):
    """Row-major indices of a kx x ky block of entities in rows of
    stride entities, from entity 0."""
    iy, ix = np.divmod(np.arange(kx * ky), kx)
    return iy * stride + ix


def _listed(cell_map, count):
    """Mask of the entities that count cells of the map list."""
    return np.bincount(cell_map.ravel()) == count


def _cells_listing(cell_map, idx):
    """The cells whose map lists entity idx, ascending."""
    return np.flatnonzero((cell_map == idx).any(axis=1))


def _checked(idx, count, what):
    if not 0 <= idx < count:
        raise IndexError(f"{what} index {idx} out of range")
    return idx


def edge_cells(mesh):
    """The cell before and the cell after each edge of mesh, along the
    edge's normal, in the mesh's own numbering; -1 where there is none.

    An edge is the right or top side of the cell before it and the left
    or bottom side of the cell after it.
    """
    out = np.full((mesh.num_fine_edges, 2), -1)
    cells = np.arange(mesh.num_fine_cells)[:, None]
    out[mesh.cell_edges[:, [1, 3]], 0] = cells
    out[mesh.cell_edges[:, [0, 2]], 1] = cells
    return out


def _local(sorted_globals, global_idx, what):
    loc = np.minimum(np.searchsorted(sorted_globals, global_idx),
                     len(sorted_globals) - 1)
    if np.any(sorted_globals[loc] != global_idx):
        raise IndexError(f"{what} index not in neighborhood")
    return loc


def build_hierarchy(N, n):
    """Build the nested coarse/fine grid pair on the unit square."""
    return GridHierarchy(N, n)

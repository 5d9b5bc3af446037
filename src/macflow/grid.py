"""Staggered (MAC) tensor-product meshes on axis-aligned boxes.

Scalars (density, pressure) live at cell centers.  The i-th velocity
component lives at the centers of the faces orthogonal to axis i.  Around
every such face ``sigma`` a face-centered control volume ``D_sigma`` is
assembled from the two half cells touching the face (one half cell for
faces on the boundary).

The interfaces between neighbouring face-centered volumes of one component
fall into two geometric situations:

* case 1: the interface is orthogonal to the component axis and is the
  cross-section of a single primal cell through its center;
* case 2: the interface is parallel to the component axis and consists of
  the two halves of the primal faces separating two adjacent cell columns.

Wall strips, the boundary strips of face-centered volumes, carry no mass
flux; they only contribute Dirichlet terms to the diffusion operator.
Case-2 interfaces and wall strips come from one strip construction.

Each component has one table of them, ``MacMesh.dual_interfaces[i]``:
the case-1 rows, then each case-2 family, with the wall strips alongside
and the row range of every family.  The dual operators make one
vectorized pass over it; per-family readers (:func:`dump_mesh_tables`,
``fields.norm_h1_squared``) walk its row ranges.

All index arrays refer to flat C-order (lexicographic) positions, cells in
the cell grid and faces in the per-direction face grid, which has one more
entry than the cell grid along its own axis.
"""

from __future__ import annotations

import numpy as np

from .ioutil import write_table


class MeshValidationError(ValueError):
    """Raised when mesh construction inputs are malformed."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


class FaceSet:
    """All faces orthogonal to one axis, in flat C-order.

    The face grid along ``axis`` has ``cells[axis] + 1`` entries; the other
    axes run over cell indices.  ``cell_lo``/``cell_hi`` hold the flat ids
    of the cells on the negative/positive side of each face (-1 outside the
    domain).  ``dist`` is the distance between the two neighbouring cell
    centers, shortened to center-to-wall for boundary faces, and ``dvol``
    is the measure of the face-centered control volume, which on a tensor
    grid equals ``measure * dist`` exactly.
    """

    def __init__(self, axis, shape, measure, center, cell_lo, cell_hi, dist,
                 dvol, half_lo, half_hi):
        self.axis = int(axis)
        self.shape = tuple(shape)
        self.count = int(np.prod(self.shape))
        self.measure = _freeze(measure)
        self.center = _freeze(center)
        self.cell_lo = _freeze(cell_lo)
        self.cell_hi = _freeze(cell_hi)
        self.dist = _freeze(dist)
        self.dvol = _freeze(dvol)
        self.half_lo = _freeze(half_lo)
        self.half_hi = _freeze(half_hi)
        self.is_interior = _freeze((cell_lo >= 0) & (cell_hi >= 0))
        self.interior_idx = _freeze(np.flatnonzero(self.is_interior))
        self.exterior_idx = _freeze(np.flatnonzero(~self.is_interior))
        self.n_interior = int(self.interior_idx.size)
        dof = np.full(self.count, -1, dtype=np.int64)
        dof[self.interior_idx] = np.arange(self.n_interior)
        self.interior_dof = _freeze(dof)


class DualInterfaces:
    """Every dual interface of one velocity component, in one table.

    Rows hold the case-1 family (row K is cell K), then one case-2 family
    per other axis in ascending order.  ``families`` lists ``(ortho,
    rows)`` per family, with ``ortho`` the axis the interfaces are
    orthogonal to (the component axis for case 1) and ``rows`` a slice.
    ``face_lo``/``face_hi`` are the component faces on the two sides,
    ``measure`` the interface measure and ``dist`` the distance between the
    two face centers.  ``flux_lo``/``flux_hi`` are the two primal faces
    whose fluxes the interface bisects, as positions in the concatenation
    of the per-direction face arrays: the component's own faces in case 1,
    the primal ortho faces ``tau_lo``/``tau_hi`` of the two cell columns in
    case 2.  The wall strips have rows of their own: ``wall_face`` is the
    interior component face whose control volume touches the wall,
    ``wall_dist`` the distance from its center to the wall, ``wall_weight``
    is ``wall_measure / wall_dist``, and ``wall_families`` lists
    ``(ortho, side, rows)`` per wall.
    """

    def __init__(self, families, walls):
        # families: (ortho, face_lo, face_hi, measure, dist, flux_lo,
        # flux_hi) per family; walls: (ortho, side, face, measure, dist)
        self.families = _row_ranges(families, 1)
        (self.face_lo, self.face_hi, self.measure, self.dist, self.flux_lo,
         self.flux_hi) = _stack_columns(families, 1)
        self.wall_families = _row_ranges(walls, 2)
        self.wall_face, self.wall_measure, self.wall_dist = _stack_columns(
            walls, 2)
        self.wall_weight = _freeze(self.wall_measure / self.wall_dist)
        self.count = int(self.face_lo.size)


def _row_ranges(parts, n_keys):
    """The leading ``n_keys`` entries of each part with the slice of its
    rows in the stacked table."""
    ends = np.cumsum([0] + [p[n_keys].size for p in parts]).tolist()
    return tuple((*p[:n_keys], slice(a, b))
                 for p, a, b in zip(parts, ends[:-1], ends[1:]))


def _stack_columns(parts, n_keys):
    """The arrays after the leading ``n_keys`` entries of each part,
    concatenated column by column and frozen."""
    return tuple(_freeze(np.concatenate(col))
                 for col in zip(*(p[n_keys:] for p in parts)))


class MacMesh:
    """Immutable staggered mesh over a box split by per-axis grid planes.

    Attributes
    ----------
    dim : 2 or 3.
    cells : per-axis cell counts.
    axis_coords : per-axis grid-plane coordinates (length ``cells[i]+1``).
    spacings, centers : per-axis cell widths and cell-center coordinates.
    n_cells, cell_volume : flat C-order cell data.
    faces : one :class:`FaceSet` per velocity component.
    dual_interfaces : one :class:`DualInterfaces` per component, every
        dual interface and wall strip of its face-centered volumes with the
        row range of each family.
    interior_slices, n_unknowns, interior_dvol : the layout of the
        saddle's ``n_unknowns`` velocity unknowns, in which component
        ``i``'s interior faces fill ``interior_slices[i]``, and their dual
        volumes in that order.
    """

    def __init__(self, domain_box, axis_coords):
        domain_box = np.asarray(domain_box, dtype=float)
        if domain_box.ndim != 2 or domain_box.shape[1] != 2:
            raise MeshValidationError("domain_box must be a (d, 2) array")
        dim = domain_box.shape[0]
        if dim not in (2, 3):
            raise MeshValidationError(f"dimension must be 2 or 3, got {dim}")
        if len(axis_coords) != dim:
            raise MeshValidationError(
                f"expected {dim} coordinate arrays, got {len(axis_coords)}")

        coords = []
        for i, arr in enumerate(axis_coords):
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 1 or arr.size < 2:
                raise MeshValidationError(
                    f"axis {i}: need at least 2 grid coordinates")
            if not np.all(np.isfinite(arr)):
                raise MeshValidationError(f"axis {i}: non-finite coordinate")
            if np.any(np.diff(arr) <= 0):
                raise MeshValidationError(
                    f"axis {i}: coordinates must be strictly increasing")
            if arr[0] != domain_box[i, 0] or arr[-1] != domain_box[i, 1]:
                raise MeshValidationError(
                    f"axis {i}: coordinates must span the domain interval")
            coords.append(_freeze(arr))

        self.dim = dim
        self.domain_box = _freeze(domain_box)
        self.axis_coords = tuple(coords)
        self.cells = tuple(c.size - 1 for c in coords)
        self.spacings = tuple(_freeze(np.diff(c)) for c in coords)
        self.centers = tuple(
            _freeze(0.5 * (c[:-1] + c[1:])) for c in coords)
        self.n_cells = int(np.prod(self.cells))
        self.volume = float(np.prod(domain_box[:, 1] - domain_box[:, 0]))

        cell_idx = np.indices(self.cells).reshape(dim, -1)
        vol = np.ones(self.n_cells)
        for j in range(dim):
            vol *= self.spacings[j][cell_idx[j]]
        self.cell_volume = _freeze(vol)

        self.faces = tuple(self._build_faces(i) for i in range(dim))
        self.dual_interfaces = tuple(
            self._build_interfaces(i) for i in range(dim))
        ends = np.cumsum([0] + [fs.n_interior for fs in self.faces]).tolist()
        self.interior_slices = tuple(map(slice, ends[:-1], ends[1:]))
        self.n_unknowns = ends[-1]
        self.interior_dvol = _freeze(
            self.pack_interior([fs.dvol for fs in self.faces]))

    # -- construction helpers -------------------------------------------

    def _face_shape(self, axis):
        shape = list(self.cells)
        shape[axis] += 1
        return tuple(shape)

    def _build_faces(self, axis):
        dim = self.dim
        n = self.cells[axis]
        h = self.spacings[axis]
        fshape = self._face_shape(axis)
        idx = np.indices(fshape).reshape(dim, -1)
        g = idx[axis]

        measure = np.ones(idx.shape[1])
        center = np.empty((idx.shape[1], dim))
        for j in range(dim):
            if j == axis:
                center[:, j] = self.axis_coords[axis][g]
            else:
                measure *= self.spacings[j][idx[j]]
                center[:, j] = self.centers[j][idx[j]]

        lo = idx.copy()
        lo[axis] = np.maximum(g - 1, 0)
        cell_lo = np.ravel_multi_index(lo, self.cells)
        cell_lo = np.where(g > 0, cell_lo, -1)
        hi = idx.copy()
        hi[axis] = np.minimum(g, n - 1)
        cell_hi = np.ravel_multi_index(hi, self.cells)
        cell_hi = np.where(g < n, cell_hi, -1)

        # Center-to-center distance across the face; center-to-wall at the
        # boundary.  dvol = measure * dist is exact on a tensor grid.
        dline = np.empty(n + 1)
        dline[0] = 0.5 * h[0]
        dline[n] = 0.5 * h[-1]
        dline[1:n] = 0.5 * (h[:-1] + h[1:])
        dist = dline[g]
        half_lo = np.where(g > 0, 0.5 * measure * h[np.maximum(g - 1, 0)], 0.0)
        half_hi = np.where(g < n, 0.5 * measure * h[np.minimum(g, n - 1)], 0.0)
        return FaceSet(axis, fshape, measure, center, cell_lo, cell_hi, dist,
                       measure * dist, half_lo, half_hi)

    def _strips(self, axis, ortho, ms, plane):
        """Strips of the component-``axis`` face volumes on the ``ortho``
        grid planes ``ms + plane``: the index rows of the component faces
        off the ``axis`` walls at ortho indices ``ms``, the primal ``ortho``
        faces ``tau_lo``/``tau_hi`` on the plane on either side of the
        component grid line, and the half-sum of their measures."""
        ranges = [np.arange(n) for n in self.cells]
        ranges[axis] = np.arange(1, self.cells[axis])
        ranges[ortho] = np.asarray(ms)
        idx = np.stack([g.ravel()
                        for g in np.meshgrid(*ranges, indexing="ij")])
        tshape = self._face_shape(ortho)
        t = idx.copy()
        t[ortho] += plane
        t[axis] -= 1
        tau_lo = np.ravel_multi_index(t, tshape)
        t[axis] += 1
        tau_hi = np.ravel_multi_index(t, tshape)
        tmeas = self.faces[ortho].measure
        return idx, tau_lo, tau_hi, 0.5 * (tmeas[tau_lo] + tmeas[tau_hi])

    def _build_interfaces(self, axis):
        fshape = self._face_shape(axis)
        # start of each direction's faces in the concatenated face arrays
        offset = np.cumsum([0] + [fs.count for fs in self.faces])
        idx = np.indices(self.cells).reshape(self.dim, -1)
        dist = self.spacings[axis][idx[axis]]
        lo = np.ravel_multi_index(idx, fshape)
        idx[axis] += 1
        hi = np.ravel_multi_index(idx, fshape)
        families = [(axis, lo, hi, self.cell_volume / dist, dist,
                     offset[axis] + lo, offset[axis] + hi)]
        walls = []
        for j in range(self.dim):
            if j == axis:
                continue
            idx, tau_lo, tau_hi, measure = self._strips(
                axis, j, np.arange(self.cells[j] - 1), 1)
            c = self.centers[j]
            dist = c[idx[j] + 1] - c[idx[j]]
            lo = np.ravel_multi_index(idx, fshape)
            idx[j] += 1
            hi = np.ravel_multi_index(idx, fshape)
            families.append((j, lo, hi, measure, dist, offset[j] + tau_lo,
                             offset[j] + tau_hi))
            # side s: the first or last cell layer, on grid plane 0 or n
            for side, m in ((0, 0), (1, self.cells[j] - 1)):
                idx, _, _, measure = self._strips(axis, j, [m], side)
                dist = np.full(measure.size, 0.5 * self.spacings[j][m])
                walls.append((j, side, np.ravel_multi_index(idx, fshape),
                              measure, dist))
        return DualInterfaces(families, walls)

    def pack_interior(self, arrays) -> np.ndarray:
        """The interior-face entries of per-direction face ``arrays``,
        stacked by component: the velocity unknowns' order in the saddle
        system."""
        return np.concatenate([np.asarray(a)[fs.interior_idx]
                               for a, fs in zip(arrays, self.faces)])

    def __repr__(self):
        cells = "x".join(str(n) for n in self.cells)
        return f"MacMesh({self.dim}D, {cells} cells)"


def build_mesh(domain_box, axis_coords) -> MacMesh:
    """Build a staggered mesh from a box and per-axis grid coordinates."""
    return MacMesh(domain_box, axis_coords)


def build_uniform_mesh(domain_box, cells) -> MacMesh:
    """Build a uniform staggered mesh with ``cells[i]`` cells per axis."""
    domain_box = np.asarray(domain_box, dtype=float)
    coords = [np.linspace(domain_box[i, 0], domain_box[i, 1], int(n) + 1)
              for i, n in enumerate(cells)]
    return MacMesh(domain_box, coords)


def graded_coords(n, rng) -> np.ndarray:
    """Random strictly increasing coordinates on [0, 1] with ``n`` cells:
    spacings drawn uniform(0.5, 1.5) from ``rng``, normalised."""
    steps = rng.uniform(0.5, 1.5, n)
    coords = np.concatenate([[0.0], np.cumsum(steps)])
    return coords / coords[-1]


def regularity(mesh: MacMesh) -> float:
    """Largest face-measure ratio across distinct component directions.

    Equals 1 on uniform square/cubic meshes and grows with anisotropy,
    e.g. 2 for a 2D mesh with spacings (1, 2).
    """
    lo = [fs.measure.min() for fs in mesh.faces]
    hi = [fs.measure.max() for fs in mesh.faces]
    return float(max(hi[i] / lo[j] for i in range(mesh.dim)
                     for j in range(mesh.dim) if i != j))


def mesh_step(mesh: MacMesh) -> float:
    """Largest cell diameter (Euclidean, over all cells): on a tensor grid,
    that of the cell with the largest spacing along every axis."""
    diag2 = 0.0
    for h in mesh.spacings:
        diag2 += (h ** 2).max()
    return float(np.sqrt(diag2))


def dump_mesh_tables(mesh: MacMesh, path, cfg_hash=None) -> None:
    """Write the face and dual-face tables to CSV for inspection.

    Columns: id, direction, case, measure, neighbors.  Primal faces list
    their two cells, dual faces the two component faces they separate.
    """
    def rows():
        for i in range(mesh.dim):
            fs = mesh.faces[i]
            for k in range(fs.count):
                kind = "interior" if fs.is_interior[k] else "exterior"
                yield (k, i, f"primal-{kind}", fs.measure[k],
                       f"{fs.cell_lo[k]}|{fs.cell_hi[k]}")
            t = mesh.dual_interfaces[i]
            for ortho, rows in t.families:
                case = ("dual-case1" if ortho == i
                        else f"dual-case2-ortho{ortho}")
                for k, r in enumerate(range(t.count)[rows]):
                    yield (k, i, case, t.measure[r],
                           f"{t.face_lo[r]}|{t.face_hi[r]}")
            for ortho, side, rows in t.wall_families:
                for k, r in enumerate(range(t.wall_face.size)[rows]):
                    yield (k, i, f"dual-wall-ortho{ortho}-side{side}",
                           t.wall_measure[r], f"{t.wall_face[r]}|wall")

    write_table(path, "mesh-tables",
                ["id", "direction", "case", "measure", "neighbors"], rows(),
                cfg_hash)

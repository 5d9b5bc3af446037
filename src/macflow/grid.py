"""Staggered (MAC) tensor-product meshes on axis-aligned boxes.

Scalars (density, pressure) live at cell centers.  The i-th velocity
component lives at the centers of the faces orthogonal to axis i.  Around
every such face ``sigma`` a face-centered control volume ``D_sigma`` is
assembled from the two half cells touching the face (one half cell for
faces on the boundary).

The interfaces between neighbouring face-centered volumes of one component
fall into two geometric situations, tabulated separately:

* case 1: the interface is orthogonal to the component axis and is the
  cross-section of a single primal cell through its center;
* case 2: the interface is parallel to the component axis and consists of
  the two halves of the primal faces separating two adjacent cell columns.

Boundary strips of face-centered volumes (``wall`` tables) carry no mass
flux; they only contribute Dirichlet terms to the diffusion operator.
Case-2 interfaces and wall strips come from one strip construction.

The dual operators read one stacked table per component,
``MacMesh.dual_interfaces[i]``: the case-1 rows, then each case-2 family,
with the wall strips alongside.  The per-family tables stay for
construction, inspection (:func:`dump_mesh_tables`) and the independent
checks of those operators (``fields.norm_h1_squared`` and the loop
oracles of the tests).

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


class DualFaceCase1:
    """Interfaces orthogonal to the component axis, one per primal cell.

    ``face_lo``/``face_hi`` are the component faces on the two sides of the
    cell; the interface measure is the cell cross-section and ``dist`` is
    the cell extent along the component axis.
    """

    def __init__(self, cell, face_lo, face_hi, measure, dist):
        self.cell = _freeze(cell)
        self.face_lo = _freeze(face_lo)
        self.face_hi = _freeze(face_hi)
        self.measure = _freeze(measure)
        self.dist = _freeze(dist)
        self.count = int(self.cell.size)


class DualFaceCase2:
    """Interfaces parallel to the component axis ``i``, orthogonal to ``j``.

    Each interface separates the component faces ``face_lo``/``face_hi``
    (adjacent along axis j) and is the union of the halves of the primal
    j-faces ``tau_lo``/``tau_hi`` of the two cell columns, so its measure is
    the half-sum of their measures.  ``dist`` is the distance between the
    two component face centers.
    """

    def __init__(self, ortho_axis, face_lo, face_hi, tau_lo, tau_hi,
                 measure, dist):
        self.ortho_axis = int(ortho_axis)
        self.face_lo = _freeze(face_lo)
        self.face_hi = _freeze(face_hi)
        self.tau_lo = _freeze(tau_lo)
        self.tau_hi = _freeze(tau_hi)
        self.measure = _freeze(measure)
        self.dist = _freeze(dist)
        self.count = int(self.face_lo.size)


class DualFaceWall:
    """Boundary strips of face-centered volumes along one wall.

    ``face`` is the interior component face whose control volume touches
    the wall orthogonal to ``ortho_axis``; ``dist`` is the distance from
    the face center to the wall.  Used only by the diffusion operator.
    """

    def __init__(self, ortho_axis, side, face, measure, dist):
        self.ortho_axis = int(ortho_axis)
        self.side = int(side)
        self.face = _freeze(face)
        self.measure = _freeze(measure)
        self.dist = _freeze(dist)
        self.count = int(self.face.size)


class DualInterfaces:
    """Every dual interface of one velocity component, stacked.

    Rows hold the case-1 family, then each case-2 family in the order of
    ``dual_case2[i]``; ``face_lo``/``face_hi``, ``measure`` and ``dist``
    are those of the family tables.  ``flux_lo``/``flux_hi`` are the two
    primal faces whose fluxes the interface bisects, as positions in the
    concatenation of the per-direction face arrays: the component's own
    faces in case 1, the ``tau_lo``/``tau_hi`` faces of the orthogonal
    axis in case 2.  ``wall_face`` and ``wall_weight`` (``measure/dist``)
    stack the strips of all ``dual_walls[i]`` families.
    """

    def __init__(self, face_lo, face_hi, measure, dist, flux_lo, flux_hi,
                 wall_face, wall_weight):
        self.face_lo = _freeze(face_lo)
        self.face_hi = _freeze(face_hi)
        self.measure = _freeze(measure)
        self.dist = _freeze(dist)
        self.flux_lo = _freeze(flux_lo)
        self.flux_hi = _freeze(flux_hi)
        self.wall_face = _freeze(wall_face)
        self.wall_weight = _freeze(wall_weight)
        self.count = int(self.face_lo.size)


class MacMesh:
    """Immutable staggered mesh over a box split by per-axis grid planes.

    Attributes
    ----------
    dim : 2 or 3.
    cells : per-axis cell counts.
    axis_coords : per-axis grid-plane coordinates (length ``cells[i]+1``).
    spacings, centers : per-axis cell widths and cell-center coordinates.
    n_cells, cell_volume, cell_center : flat C-order cell data.
    faces : one :class:`FaceSet` per velocity component.
    dual_case1, dual_case2, dual_walls : per-component dual-face tables;
        ``dual_case2[i]`` and ``dual_walls[i]`` are lists over the axes
        orthogonal to ``i``.
    dual_interfaces : one :class:`DualInterfaces` per component, the
        families above stacked for the dual operators.
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
        cen = np.empty((self.n_cells, dim))
        for j in range(dim):
            vol *= self.spacings[j][cell_idx[j]]
            cen[:, j] = self.centers[j][cell_idx[j]]
        self.cell_volume = _freeze(vol)
        self.cell_center = _freeze(cen)

        self.faces = tuple(self._build_faces(i) for i in range(dim))
        case1, case2, walls = [], [], []
        for i in range(dim):
            case1.append(self._build_case1(i))
            case2.append(tuple(self._build_case2(i, j)
                               for j in range(dim) if j != i))
            walls.append(tuple(
                w for j in range(dim) if j != i
                for w in self._build_walls(i, j)))
        self.dual_case1 = tuple(case1)
        self.dual_case2 = tuple(case2)
        self.dual_walls = tuple(walls)
        self.dual_interfaces = tuple(
            self._stack_interfaces(i) for i in range(dim))
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

    def _build_case1(self, axis):
        dim = self.dim
        fshape = self._face_shape(axis)
        idx = np.indices(self.cells).reshape(dim, -1)
        cell = np.arange(self.n_cells)
        lo = idx.copy()
        hi = idx.copy()
        hi[axis] = idx[axis] + 1
        face_lo = np.ravel_multi_index(lo, fshape)
        face_hi = np.ravel_multi_index(hi, fshape)
        measure = self.cell_volume / self.spacings[axis][idx[axis]]
        dist = self.spacings[axis][idx[axis]]
        return DualFaceCase1(cell, face_lo, face_hi, measure, dist)

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

    def _build_case2(self, axis, ortho):
        idx, tau_lo, tau_hi, measure = self._strips(
            axis, ortho, np.arange(self.cells[ortho] - 1), 1)
        fshape = self._face_shape(axis)
        hi = idx.copy()
        hi[ortho] += 1
        c = self.centers[ortho]
        return DualFaceCase2(ortho, np.ravel_multi_index(idx, fshape),
                             np.ravel_multi_index(hi, fshape), tau_lo, tau_hi,
                             measure, c[idx[ortho] + 1] - c[idx[ortho]])

    def _build_walls(self, axis, ortho):
        # side s: the first or last cell layer, on grid plane 0 or n
        out = []
        for side, m in ((0, 0), (1, self.cells[ortho] - 1)):
            idx, _, _, measure = self._strips(axis, ortho, [m], side)
            face = np.ravel_multi_index(idx, self._face_shape(axis))
            dist = np.full(face.size, 0.5 * self.spacings[ortho][m])
            out.append(DualFaceWall(ortho, side, face, measure, dist))
        return out

    def _stack_interfaces(self, axis):
        # start of each direction's faces in the concatenated face arrays
        offset = np.cumsum([0] + [fs.count for fs in self.faces])
        c1, c2s = self.dual_case1[axis], self.dual_case2[axis]
        walls = self.dual_walls[axis]
        families = (c1,) + c2s
        return DualInterfaces(
            np.concatenate([f.face_lo for f in families]),
            np.concatenate([f.face_hi for f in families]),
            np.concatenate([f.measure for f in families]),
            np.concatenate([f.dist for f in families]),
            np.concatenate([offset[axis] + c1.face_lo]
                           + [offset[c.ortho_axis] + c.tau_lo for c in c2s]),
            np.concatenate([offset[axis] + c1.face_hi]
                           + [offset[c.ortho_axis] + c.tau_hi for c in c2s]),
            np.concatenate([w.face for w in walls]),
            np.concatenate([w.measure / w.dist for w in walls]))

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


def regularity(mesh: MacMesh) -> float:
    """Largest face-measure ratio across distinct component directions.

    Equals 1 on uniform square/cubic meshes and grows with anisotropy,
    e.g. 2 for a 2D mesh with spacings (1, 2).
    """
    lo = [mesh.faces[i].measure.min() for i in range(mesh.dim)]
    hi = [mesh.faces[i].measure.max() for i in range(mesh.dim)]
    eta = 0.0
    for i in range(mesh.dim):
        for j in range(mesh.dim):
            if i != j:
                eta = max(eta, hi[i] / lo[j])
    return float(eta)


def mesh_step(mesh: MacMesh) -> float:
    """Largest cell diameter (Euclidean, over all cells)."""
    diag2 = np.zeros(mesh.cells)
    for i in range(mesh.dim):
        shape = [1] * mesh.dim
        shape[i] = mesh.cells[i]
        diag2 = diag2 + (mesh.spacings[i] ** 2).reshape(shape)
    return float(np.sqrt(diag2.max()))


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
            c1 = mesh.dual_case1[i]
            for k in range(c1.count):
                yield (k, i, "dual-case1", c1.measure[k],
                       f"{c1.face_lo[k]}|{c1.face_hi[k]}")
            for c2 in mesh.dual_case2[i]:
                for k in range(c2.count):
                    yield (k, i, f"dual-case2-ortho{c2.ortho_axis}",
                           c2.measure[k], f"{c2.face_lo[k]}|{c2.face_hi[k]}")
            for w in mesh.dual_walls[i]:
                for k in range(w.count):
                    yield (k, i, f"dual-wall-ortho{w.ortho_axis}-side{w.side}",
                           w.measure[k], f"{w.face[k]}|wall")

    write_table(path, "mesh-tables",
                ["id", "direction", "case", "measure", "neighbors"], rows(),
                cfg_hash)

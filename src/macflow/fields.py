"""Discrete fields on staggered meshes, norms, interpolation, and I/O.

A scalar field holds one value per primal cell; a velocity field holds one
value per face for each component, with exterior faces pinned to zero (the
no-slip wall condition lives in the data layout, not in the operators).

Velocity norms are taken over the face-centered control volumes, which for
each component partition the domain; scalar norms use the primal cells.
The discrete H1 seminorm is the square root of the quadratic form of the
velocity diffusion operator: squared jumps across dual interfaces weighted
by measure/distance, plus wall terms against the zero boundary value.

Problem callables are evaluated with overflow let through silently (a
Gaussian's ``exp(-inf)`` is an exact 0); callers needing finite values check.
"""

from __future__ import annotations

import csv

import numpy as np

from .grid import MacMesh
from .ioutil import atomic_write, write_table

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(3)


def _interval_rule(lo, hi):
    """Gauss nodes/weights on [lo, hi] per interval (arrays of intervals)."""
    lo = np.asarray(lo)[..., None]
    hi = np.asarray(hi)[..., None]
    nodes = 0.5 * (hi - lo) * _GAUSS_NODES + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * _GAUSS_WEIGHTS
    return nodes, weights


class ScalarField:
    """Cell-centered field: one value per cell in flat C-order.

    A field tagged ``zero_mean`` asserts membership in the zero-mean
    subspace: its volume-weighted sum must vanish within 1e-12 of its L2
    norm (pressures live there).
    """

    def __init__(self, mesh: MacMesh, values=None, zero_mean=False):
        self.mesh = mesh
        if values is None:
            values = np.zeros(mesh.n_cells)
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_cells,):
            raise ValueError(
                f"expected {mesh.n_cells} cell values, got {values.shape}")
        self.values = values
        self.zero_mean = bool(zero_mean)
        if self.zero_mean:
            total = abs(float(mesh.cell_volume @ values))
            scale = float(np.sqrt(mesh.cell_volume @ values ** 2))
            # a NaN or infinite sum fails
            if (scale != 0 and not total <= 1e-12 * max(scale, 1e-300)
                    or total == np.inf):
                raise ValueError(
                    f"zero-mean field has volume-weighted sum {total:.3e}")

    @classmethod
    def constant(cls, mesh, value):
        return cls(mesh, np.full(mesh.n_cells, float(value)))

    def integral(self) -> float:
        return float(self.mesh.cell_volume @ self.values)

    def mean(self) -> float:
        return self.integral() / self.mesh.volume

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


class VelocityField:
    """Face-centered vector field; exterior faces are held at zero."""

    def __init__(self, mesh: MacMesh, components=None):
        self.mesh = mesh
        if components is None:
            components = [np.zeros(mesh.faces[i].count)
                          for i in range(mesh.dim)]
        comps = []
        for i in range(mesh.dim):
            arr = np.asarray(components[i], dtype=float)
            if arr.shape != (mesh.faces[i].count,):
                raise ValueError(
                    f"component {i}: expected {mesh.faces[i].count} values")
            arr = arr.copy()
            arr[mesh.faces[i].exterior_idx] = 0.0
            comps.append(arr)
        self.components = comps

    # -- flat interior-unknown packing, used by the linear solvers -------

    def pack_interior(self) -> np.ndarray:
        return self.mesh.pack_interior(self.components)

    @classmethod
    def from_interior(cls, mesh, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.size != mesh.n_unknowns:
            raise ValueError("interior vector has wrong length")
        field = cls(mesh)
        for arr, fs, part in zip(field.components, mesh.faces,
                                 mesh.interior_slices):
            arr[fs.interior_idx] = vec[part]
        return field


def _gauss_sums(mesh: MacMesh, shape, fn, flat=None) -> np.ndarray:
    """Tensorized 3-point Gauss sums of ``fn`` over the boxes of the index
    grid ``shape``: cells along every axis but ``flat``, along which a box
    is the grid plane of its index (a face).  Divide by the box measures
    for the means."""
    dim = mesh.dim
    idx = np.indices(shape).reshape(dim, -1)
    axes = [j for j in range(dim) if j != flat]
    rules = {j: _interval_rule(mesh.axis_coords[j][:-1],
                               mesh.axis_coords[j][1:]) for j in axes}
    coords = [None] * dim
    if flat is not None:
        coords[flat] = mesh.axis_coords[flat][idx[flat]]
    total = np.zeros(idx.shape[1])
    for combo in np.ndindex(*([3] * len(axes))):
        w = np.ones(idx.shape[1])
        for k, j in enumerate(axes):
            coords[j] = rules[j][0][idx[j], combo[k]]
            w *= rules[j][1][idx[j], combo[k]]
        total += w * np.asarray(fn(*coords), dtype=float)
    return total


def cell_average(mesh: MacMesh, fn) -> ScalarField:
    """Cell means of ``fn(x, y[, z])`` by tensorized 3-point Gauss rules."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = _gauss_sums(mesh, mesh.cells, fn) / mesh.cell_volume
    return ScalarField(mesh, total)


def fortin_interpolate(mesh: MacMesh, component_fns) -> VelocityField:
    """Velocity whose face values are the exact face means of the input.

    Face means are computed with tensorized 3-point Gauss rules over the
    face (a segment in 2D, a rectangle in 3D).  Exterior faces are zeroed,
    so the input should satisfy the no-slip condition for the divergence
    of the result to vanish.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return VelocityField(mesh, [
            _gauss_sums(mesh, fs.shape, component_fns[i], flat=i)
            / fs.measure for i, fs in enumerate(mesh.faces)])


def sample_at_faces(mesh: MacMesh, component_fns) -> VelocityField:
    """Velocity from point values of the input at the face centers."""
    with np.errstate(over="ignore", invalid="ignore"):
        return VelocityField(mesh, [
            np.asarray(fn(*fs.center.T), dtype=float)
            for fn, fs in zip(component_fns, mesh.faces)])


# -- norms ----------------------------------------------------------------

def norm_l2_cells(field: ScalarField) -> float:
    """L2 norm of a cell field, weighted by cell volumes."""
    return float(np.sqrt(field.mesh.cell_volume @ field.values ** 2))


def norm_lp_dual(u: VelocityField, p) -> float:
    """Lp norm of a velocity over the face-centered control volumes.

    Supported exponents: 2, 4, 6 (the ones the discrete estimates use)
    and ``numpy.inf`` for the max norm.  Exterior faces carry zero values
    and contribute nothing.
    """
    mesh = u.mesh
    if p == np.inf:
        return float(np.max([np.abs(c).max() for c in u.components]))
    if p not in (2, 4, 6):
        raise ValueError(f"unsupported exponent {p!r}; use 2, 4, 6 or inf")
    total = 0.0
    for fs, c in zip(mesh.faces, u.components):
        total += float(fs.dvol @ np.abs(c) ** p)
    return float(total ** (1.0 / p))


def norm_h1_squared(u: VelocityField) -> float:
    """Quadratic form of the velocity diffusion operator.

    Sum over the dual interfaces of ``(measure/dist) * jump^2`` plus wall
    terms ``(measure/dist) * value^2``; coincides with minus the diffusion
    operator tested against the field itself.
    """
    mesh = u.mesh
    total = 0.0
    for i in range(mesh.dim):
        v = u.components[i]
        t = mesh.dual_interfaces[i]
        # family by family, so each dot sums in the same order
        for _, rows in t.families:
            jump = v[t.face_lo[rows]] - v[t.face_hi[rows]]
            total += float((t.measure[rows] / t.dist[rows]) @ jump ** 2)
        for _, _, rows in t.wall_families:
            weight = t.wall_measure[rows] / t.wall_dist[rows]
            total += float(weight @ v[t.wall_face[rows]] ** 2)
    return total


def norm_h1(u: VelocityField) -> float:
    """Discrete H1 norm (includes the wall penalty, so it is a norm)."""
    return float(np.sqrt(norm_h1_squared(u)))


class Trajectory:
    """Time-indexed record of (rho, u, p) states from a run.

    ``times[k]`` is the physical time of snapshot k; snapshot 0 is the
    initial state (pressure None there, it is not part of the data).
    """

    def __init__(self):
        self.times: list[float] = []
        self.rho: list[ScalarField] = []
        self.u: list[VelocityField] = []
        self.p: list[ScalarField | None] = []

    def append(self, t, rho, u, p=None):
        self.times.append(float(t))
        self.rho.append(rho)
        self.u.append(u)
        self.p.append(p)

    def __len__(self):
        return len(self.times)


# -- CSV serialization ----------------------------------------------------

def scalar_to_csv(field: ScalarField, path, cfg_hash=None, extra=None):
    """Write (id, value) rows for a cell field."""
    write_table(path, "scalar-field", ["id", "value"],
                enumerate(field.values.tolist()), cfg_hash, extra=extra)


def _table_rows(path, columns) -> list:
    """The data rows of a CSV table whose header starts with ``columns``,
    each a tuple of its first ``len(columns)`` cells: integers, then one
    float.  Every row has one cell per header column."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(line for line in fh
                                        if not line.startswith("#"))) or [[]]
    if header[:len(columns)] != columns:
        raise ValueError(f"{path}: unexpected CSV header {header}")
    n = len(columns) - 1  # integer cells before the value
    parsed = []
    for row in rows:
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} cells, not {len(header)}")
            parsed.append((*map(int, row[:n]), float(row[n])))
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row {row}: {exc}") from None
    return parsed


def _by_id(path, what, rows, n) -> np.ndarray:
    """The values of (id, value) ``rows`` placed at their ids, which must
    be 0..n-1, once each."""
    ids = [row[0] for row in rows]
    if sorted(ids) != list(range(n)):
        raise ValueError(f"{path}: {what} needs ids 0..{n - 1}, each once "
                         f"({len(ids)} rows)")
    out = np.empty(n)
    out[ids] = [row[1] for row in rows]
    return out


def scalar_from_csv(mesh: MacMesh, path) -> ScalarField:
    rows = _table_rows(path, ["id", "value"])
    return ScalarField(mesh, _by_id(path, "the field", rows, mesh.n_cells))


def velocity_to_csv(u: VelocityField, path, cfg_hash=None, extra=None):
    """Write (direction, id, value) rows for all faces of all components."""
    write_table(path, "velocity-field", ["direction", "id", "value"],
                ((i, k, v) for i, comp in enumerate(u.components)
                 for k, v in enumerate(comp.tolist())),
                cfg_hash, extra=extra)


def velocity_from_csv(mesh: MacMesh, path) -> VelocityField:
    parts = [[] for _ in range(mesh.dim)]
    for i, *row in _table_rows(path, ["direction", "id", "value"]):
        if not 0 <= i < mesh.dim:
            raise ValueError(f"{path}: direction {i} outside "
                             f"0..{mesh.dim - 1}")
        parts[i].append(row)
    return VelocityField(mesh, [
        _by_id(path, f"component {i}", part, fs.count)
        for i, (part, fs) in enumerate(zip(parts, mesh.faces))])


# -- VTK output -----------------------------------------------------------

def cell_centered_velocity(u: VelocityField) -> np.ndarray:
    """Average the two face values per direction onto cell centers."""
    mesh = u.mesh
    out = np.zeros((mesh.n_cells, 3))
    for i in range(mesh.dim):
        # the case-1 rows: row K holds the two faces of cell K
        t = mesh.dual_interfaces[i]
        comp = u.components[i]
        out[:, i] = 0.5 * (comp[t.face_lo[:mesh.n_cells]]
                           + comp[t.face_hi[:mesh.n_cells]])
    return out


def write_vtk(path, mesh: MacMesh, rho: ScalarField | None = None,
              p: ScalarField | None = None,
              u: VelocityField | None = None, title="macflow snapshot"):
    """Write a legacy-format rectilinear-grid VTK file with cell data."""
    npts = [n + 1 for n in mesh.cells] + [1] * (3 - mesh.dim)
    # VTK wants the first axis fastest; flat ids are C-order (last axis
    # fastest), so reorder through a Fortran-order ravel.
    def reorder(values):
        return values.reshape(mesh.cells).ravel(order="F").tolist()

    with atomic_write(path) as fh:
        # csv writes each float as its shortest round-trip repr
        writer = csv.writer(fh, delimiter=" ", lineterminator="\n")
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
                 f"DATASET RECTILINEAR_GRID\nDIMENSIONS {npts[0]} {npts[1]} "
                 f"{npts[2]}\n")
        for j, name in enumerate(("X", "Y", "Z")):
            coords = mesh.axis_coords[j] if j < mesh.dim else np.array([0.0])
            fh.write(f"{name}_COORDINATES {coords.size} double\n")
            writer.writerow(coords.tolist())
        fh.write(f"CELL_DATA {mesh.n_cells}\n")
        for name, field in (("density", rho), ("pressure", p)):
            if field is not None:
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                writer.writerows(zip(reorder(field.values)))
        if u is not None:
            vec = cell_centered_velocity(u)
            fh.write("VECTORS velocity double\n")
            writer.writerows(zip(*(reorder(vec[:, j]) for j in range(3))))

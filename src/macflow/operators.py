"""Discrete operators on staggered meshes.

Conventions
-----------
* Primal mass fluxes are stored once per face, signed along the positive
  coordinate axis; the flux leaving a cell through a face is the stored
  value on the cell's high side and its negative on the low side, so the
  two-sided antisymmetry of fluxes is built into the storage.
* Dual-interface fluxes follow the same rule: the stored value is the
  flow in the positive axis direction, counted positively in the balance
  of the low-side control volume and negatively in the high-side one.
* Dual-interface values are one array per component, aligned with the
  table ``mesh.dual_interfaces[i]``; every dual operator is one
  vectorized pass over it.
* The upwind density on a face is the low-side cell value when the normal
  velocity is nonnegative (ties go with the flow direction convention)
  and the high-side cell value otherwise.
* Velocity-valued results are full-length per-direction face arrays with
  exterior entries zero; operators never produce values on the boundary.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .grid import MacMesh
from .fields import ScalarField, VelocityField


# -- primal transport -------------------------------------------------------

def upwind_face_flux(mesh: MacMesh, rho: ScalarField, u: VelocityField):
    """Signed upwind mass fluxes ``measure * rho_up * u`` per face.

    Returns one full-length array per direction; exterior faces carry zero
    flux (impervious walls).
    """
    fluxes = []
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        vel = u.components[i]
        rho_lo = rho.values[np.maximum(fs.cell_lo, 0)]
        rho_hi = rho.values[np.maximum(fs.cell_hi, 0)]
        rho_up = np.where(vel >= 0.0, rho_lo, rho_hi)
        flux = fs.measure * rho_up * vel
        flux[fs.exterior_idx] = 0.0
        fluxes.append(flux)
    return fluxes


def div_from_fluxes(mesh: MacMesh, fluxes) -> np.ndarray:
    """Cell divergence of signed face fluxes: outflow sum over |K|."""
    out = np.zeros(mesh.n_cells)
    for i in range(mesh.dim):
        # the case-1 rows: row K holds the two faces of cell K
        t = mesh.dual_interfaces[i]
        out += (fluxes[i][t.face_hi[:mesh.n_cells]]
                - fluxes[i][t.face_lo[:mesh.n_cells]])
    return out / mesh.cell_volume


def volume_fluxes(mesh: MacMesh, u: VelocityField):
    """Signed volume fluxes ``measure * u`` per face (unit density)."""
    return [mesh.faces[i].measure * u.components[i]
            for i in range(mesh.dim)]


def div_velocity(mesh: MacMesh, u: VelocityField) -> np.ndarray:
    """Discrete divergence of a velocity, one value per cell."""
    return div_from_fluxes(mesh, volume_fluxes(mesh, u))


# -- pressure gradient ------------------------------------------------------

def grad_pressure(mesh: MacMesh, p: ScalarField):
    """Face-normal pressure differences over center distances.

    The value on an interior face is ``(p_hi - p_lo) / dist``; on a tensor
    grid ``measure / dvol = 1 / dist``, which makes this operator minus
    the transpose of the divergence under the natural volume pairings.
    Exterior faces (no velocity unknown) get zero.
    """
    out = []
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        g = np.zeros(fs.count)
        idx = fs.interior_idx
        g[idx] = (p.values[fs.cell_hi[idx]] - p.values[fs.cell_lo[idx]]) \
            / fs.dist[idx]
        out.append(g)
    return out


# -- dual-interface passes ------------------------------------------------------

def _scatter(count, table, vals):
    """Add each interface value to its low-side face and subtract it from
    its high-side face, on a zero array of length ``count``."""
    acc = np.zeros(count)
    np.add.at(acc, table.face_lo, vals)
    np.add.at(acc, table.face_hi, -vals)
    return acc


def _per_volume(fs, acc):
    """Interior entries of ``acc`` over their control volumes; the
    exterior ones zero."""
    res = np.zeros(fs.count)
    idx = fs.interior_idx
    res[idx] = acc[idx] / fs.dvol[idx]
    return res


# -- diffusion ---------------------------------------------------------------

def laplacian_apply(mesh: MacMesh, u: VelocityField):
    """Pointwise discrete Laplacian of a velocity (no-slip walls).

    Per interior face: minus the sum of ``(measure/dist) * jump`` over the
    dual interfaces of its control volume (wall strips test against zero),
    divided by the control volume.  Exterior entries are zero.
    """
    out = []
    for i in range(mesh.dim):
        v = u.components[i]
        t = mesh.dual_interfaces[i]
        acc = _scatter(v.size, t,
                       (t.measure / t.dist) * (v[t.face_lo] - v[t.face_hi]))
        np.add.at(acc, t.wall_face, t.wall_weight * v[t.wall_face])
        out.append(_per_volume(mesh.faces[i], -acc))
    return out


def diffusion_matrix(mesh: MacMesh, i) -> sp.csr_matrix:
    """Symmetric positive-definite diffusion block for component ``i``.

    Acts on interior-face unknowns; ``v @ (L @ v)`` equals the squared
    discrete H1 norm of the component.  The momentum system uses this
    volume-scaled form directly (rows are multiplied by control volumes).
    """
    fs = mesh.faces[i]
    dof = fs.interior_dof
    t = mesh.dual_interfaces[i]
    w = t.measure / t.dist
    dlo, dhi = dof[t.face_lo], dof[t.face_hi]
    both = (dlo >= 0) & (dhi >= 0)
    rows, cols, vals = [], [], []
    for r in (dlo, dhi):
        keep = r >= 0
        rows.append(r[keep])
        cols.append(r[keep])
        vals.append(w[keep])
    for r, c in ((dlo, dhi), (dhi, dlo)):
        rows.append(r[both])
        cols.append(c[both])
        vals.append(-w[both])
    d = dof[t.wall_face]
    rows.append(d)
    cols.append(d)
    vals.append(t.wall_weight)
    mat = sp.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(fs.n_interior, fs.n_interior))
    return mat.tocsr()


# -- dual transport -----------------------------------------------------------

def dual_density(mesh: MacMesh, rho: ScalarField):
    """Face control-volume densities: half-cell volume-weighted means.

    Boundary faces inherit the single adjacent cell value.  Returns one
    full-length array per direction.
    """
    out = []
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        r_lo = rho.values[np.maximum(fs.cell_lo, 0)]
        r_hi = rho.values[np.maximum(fs.cell_hi, 0)]
        out.append((fs.half_lo * r_lo + fs.half_hi * r_hi) / fs.dvol)
    return out


def dual_fluxes(mesh: MacMesh, fluxes, i) -> np.ndarray:
    """Mass fluxes through the dual interfaces of component ``i``.

    Each dual-interface flux is the half-sum of the two primal fluxes it
    bisects: the two component-``i`` fluxes of the host cell in case 1,
    the two orthogonal fluxes whose faces it halves in case 2.  Signed
    along the positive axis it crosses.
    """
    t = mesh.dual_interfaces[i]
    flat = np.concatenate(fluxes)
    return 0.5 * (flat[t.flux_lo] + flat[t.flux_hi])


def div_dual_from_fluxes(mesh: MacMesh, fluxes):
    """Divergence over face control volumes of given primal fluxes.

    Returns one full-length array per direction (zero on exterior faces).
    The construction makes each component's total outflow the half-sum of
    the outflows of the two adjacent cells, so a cell-wise mass balance
    transfers to the face control volumes with no extra error.
    """
    out = []
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        acc = _scatter(fs.count, mesh.dual_interfaces[i],
                       dual_fluxes(mesh, fluxes, i))
        out.append(_per_volume(fs, acc))
    return out


# -- convection ----------------------------------------------------------------

def convection_apply(mesh: MacMesh, fluxes, v: VelocityField):
    """Convection of ``v`` by the given primal mass fluxes.

    Per face control volume: sum of dual-interface fluxes times the
    centered average of the two adjacent values, over the volume.  Testing
    against ``v`` itself telescopes to half the dual mass divergence
    weighted by ``v**2``, which is the discrete root of the kinetic energy
    balance.
    """
    out = []
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        comp = v.components[i]
        t = mesh.dual_interfaces[i]
        avg = 0.5 * (comp[t.face_lo] + comp[t.face_hi])
        acc = _scatter(fs.count, t, dual_fluxes(mesh, fluxes, i) * avg)
        out.append(_per_volume(fs, acc))
    return out


def convection_matrix(mesh: MacMesh, fluxes, i) -> sp.csr_matrix:
    """Convection block for component ``i`` on interior-face unknowns.

    Row of the volume-scaled momentum system: for each dual interface,
    half its flux times the sum of the two adjacent values, positive on
    the low side, negative on the high side.  Columns on exterior faces
    are dropped (zero boundary values).
    """
    fs = mesh.faces[i]
    dof = fs.interior_dof
    t = mesh.dual_interfaces[i]
    half = 0.5 * dual_fluxes(mesh, fluxes, i)
    dlo, dhi = dof[t.face_lo], dof[t.face_hi]

    rows, cols, vals = [], [], []
    for r, sign in ((dlo, 1.0), (dhi, -1.0)):
        for c in (dlo, dhi):
            keep = (r >= 0) & (c >= 0)
            rows.append(r[keep])
            cols.append(c[keep])
            vals.append(sign * half[keep])
    mat = sp.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(fs.n_interior, fs.n_interior))
    return mat.tocsr()


# -- dual reconstruction and gradient -----------------------------------------

def flux_reconstruction(mesh: MacMesh, fluxes, i) -> np.ndarray:
    """Mass-flux density (flux over interface measure) per dual interface.

    This is the normal component of the reconstructed momentum field on
    each dual interface, signed along the positive axis it crosses.  It
    equals the half-sum of the adjacent upwind face momenta in case 1 and
    their measure-weighted mean in case 2.
    """
    return dual_fluxes(mesh, fluxes, i) / mesh.dual_interfaces[i].measure


def dual_gradient(mesh: MacMesh, i, w: VelocityField) -> np.ndarray:
    """Per-interface difference quotient of component ``i`` of ``w``.

    Oriented from the low to the high side as ``(w_lo - w_hi) / dist``:
    the same outflow pairing as the dual fluxes, so that the discrete
    duality identity (mass divergence tested against ``w`` equals the
    diamond-volume pairing of reconstruction and gradient) holds exactly.
    Exterior faces contribute their stored zero value.
    """
    v = w.components[i]
    t = mesh.dual_interfaces[i]
    return (v[t.face_lo] - v[t.face_hi]) / t.dist


def dual_pairing(mesh: MacMesh, i, a: np.ndarray, b: np.ndarray) -> float:
    """Diamond-volume-weighted inner product of two dual-interface fields;
    the diamond volume of an interface is ``measure * dist``."""
    t = mesh.dual_interfaces[i]
    return float((t.measure * t.dist) @ (a * b))


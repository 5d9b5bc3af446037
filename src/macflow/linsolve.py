"""Linear systems of the time step: upwind transport and momentum saddle.

Both systems are volume-scaled (each cell/face equation is multiplied by
its control volume), which makes the pressure-gradient block exactly minus
the transpose of the divergence block and keeps the transport matrix an
M-matrix whenever the advecting velocity is discretely divergence-free.

The saddle system is singular up to a constant pressure; it is regularized
by replacing one continuity row with a pressure pin (the divergence
constraint on the pinned cell is implied by the others, since the column
sums of the divergence block vanish), and the solved pressure is shifted
to zero volume-weighted mean afterwards.

A time step solves the pinned saddle system by GMRES with a
Cahouet-Chabard block preconditioner: one factorization per velocity
component for the momentum block, and a variable-density pressure
Poisson solve plus a pressure mass solve for the Schur complement, which
acts on pressures up to a constant and inverts the pin row exactly.  Its
factors are exact LU (:func:`factor`) in 2D and incomplete LU
(:func:`incomplete_factor`) in 3D, where exact fill grows fastest.  The
GMRES loop is :func:`gmres`, plain restarted GMRES whose cycles aim at
what the true residual still needs and whose stop is the true residual
itself.  The transport matrix is banded; :func:`assemble_transport`
fills its bands in place, in offset order.  Jacobi sweeps from the old
density solve it, every iterate inside its bounds.  One routine,
:func:`_accept`, decides the outcome of both solves: it keeps the iterate
when the true residual its iteration stopped on passes, and otherwise
solves by LU, measures that (:func:`checked_residual`) and reports the
fallback.  The saddle fallback is the one LU with partial pivoting;
every other exact LU (2D preconditioner, projection, transport fallback,
inf-sup monitor) is :func:`factor`, which does not pivot.  The pinned
Poisson matrix of the Schur term, :func:`pinned_poisson`, with unit
density also serves the divergence-free projection of
:mod:`macflow.verify`, which factors it once per mesh.

A run makes one :class:`SaddleSolver` for its mesh.  It assembles every
:class:`SaddleSystem` of the run, and each system carries it to
:func:`solve_oseen`.  The solver builds the CSR pattern of the pinned
matrix once (:class:`SaddlePattern`: the mesh-constant gradient,
divergence and diffusion values, and the positions the face masses and
the convection land on), so a step only fills values; the system keeps
the dual fluxes and the packed forcing and old velocity for the step's
diagnostics.  Each GMRES solve starts from the weighted least-squares fit
of its system over the span of the last ``HISTORY`` accepted solutions,
which the solver keeps as they are (:meth:`SaddleSolver.start`).  It
builds, keeps and applies the block preconditioner, whose factors live
from step to step: the density stays inside its initial bounds (discrete
maximum principle), so the variable-density Poisson matrix moves within
a bounded spectral band, and the momentum blocks move by O(dt).  The
factors are rebuilt by a fixed rule (see :class:`SaddleSolver`), and
each solve reports whether it factored.  Stale factors can cost
iterations, never accuracy, since the true residual decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import MacMesh
from .fields import ScalarField, VelocityField
from . import operators as ops


# Both iterative solves aim at this fraction of their tolerance.  For
# GMRES at 0.1 the divergence of the new velocity rose tenfold above the
# LU level; at 1e-3 it stays there for about two more iterations.  The
# dual mass balance inherits the transport residual: on a 32^2 gyre run
# it read 1.6e-12 with the Jacobi sweeps stopped at the transport
# tolerance itself, 2.0e-15 at 1e-3 of it (3.2e-16 with LU).
KRYLOV_TARGET = 1e-3

# Restart length and cycle cap of the GMRES saddle solve: at most 300
# iterations, fewer when a cycle ends early on its goal; a solve that
# reaches the cap, or solves a cycle to rounding, without reaching its
# target falls back to LU.
GMRES_RESTART = 50
GMRES_CYCLES = 6

# Sweep cap of the Jacobi transport solve; a solve that reaches it falls
# back to LU.  A sweep contracts the error by about CFL/(1+CFL): the
# 32^2 rotating patch at dt = 1 takes about 200 sweeps per step.
JACOBI_MAXITER = 500

# The cell whose continuity row the pressure pin replaces.
PINNED_CELL = 0

# The preconditioner is factored again once a GMRES solve needs more than
# this multiple of the iterations of the first solve after the last
# factorization.
REFRESH_GROWTH = 1.5

# Drop tolerance of the incomplete factors of the 3D preconditioner
# (:func:`incomplete_factor`).  A 4-step graded 24^3 swirl ran in 2.47 s
# and 155 MiB with them, 4.55 s and 264 MiB with exact factors, for about
# 40% more Krylov iterations.  A 128^2 gyre gained nothing from them
# (0.89 s at 1e-3, 0.77 s at 1e-4, 0.62-0.78 s exact), so 2D keeps exact
# factors.
ILU_DROP_TOL = 1e-3

# Accepted saddle solutions whose span the next GMRES start is drawn from.
# On the 32^2 rotating patch (100 steps of dt = 0.01) 4 of them took 643
# Krylov iterations, 8 took 454 and 12 took 420, against 1215 from the
# last solution alone.
HISTORY = 8


class SolverFailure(RuntimeError):
    """A linear solve did not reach its required residual tolerance."""


def checked_residual(mat, x, rhs, tol: float, what: str) -> float:
    """Relative true residual of ``mat x = rhs`` (absolute when ``rhs``
    vanishes); raises :class:`SolverFailure`, naming ``what``, when it
    exceeds ``tol``."""
    resid = np.linalg.norm(mat @ x - rhs)
    scale = np.linalg.norm(rhs)
    rel = float(resid / scale if scale > 0 else resid)
    if not rel <= tol:
        raise SolverFailure(f"{what} residual {rel:.3e} exceeds {tol:.1e}")
    return rel


def factor(mat):
    """Sparse LU of ``mat`` without pivoting, on a minimum-degree ordering
    of ``mat + mat^T`` (about half the fill of the default ordering).

    It serves every exact inverse but the pivoted saddle fallback: the
    2D preconditioner, the divergence-free projection, the transport
    fallback and the inf-sup monitor's ``A^-1``.  None of the three kinds
    of matrix factored here needs pivoting (Golub & Van Loan, *Matrix
    Computations*, 4th ed., 3.4): the upwind transport matrix, factored
    only when its Jacobi sweeps reach their cap, has diagonally dominant
    columns for any velocity, the momentum and diffusion blocks have a
    positive definite symmetric part, and the pinned pressure Poisson
    matrices are positive definite once the pin removes the constant
    nullspace.  Each caller checks its true residual.  Panels of one
    column factor the 128x128 gyre's preconditioner blocks in about
    two thirds of the time of SuperLU's default panels, with the same
    fill.
    """
    return spla.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, panel_size=1,
                     options={"SymmetricMode": True})


def incomplete_factor(mat):
    """Incomplete LU of ``mat``: SuperLU's threshold ILU (Li & Shao,
    *ACM TOMS* 37, 2011) dropping entries below ``ILU_DROP_TOL`` relative
    to their column, with at most 20 times the fill of ``mat``, on
    :func:`factor`'s ordering and without pivoting (Saad, *Iterative
    Methods for Sparse Linear Systems*, 2nd ed., ch. 10).

    It returns the object :func:`factor` returns, whose ``solve`` applies
    an approximate inverse.  Only the preconditioner of a 3D run uses it:
    GMRES stops on the true residual, so a weaker inverse costs
    iterations, never accuracy.
    """
    return spla.spilu(mat.tocsc(), drop_tol=ILU_DROP_TOL, fill_factor=20,
                      permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})


def component_solver(mesh: MacMesh, matrix, factorize):
    """Solve with the velocity block of ``matrix`` taken block-diagonal by
    component, one ``factorize`` (:func:`factor` or
    :func:`incomplete_factor`) per component; the returned function maps
    interior velocity vectors (or 2D arrays of them) to solutions, written
    into ``out`` when it is given.
    """
    factors = [(part, factorize(matrix[part, part]))
               for part in mesh.interior_slices if part.stop > part.start]

    def solve(r, out=None):
        z = np.zeros(r.shape) if out is None else out
        for part, lu in factors:
            z[part] = lu.solve(r[part])
        return z

    return solve


@dataclass
class SolveReport:
    """Outcome of one linear solve.

    ``iterations`` counts GMRES iterations or Jacobi sweeps, including
    those of an iteration that fell back to LU.  ``precond_refresh`` is
    true when the solve factored the Krylov preconditioner instead of
    reusing the factors of an earlier one.
    """

    residual: float
    iterations: int = 0
    fallback: bool = False
    precond_refresh: bool = False


def _accept(mat, rhs, x, residual, tol: float, what: str, direct, **counts):
    """The solution of ``mat x = rhs`` and its :class:`SolveReport`.

    The iterate ``x`` is kept when ``residual``, the relative true
    residual it stopped on (``None``: it did not converge), is at most
    ``tol``.  Otherwise LU, ``direct(mat)`` of the CSC matrix, solves,
    reported with ``fallback`` set.  Its residual must pass too, and the
    LU must exist, or :class:`SolverFailure`, naming ``what``, is raised.
    ``counts`` (iterations, refresh) go into the report as they are.
    """
    if residual is not None and residual <= tol:
        return x, SolveReport(residual, **counts)
    try:
        x = direct(mat.tocsc()).solve(rhs)
    except RuntimeError as exc:  # SuperLU met an exactly zero pivot
        raise SolverFailure(f"{what}: LU failed: {exc}") from None
    rel = checked_residual(mat, x, rhs, tol, what)
    return x, SolveReport(rel, fallback=True, **counts)


# -- transport ---------------------------------------------------------------

def assemble_transport(mesh: MacMesh, dt: float, rho_old: ScalarField,
                       u: VelocityField):
    """Implicit upwind transport system ``A rho_new = b``.

    Row K: ``|K|/dt * rho_K + sum of outgoing upwind fluxes``, linear in
    the new density; ``b = |K| rho_old / dt``.  The off-diagonal entries
    are nonpositive and, for divergence-free ``u``, both row and column
    sums of the flux part vanish, which yields the discrete maximum
    principle and the L2 contraction of the solve.  ``A`` is a
    :class:`scipy.sparse.dia_matrix` filled in place, with bands at minus
    and plus each axis stride, in ascending offset order: a product sums
    each row in column order, as a CSR row does.
    """
    faces = [fs for fs in mesh.faces if fs.n_interior]  # one cell: no band
    k = len(faces)
    bands = np.zeros((2 * k + 1, *mesh.cells))
    bands[k] = (mesh.cell_volume / dt).reshape(mesh.cells)
    for j, fs in enumerate(faces):  # strides fall with the axis
        rest = (slice(None),) * fs.axis  # the axes before the face axis
        lo, hi = rest + (slice(-1),), rest + (slice(1, None),)
        rate = (fs.measure * u.components[fs.axis]).reshape(fs.shape)[hi][lo]
        outflow, inflow = np.maximum(rate, 0.0), np.minimum(rate, 0.0)
        bands[k][lo] += outflow
        bands[k][hi] -= inflow
        bands[j][lo], bands[-1 - j][hi] = -outflow, inflow
    strides = [math.prod(mesh.cells[fs.axis + 1:]) for fs in faces]
    offsets = [-s for s in strides] + [0] + strides[::-1]  # hi - lo
    mat = sp.dia_matrix((bands.reshape(2 * k + 1, -1), offsets),
                        shape=(mesh.n_cells,) * 2)
    return mat, mesh.cell_volume * rho_old.values / dt


def jacobi_sweeps(mat, rhs, x, target: float, cap: int):
    """Jacobi sweeps ``x += (rhs - mat x) / diag(mat)`` from ``x`` until
    the relative residual is at most ``target``, a sweep fails to lower
    the 1-norm of the residual, or ``cap`` sweeps.

    Returns the last iterate (a new array), the sweeps made and the true
    residual a stop met, relative as in :func:`checked_residual`, or
    ``None`` after ``cap`` sweeps.  On the transport
    matrix, from the old density, a sweep sets each cell to a convex
    combination of its old density and the current upwind neighbours (the
    diagonal is ``|K|/dt`` plus the outflow, which equals the inflow when
    the velocity is divergence-free), so every iterate stays inside the
    bounds of the old density.  Each sweep multiplies the residual by
    ``I - mat diag(mat)^-1``, whose 1-norm is below one for any velocity
    since the columns are diagonally dominant (Varga, *Matrix Iterative
    Analysis*, ch. 3): the sweeps converge, and a sweep that does not
    lower the residual's 1-norm has reached rounding.
    """
    x = np.array(x, dtype=float)
    inv_diag = 1.0 / mat.diagonal()
    scale = np.linalg.norm(rhs)
    last = np.inf
    for sweeps in range(cap):
        resid = rhs - mat @ x
        size, norm = np.linalg.norm(resid, 1), np.linalg.norm(resid)
        if norm <= target * scale or size >= last:
            return x, sweeps, float(norm / scale if scale > 0 else norm)
        last = size
        x += inv_diag * resid
    return x, cap, None


def solve_transport(mesh: MacMesh, dt: float, rho_old: ScalarField,
                    u: VelocityField, tol: float = 1e-12):
    """Advance the density by one implicit upwind transport step.

    Jacobi sweeps from the old density (:func:`jacobi_sweeps`) run to a
    relative residual of ``KRYLOV_TARGET * tol``, or until rounding stops
    them; the report gives the sweeps.  When they reach ``JACOBI_MAXITER``,
    or stop short of ``tol``, :func:`_accept` solves by :func:`factor` and
    reports the fallback.
    """
    mat, rhs = assemble_transport(mesh, dt, rho_old, u)
    values, sweeps, residual = jacobi_sweeps(
        mat, rhs, rho_old.values, KRYLOV_TARGET * tol, JACOBI_MAXITER)
    values, report = _accept(mat, rhs, values, residual, tol,
                             "transport solve", factor, iterations=sweeps)
    return ScalarField(mesh, values), report


# -- momentum/pressure saddle system ------------------------------------------

def pin_row(mat, row: int) -> sp.csr_matrix:
    """Copy of a square sparse matrix with row ``row`` replaced by the unit
    row ``e_row`` (the pressure pin), edited in CSR form."""
    mat = sp.csr_matrix(mat)
    start, end = mat.indptr[row], mat.indptr[row + 1]
    indices = np.concatenate([mat.indices[:start], [row], mat.indices[end:]])
    data = np.concatenate([mat.data[:start], [1.0], mat.data[end:]])
    indptr = mat.indptr.copy()
    indptr[row + 1:] += 1 - (end - start)
    return sp.csr_matrix((data, indices, indptr), shape=mat.shape)


def pinned_poisson(grad, weights) -> sp.csr_matrix:
    """The pressure Poisson matrix ``grad^T diag(weights) grad`` with the
    row of ``PINNED_CELL`` replaced by the pin, which removes its
    constant nullspace."""
    return pin_row(grad.T @ sp.diags(weights) @ grad, PINNED_CELL)


@dataclass
class SaddleSystem:
    """Assembled one-step momentum and continuity equations.

    ``matrix`` is the saddle matrix ``[[momentum, grad], [div, 0]]``
    with the continuity row of ``PINNED_CELL`` replaced by the pressure
    pin, and the blocks (volume-scaled):

      momentum : per interior face, ``face_mass/dt`` on the diagonal
                 (``face_mass = dvol*rho_dual_new``) plus diffusion plus
                 convection by the frozen upwind mass fluxes;
                 block-diagonal by velocity component;
      grad     : face rows, ``+measure`` on the high cell and ``-measure``
                 on the low cell;
      div      : cell rows, signed face measures (assembled independently
                 from the cell outflow stencil; equals minus the transpose
                 of grad).

    ``rhs`` is the right-hand side of the pinned system (zero in the
    continuity rows).  ``saddle`` is the :class:`SaddleSolver` that
    assembled the system and solves it; its mesh and gradient block are
    the system's.  ``dt`` and ``face_mass`` are kept for the Krylov
    preconditioner.  The step diagnostics read what :func:`assemble_oseen`
    built the blocks from: the ``dual_fluxes`` of the convection, the dual
    densities ``rho_dual_old``/``rho_dual_new``, and the packed old
    velocity ``u_old`` and forcing ``forcing`` (``None`` without one).
    """

    saddle: SaddleSolver
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dt: float
    face_mass: np.ndarray
    dual_fluxes: list
    rho_dual_old: list
    rho_dual_new: list
    u_old: np.ndarray
    forcing: np.ndarray | None


def assemble_divergence(mesh: MacMesh) -> sp.csr_matrix:
    """Volume-scaled divergence block from the cell outflow stencil.

    Row K sums ``measure * u`` over K's faces with outflow sign, columns
    indexed by interior-face unknowns (wall faces carry no unknown).
    """
    rows, cols, vals = [], [], []
    n = mesh.n_cells  # the case-1 rows: row K holds the two faces of cell K
    for fs, t, part in zip(mesh.faces, mesh.dual_interfaces,
                           mesh.interior_slices):
        for faces, sign in ((t.face_hi[:n], 1.0), (t.face_lo[:n], -1.0)):
            dof = fs.interior_dof[faces]
            keep = dof >= 0
            rows.append(np.flatnonzero(keep))
            cols.append(part.start + dof[keep])
            vals.append(sign * fs.measure[faces[keep]])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_cells, mesh.n_unknowns)).tocsr()


def assemble_gradient(mesh: MacMesh) -> sp.csr_matrix:
    """Volume-scaled pressure gradient block from the face stencil.

    Row sigma is ``measure * (p_hi - p_lo)``; built from the face
    adjacency, independently of :func:`assemble_divergence`.
    """
    rows, cols, vals = [], [], []
    for fs, part in zip(mesh.faces, mesh.interior_slices):
        idx = fs.interior_idx
        dof = part.start + fs.interior_dof[idx]
        rows.extend([dof, dof])
        cols.extend([fs.cell_hi[idx], fs.cell_lo[idx]])
        vals.extend([fs.measure[idx], -fs.measure[idx]])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_unknowns, mesh.n_cells)).tocsr()


class SaddlePattern:
    """CSR pattern of the pinned saddle matrix of one mesh.

    The MAC stencil fixes the sparsity of :attr:`SaddleSystem.matrix`;
    only the face masses and the convection values change from step to
    step.  The pattern holds ``indptr`` and ``indices`` of that matrix, its
    mesh-constant data ``base`` (diffusion, gradient, divergence and the
    pin's 1.0), the position ``diag`` of each momentum diagonal, and one
    scatter for the convection: ``conv`` holds the position of every COO
    entry of :func:`macflow.operators.convection_matrix` in its COO order
    (each component's low rows, then its high rows), and ``src`` the half
    flux it takes from ``[half_fluxes, -half_fluxes]``, so the second half
    gives the high rows their minus sign.  Summed in that order, each
    diagonal keeps the bits of the CSR conversion of
    ``convection_matrix``; every other position gets one entry.

    Indices are ``int32``, in one buffer; the lookup matrix that finds
    the positions is dropped after construction.
    """

    def __init__(self, mesh: MacMesh, grad, div):
        # The diffusion stencil couples the two faces of every dual
        # interface and puts each interior face on the diagonal, so it
        # covers every position the face masses and convection reach.
        n_u = mesh.n_unknowns
        diffusion = sp.block_diag([ops.diffusion_matrix(mesh, i)
                                   for i in range(mesh.dim)], format="csr")
        template = pin_row(sp.bmat([[diffusion, grad], [div, None]],
                                   format="csr"), n_u + PINNED_CELL)
        # each entry's position + 1 on the template's pattern, so that
        # indexing finds positions (scipy answers an empty query with a
        # sparse array, hence the guard)
        slot = sp.csr_array((np.arange(1, template.nnz + 1, dtype=np.int32),
                             template.indices, template.indptr),
                            shape=template.shape)

        def locate(rows, cols):
            return slot[rows, cols] - 1 if rows.size else rows

        self.shape = template.shape
        self.indptr = template.indptr
        self.indices = template.indices
        self.base = template.data

        n_half = sum(t.face_lo.size for t in mesh.dual_interfaces)
        conv, src, half_start = [], [], 0
        for fs, t, start in zip(mesh.faces, mesh.dual_interfaces,
                                (s.start for s in mesh.interior_slices)):
            lo = start + fs.interior_dof[t.face_lo]
            hi = start + fs.interior_dof[t.face_hi]
            for row, first in ((lo, half_start), (hi, n_half + half_start)):
                for col in (lo, hi):
                    keep = np.flatnonzero((row >= start) & (col >= start))
                    conv.append(locate(row[keep], col[keep]))
                    src.append(first + keep)
            half_start += t.face_lo.size

        # One int32 buffer holds every index array: a single long-lived
        # allocation, which leaves no pieces in the heap among the
        # temporaries of the steps.
        buf = np.concatenate([locate(np.arange(n_u), np.arange(n_u))]
                             + conv + src, dtype=np.int32)
        n_conv = sum(a.size for a in conv)
        self.diag, self.conv, self.src = np.split(buf, [n_u, n_u + n_conv])

    def fill(self, diagonal, half_fluxes) -> sp.csr_matrix:
        """The pinned matrix with ``diagonal`` (the face masses over dt)
        added on the momentum diagonal and the convection of the stacked
        ``half_fluxes`` (half the dual fluxes of each component)."""
        data = self.base.copy()
        data[self.diag] += diagonal
        signed = np.concatenate([half_fluxes, -half_fluxes])[self.src]
        data += np.bincount(self.conv, signed, minlength=data.size)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


def assemble_oseen(saddle: SaddleSolver, dt: float, rho_new: ScalarField,
                   rho_old: ScalarField, u_old: VelocityField,
                   forcing=None) -> SaddleSystem:
    """Build the linearized momentum/continuity system of one time step
    on the mesh of ``saddle``, the run's :class:`SaddleSolver`.

    Convection uses the upwind mass fluxes of ``(rho_new, u_old)``, the
    same fluxes that transported the density, which is what makes the
    dual mass balance and the kinetic energy identity exact.  ``forcing``
    is an optional list of per-direction face arrays (point values of the
    momentum source at face centers).  The pinned matrix is filled on the
    :class:`SaddlePattern` of ``saddle``, which the system carries to
    :func:`solve_oseen`.
    """
    mesh = saddle.mesh
    duals = ops.dual_fluxes(mesh, ops.upwind_face_flux(mesh, rho_new, u_old))
    rho_d_new = ops.dual_density(mesh, rho_new)
    rho_d_old = ops.dual_density(mesh, rho_old)

    dvol = mesh.interior_dvol
    face_mass = dvol * mesh.pack_interior(rho_d_new)
    u_packed = u_old.pack_interior()
    rhs_u = dvol * mesh.pack_interior(rho_d_old) * u_packed / dt
    f_packed = None if forcing is None else mesh.pack_interior(forcing)
    if f_packed is not None:
        rhs_u = rhs_u + dvol * f_packed
    matrix = saddle.pattern.fill(face_mass / dt, 0.5 * np.concatenate(duals))
    rhs = np.concatenate([rhs_u, np.zeros(mesh.n_cells)])
    return SaddleSystem(saddle, matrix, rhs, float(dt), face_mass, duals,
                        rho_d_old, rho_d_new, u_packed, f_packed)


def gmres(mat, rhs, x0, precond, target: float):
    """Restarted GMRES for ``mat x = rhs`` from ``x0`` (zero when
    ``None``), preconditioned on the left by ``precond(r, out)``, which
    writes ``M^-1 r`` into ``out``.

    Returns the iterate, the number of iterations and the relative true
    residual ``|rhs - mat x| / |rhs|`` once it is at most ``target`` (0.0
    for a zero ``rhs``), else ``None``.  Each restart cycle runs Arnoldi
    on ``M^-1 mat`` from ``z = M^-1 r``, orthogonalizing by classical
    Gram-Schmidt run twice, which is as orthogonal as modified
    Gram-Schmidt (Giraud, Langou & Rozloznik, *Comput. Math. Appl.* 50,
    2005), and minimizes the preconditioned residual through plane
    rotations (Saad & Schultz, *SIAM J. Sci. Stat. Comput.* 7, 1986).
    A cycle aims at ``|z| target |rhs| / |r|``, the factor the true
    residual still needs carried over to the preconditioned norm, divided
    by the shortfall of the cycle before: how much less its true residual
    fell than its rotated one.  Without it a true residual just above
    target can stall, each cycle meeting its goal in one iteration on a
    part of ``z`` that carries little of ``r``.  The shortfall is not
    carried while the target is below the rounding of the residual,
    ``eps | |mat| |x| + |rhs| |`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 3.5), where no cycle can close it.
    A cycle ends when its rotated residual reaches its goal, at an exact
    solution of its Krylov space, or after ``GMRES_RESTART`` steps.  The
    true residual is tested after each cycle, for at most
    ``GMRES_CYCLES`` cycles, or until a cycle's rotated residual falls to
    rounding, ``eps |z|``: its Krylov space then held the solution to
    working precision, and a restart would only stir rounding.
    """
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return rhs.copy(), 0, 0.0
    x = np.zeros(rhs.size) if x0 is None else np.array(x0, dtype=float)
    atol = target * bnorm
    eps = np.finfo(float).eps
    restart = min(GMRES_RESTART, rhs.size)
    basis = np.empty((restart + 1, rhs.size))
    r = rhs - mat @ x if x.any() else rhs
    rnorm = np.linalg.norm(r)
    iterations, shortfall = 0, 1.0
    for _ in range(GMRES_CYCLES):
        if rnorm <= atol:
            break
        precond(r, basis[0])
        beta = float(np.linalg.norm(basis[0]))
        basis[0] /= beta
        goal = beta * atol / (rnorm * shortfall)
        tri = np.zeros((restart, restart))   # rotated Hessenberg matrix
        g, rots = [beta], []   # rotated right-hand side, rotations
        for col in range(restart):
            w, done = basis[col + 1], basis[:col + 1]
            precond(mat @ basis[col], w)
            h = np.zeros(col + 1)
            for _ in range(2):
                part = done @ w
                w -= part @ done
                h += part
            h = h.tolist()
            norm = float(np.linalg.norm(w))
            if norm > 0.0:   # zero at an exact solution of the space
                w /= norm
            for k, (c, s) in enumerate(rots):
                h[k], h[k + 1] = (c * h[k] + s * h[k + 1],
                                  c * h[k + 1] - s * h[k])
            diag = math.hypot(h[col], norm)
            c, s = h[col] / diag, norm / diag
            rots.append((c, s))
            h[col] = diag
            tri[:col + 1, col] = h
            g[col:] = [c * g[col], -s * g[col]]
            iterations += 1
            if abs(g[-1]) <= goal:
                break
        x += np.linalg.solve(tri[:col + 1, :col + 1], g[:col + 1]) @ done
        r = rhs - mat @ x
        last, rnorm = rnorm, np.linalg.norm(r)
        if rnorm <= atol or abs(g[-1]) <= eps * beta:
            break   # converged, or solved to rounding
        floor = eps * np.linalg.norm(abs(mat) @ np.abs(x) + np.abs(rhs))
        shortfall = (rnorm * beta / (last * abs(g[-1]))
                     if atol > floor else 1.0)
    return x, iterations, float(rnorm / bnorm) if rnorm <= atol else None


class SaddleSolver:
    """Saddle-solve state of one run on one mesh.

    Holds the gradient block and the :class:`SaddlePattern` of the pinned
    matrix (built once per mesh, on first use, with the divergence and
    diffusion blocks folded into its data), on which
    :func:`assemble_oseen` fills each step's matrix, the pressure mass
    inverse ``M_p^-1`` (built once), and the GMRES block preconditioner,
    whose factors are kept from one solve to the next
    (:meth:`preconditioner`), built on first use and again:

    * after a solve that fell back to ``direct``, since the preconditioner
      failed there;
    * after a GMRES solve that took more than ``REFRESH_GROWTH`` times
      the iterations of the first solve after the last factorization.

    The rule counts GMRES iterations, and a solve that needs none (its
    initial guess already met the tolerance) sets no base count; it has
    no tunable input.

    It also keeps the last ``HISTORY`` nonzero accepted pinned solutions
    as they are (:meth:`remember`), and each GMRES solve starts from the
    best fit over their span (:meth:`start`): consecutive systems differ by
    O(dt), so the best combination of the last solutions is a closer
    guess than the last one alone (Fischer, *Comput. Methods Appl. Mech.
    Engrg.* 163, 1998).  A new solver has an empty history and starts
    from zero.  The stopping test does not depend on the initial guess.
    """

    def __init__(self, mesh: MacMesh):
        self.mesh = mesh
        self._precond = None           # block preconditioner
        self._base_iterations = None   # first solve after factoring
        self._inv_mass_p = 1.0 / mesh.cell_volume
        # solution k in row k % HISTORY; np.empty leaves the pages of
        # unused rows unwritten
        self._solutions = np.empty((HISTORY, mesh.n_unknowns + mesh.n_cells))
        self._count = 0

    @property
    def history(self) -> np.ndarray:
        """The remembered solutions ``S``, one per row (a view): the k-th
        nonzero solution is in row ``k % HISTORY``."""
        return self._solutions[:min(self._count, HISTORY)]

    @cached_property
    def grad(self) -> sp.csr_matrix:
        return assemble_gradient(self.mesh)

    @cached_property
    def pattern(self) -> SaddlePattern:
        return SaddlePattern(self.mesh, self.grad,
                             assemble_divergence(self.mesh))

    def preconditioner(self, system: SaddleSystem):
        """The Cahouet-Chabard block preconditioner for ``system``, as a
        function ``apply(r, out)`` that writes ``P^-1 r`` into ``out``,
        and whether its factors were built for it (``False``: kept).

        It applies the inverse of the block upper-triangular
        ``P = [[A, G], [0, S]]``, where ``A`` is the momentum block,
        inverted by one factorization per velocity component
        (:func:`component_solver`), and ``S`` approximates the Schur
        complement ``+G^T A^-1 G`` of the saddle (``div = -G^T``) through
        its inverse

            ``S^-1 r = K^-1 r / dt + M_p^-1 r``,

        with ``K = G^T diag(1/face_mass) G`` the variable-density pressure
        Poisson matrix (mass-dominated limit of ``A``) and ``M_p`` the
        cell volumes (unit-viscosity limit).  ``S`` acts on pressures
        up to a constant, as the saddle does before its pin.  The apply
        restores the pinned cell's continuity residual as minus the sum
        of the others' (the column sums of ``div`` vanish, so that
        equation is implied by the others), with which the pinned ``K``
        solves the singular, now consistent Poisson equation up to a
        constant, and then shifts the pressure so that its pinned entry
        equals the pin row's residual: the pin row is inverted exactly.
        A Schur inverse pinned like the saddle (the pin's residual fed to
        ``K^-1``, ``M_p^-1`` zero at the pinned cell) put one eigenvalue
        of ``P^-1`` times the saddle at ``1/dt`` and another at 0.22,
        0.12 and 0.08 on the 16^2, 24^2 and 32^2 gyre (dt 0.005), on
        which GMRES stalled for 4-5 iterations of every solve; without
        them the spectrum lies in [0.55, 1] at 16^2.
        The factors of ``A`` and ``K`` are :func:`factor` in 2D and
        :func:`incomplete_factor` in 3D.

        Kept factors come from an earlier step's system: they invert the
        momentum block, density and ``dt`` of that step, which still
        steers GMRES while the density and velocity move little, at the
        cost of a few iterations.
        """
        refresh = self._precond is None
        if refresh:
            # One LU per component, not one of the whole momentum block:
            # at 128^2 both have a fill of 1,317,006, but the single LU
            # peaks at 24.2 MiB against 13.4 MiB, and it raised the peak
            # RSS of a 128^2 gyre run from 165 to 171-173 MiB.
            factorize = incomplete_factor if self.mesh.dim == 3 else factor
            solve_u = component_solver(self.mesh, system.matrix, factorize)
            lu_k = factorize(pinned_poisson(self.grad,
                                            1.0 / system.face_mass))
            # locals, not self: the kept function must not hold the solver
            grad, inv_mass_p, dt = self.grad, self._inv_mass_p, system.dt
            n_u = grad.shape[0]

            def apply(r, out):
                r_p, z_p = r[n_u:].copy(), out[n_u:]
                pin_residual, r_p[PINNED_CELL] = r_p[PINNED_CELL], 0.0
                r_p[PINNED_CELL] = -r_p.sum()
                np.divide(lu_k.solve(r_p), dt, out=z_p)
                z_p += inv_mass_p * r_p
                z_p += pin_residual - z_p[PINNED_CELL]
                solve_u(r[:n_u] - grad @ z_p, out=out[:n_u])

            self._precond = apply
            self._base_iterations = None
        return self._precond, refresh

    def start(self, system: SaddleSystem):
        """Initial guess of the GMRES solve of ``system``: ``x0 = c S``,
        with ``c`` minimizing the weighted residual ``|w (rhs - A S^T c)|``
        over the span of the history, ``None`` (zero) while it is empty.

        The diagonal weight ``w`` stands in for the left preconditioner:
        ``1/diag(A)`` on the momentum rows and ``M_p^-1`` (``1/|K|``) on
        the pressure rows.  The pin row's fit residual is zero whatever
        its weight: a GMRES solution from such a start keeps the pinned
        pressure at exactly 0, since the preconditioner inverts the pin
        row exactly.  Unweighted, the worst divergence of the 32^2
        rotating patch rose seventyfold, from 1.1e-14 to 7.5e-13.
        LAPACK's least-squares solve (SVD) fits ``c`` on the solutions as
        they are, and ``rcond=-1`` drops only the directions whose
        singular values fall below machine precision: the patch run takes
        454 iterations, against 523 at NumPy's default cut.  The
        solutions are nearly collinear, and normal equations on them,
        which square that conditioning, are exactly singular on that run.
        """
        history = self.history
        if not history.size:
            return None
        weight = np.concatenate([1.0 / system.matrix.data[self.pattern.diag],
                                 self._inv_mass_p])
        fit = system.matrix @ history.T
        fit *= weight[:, None]
        coef = np.linalg.lstsq(fit, weight * system.rhs, rcond=-1)[0]
        return coef @ history

    def remember(self, solution: np.ndarray):
        """Take an accepted pinned solution into the history, in place of
        the oldest one once it is full; a zero solution is not kept."""
        if solution.any():
            self._solutions[self._count % HISTORY] = solution
            self._count += 1

    def record(self, iterations: int, fallback: bool):
        """Apply the refresh rule to the outcome of a GMRES solve with the
        current factors: drop them after a fallback or an iteration count
        above ``REFRESH_GROWTH`` times the base count, else take a nonzero
        count as the base when none is set yet."""
        if fallback or (self._base_iterations is not None and iterations
                        > REFRESH_GROWTH * self._base_iterations):
            self._precond = None
        elif self._base_iterations is None and iterations > 0:
            self._base_iterations = iterations


def solve_oseen(system: SaddleSystem, tol: float = 1e-10):
    """Solve the saddle system for (velocity, pressure).

    Returns interior velocity unknowns, the zero-mean pressure field, and
    a report.  The solve is :func:`gmres` on the pinned matrix,
    preconditioned by :meth:`SaddleSolver.preconditioner`, to a relative
    true residual of ``KRYLOV_TARGET * tol``.  When GMRES stops short of
    it, :func:`_accept` solves by sparse LU with partial pivoting and
    reports the fallback.

    GMRES takes its preconditioner and its initial guess (the best
    combination of the last accepted solutions,
    :meth:`SaddleSolver.start`) from ``system.saddle``, the
    :class:`SaddleSolver` that assembled the system, reports in
    ``precond_refresh`` whether this solve factored, and adds the accepted
    solution to the solver's history.
    """
    saddle, mesh = system.saddle, system.saddle.mesh
    mat, rhs = system.matrix, system.rhs
    precond, refresh = saddle.preconditioner(system)
    # M on the left: a restart cycle minimizes the residual weighted by M
    # (the Schur inverse on the continuity rows), which keeps the
    # divergence of the new velocity at the LU level (right
    # preconditioning left it three orders of magnitude larger).  Its
    # true-residual stop does not depend on the initial guess.
    solution, iterations, residual = gmres(
        mat, rhs, saddle.start(system), precond, KRYLOV_TARGET * tol)
    # the one LU with partial pivoting: the pinned saddle is indefinite
    solution, report = _accept(mat, rhs, solution, residual, tol,
                               "saddle solve", spla.splu,
                               iterations=iterations,
                               precond_refresh=refresh)
    saddle.record(report.iterations, report.fallback)
    saddle.remember(solution)
    u_values, p_values = np.split(solution, [mesh.n_unknowns])
    p_values = p_values - float(mesh.cell_volume @ p_values) / mesh.volume
    velocity = VelocityField.from_interior(mesh, u_values)
    pressure = ScalarField(mesh, p_values, zero_mean=True)
    return velocity, pressure, report

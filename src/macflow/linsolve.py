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
Cahouet-Chabard block preconditioner: one LU per velocity component for
the momentum block, and a variable-density pressure Poisson solve plus a
pressure mass solve for the Schur complement.  Sparse LU of the whole
pinned matrix, with partial pivoting, is the reported fallback when
GMRES does not converge; there is no other saddle solve.  Every other
LU (transport, preconditioner, projection) is :func:`factor`, which
does not pivot.  The true residual decides convergence
(:func:`checked_residual`, which also judges the transport solve).  The
pinned Poisson matrix of the Schur term, :func:`pinned_poisson`, with
unit density also serves the divergence-free projection of
:mod:`macflow.verify`, which factors it once per mesh.

A :class:`SaddleSolver` lives for one run on one mesh, and every
:class:`SaddleSystem` carries the solver that assembled it.  The solver
builds the CSR pattern of the pinned matrix once (:class:`SaddlePattern`:
the mesh-constant gradient, divergence and diffusion values, and the
positions the face masses and the convection land on), so a step only
fills values, and each GMRES solve starts from the last accepted
solution.  It keeps the preconditioner's LU factors from step to step:
the density stays inside its initial bounds (discrete maximum
principle), so the variable-density Poisson matrix moves within a
bounded spectral band, and the momentum blocks move by O(dt).  The
factors are rebuilt by a fixed rule (see :class:`SaddleSolver`), and
each solve reports whether it factored.  Stale factors can cost
iterations, never accuracy, since the true residual decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import MacMesh
from .fields import ScalarField, VelocityField
from . import operators as ops


# GMRES aims at this fraction of the saddle tolerance.  At 0.1 the
# divergence of the new velocity rose tenfold above the LU level; at
# 1e-3 it stays there for about two more iterations.
KRYLOV_TARGET = 1e-3

# Restart length and iteration cap of the GMRES saddle solve; a solve
# that reaches the cap falls back to LU.
GMRES_RESTART = 50
GMRES_MAXITER = 300

# The cell whose continuity row the pressure pin replaces.
PINNED_CELL = 0

# The preconditioner is factored again once a GMRES solve needs more than
# this multiple of the iterations of the first solve after the last
# factorization.
REFRESH_GROWTH = 1.5


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

    None of the three kinds of matrix factored here needs pivoting (Golub
    & Van Loan, *Matrix Computations*, 4th ed., 3.4): the upwind transport
    matrix has diagonally dominant columns for any velocity, the momentum
    blocks have a positive definite symmetric part, and the pinned
    pressure Poisson matrices are positive definite once the pin removes
    the constant nullspace.  Each caller checks its true residual.
    """
    return spla.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


@dataclass
class SolveReport:
    """Outcome of one linear solve.

    ``precond_refresh`` is true when the solve factored the Krylov
    preconditioner instead of reusing the factors of an earlier one.
    """

    method: str
    residual: float
    iterations: int = 0
    fallback: bool = False
    precond_refresh: bool = False


# -- transport ---------------------------------------------------------------

def assemble_transport(mesh: MacMesh, dt: float, rho_old: ScalarField,
                       u: VelocityField):
    """Implicit upwind transport system ``A rho_new = b``.

    Row K: ``|K|/dt * rho_K + sum of outgoing upwind fluxes``, linear in
    the new density; ``b = |K| rho_old / dt``.  The off-diagonal entries
    are nonpositive and, for divergence-free ``u``, both row and column
    sums of the flux part vanish, which yields the discrete maximum
    principle and the L2 contraction of the solve.
    """
    rows, cols, vals = [], [], []
    diag = mesh.cell_volume / dt
    rows.append(np.arange(mesh.n_cells))
    cols.append(np.arange(mesh.n_cells))
    vals.append(diag)
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        idx = fs.interior_idx
        vel = u.components[i][idx]
        rate = fs.measure[idx] * vel
        lo = fs.cell_lo[idx]
        hi = fs.cell_hi[idx]
        upw = np.where(vel >= 0.0, lo, hi)
        rows.append(lo)
        cols.append(upw)
        vals.append(rate)
        rows.append(hi)
        cols.append(upw)
        vals.append(-rate)
    mat = sp.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_cells, mesh.n_cells)).tocsr()
    rhs = mesh.cell_volume * rho_old.values / dt
    return mat, rhs


def solve_transport(mesh: MacMesh, dt: float, rho_old: ScalarField,
                    u: VelocityField, tol: float = 1e-12):
    """Advance the density by one implicit upwind transport step."""
    mat, rhs = assemble_transport(mesh, dt, rho_old, u)
    values = factor(mat).solve(rhs)
    rel = checked_residual(mat, values, rhs, tol, "transport solve")
    return ScalarField(mesh, values), SolveReport("direct", rel)


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

    ``saddle`` is the :class:`SaddleSolver` that assembled the system and
    solves it; ``mesh`` and ``grad`` are its own.  ``dt`` and
    ``face_mass`` are kept for the Krylov preconditioner.  ``fluxes`` (the
    upwind mass fluxes of the convection) and the dual densities
    ``rho_dual_old``/``rho_dual_new`` that :func:`assemble_oseen` built
    the blocks from are kept for the step diagnostics.
    """

    def __init__(self, saddle, matrix, rhs_u, dt, face_mass, fluxes,
                 rho_dual_old, rho_dual_new):
        self.saddle = saddle
        self.mesh = saddle.mesh
        self.grad = saddle.grad
        self.matrix = matrix
        self.rhs_u = rhs_u
        self.dt = float(dt)
        self.face_mass = face_mass
        self.fluxes = fluxes
        self.rho_dual_old = rho_dual_old
        self.rho_dual_new = rho_dual_new
        self.n_u, self.n_p = self.grad.shape

    def full_matrix(self) -> sp.csr_matrix:
        """Pinned saddle matrix (one continuity row swapped for the pin)."""
        return self.matrix

    def full_rhs(self) -> np.ndarray:
        return np.concatenate([self.rhs_u, np.zeros(self.n_p)])


def assemble_divergence(mesh: MacMesh) -> sp.csr_matrix:
    """Volume-scaled divergence block from the cell outflow stencil.

    Row K sums ``measure * u`` over K's faces with outflow sign, columns
    indexed by interior-face unknowns (wall faces carry no unknown).
    """
    rows, cols, vals = [], [], []
    for fs, c1, part in zip(mesh.faces, mesh.dual_case1,
                            mesh.interior_slices):
        for faces, sign in ((c1.face_hi, 1.0), (c1.face_lo, -1.0)):
            dof = fs.interior_dof[faces]
            keep = dof >= 0
            rows.append(c1.cell[keep])
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
    pin's 1.0), the position ``diag`` of each momentum diagonal, and what
    places the convection of :func:`macflow.operators.convection_matrix`:

    * each dual interface with two interior faces puts its half flux at
      the position ``upper`` of (low face, high face) and minus it at
      ``lower``, (high face, low face), taking it from ``off_src`` of the
      stacked half fluxes; no other interface reaches those positions;
    * a diagonal sums the half fluxes ``diag_src`` of its interfaces,
      plus on the rows ``diag_rows[:n_low]`` (low sides), minus on the
      rest, in the order in which the CSR conversion of
      ``convection_matrix`` sums them, so every value keeps its bits.

    Indices are ``int32``; the key table that finds the positions is
    dropped after construction.
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
        n = template.shape[0]
        keys = (np.repeat(np.arange(n, dtype=np.int64),
                          np.diff(template.indptr)) * n + template.indices)

        def locate(rows, cols):
            return np.searchsorted(keys, rows.astype(np.int64) * n + cols)

        self.shape = template.shape
        self.indptr = template.indptr
        self.indices = template.indices
        self.base = template.data

        rows, src = ([], []), ([], [])   # diagonal entries: low, high
        upper, lower, off_src = [], [], []
        half_start = 0
        for fs, t, start in zip(mesh.faces, mesh.dual_interfaces,
                                (s.start for s in mesh.interior_slices)):
            lo = start + fs.interior_dof[t.face_lo]
            hi = start + fs.interior_dof[t.face_hi]
            for k, side in enumerate((lo, hi)):
                keep = np.flatnonzero(side >= start)
                rows[k].append(side[keep])
                src[k].append(half_start + keep)
            both = np.flatnonzero((lo >= start) & (hi >= start))
            upper.append(locate(lo[both], hi[both]))
            lower.append(locate(hi[both], lo[both]))
            off_src.append(half_start + both)
            half_start += t.face_lo.size
        self.n_low = sum(r.size for r in rows[0])

        # One int32 buffer holds every index array: a single long-lived
        # allocation, which leaves no pieces in the heap among the
        # temporaries of the steps.
        parts = ([locate(np.arange(n_u), np.arange(n_u))], rows[0] + rows[1],
                 src[0] + src[1], upper, lower, off_src)
        buf = np.concatenate([a for part in parts for a in part],
                             dtype=np.int32)
        sizes = [sum(a.size for a in part) for part in parts]
        (self.diag, self.diag_rows, self.diag_src, self.upper, self.lower,
         self.off_src) = np.split(buf, np.cumsum(sizes)[:-1])

    def fill(self, diagonal, half_fluxes) -> sp.csr_matrix:
        """The pinned matrix with ``diagonal`` (the face masses over dt)
        added on the momentum diagonal and the convection of the stacked
        ``half_fluxes`` (half the dual fluxes of each component)."""
        data = self.base.copy()
        data[self.diag] += diagonal
        weights = half_fluxes[self.diag_src]
        np.negative(weights[self.n_low:], out=weights[self.n_low:])
        data[self.diag] += np.bincount(self.diag_rows, weights,
                                       minlength=self.diag.size)
        weights = half_fluxes[self.off_src]
        data[self.upper] += weights
        data[self.lower] -= weights
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


def assemble_oseen(mesh: MacMesh, dt: float, rho_new: ScalarField,
                   rho_old: ScalarField, u_old: VelocityField,
                   forcing=None,
                   saddle: SaddleSolver | None = None) -> SaddleSystem:
    """Build the linearized momentum/continuity system of one time step.

    Convection uses the upwind mass fluxes of ``(rho_new, u_old)``, the
    same fluxes that transported the density, which is what makes the
    dual mass balance and the kinetic energy identity exact.  ``forcing``
    is an optional list of per-direction face arrays (point values of the
    momentum source at face centers).  The pinned matrix is filled on the
    :class:`SaddlePattern` of ``saddle``, the run's :class:`SaddleSolver`
    (a fresh one when omitted), which the system carries to
    :func:`solve_oseen`.
    """
    if saddle is None:
        saddle = SaddleSolver(mesh)
    elif saddle.mesh is not mesh:
        raise ValueError("the saddle solver was built for another mesh")
    fluxes = ops.upwind_face_flux(mesh, rho_new, u_old)
    rho_d_new = ops.dual_density(mesh, rho_new)
    rho_d_old = ops.dual_density(mesh, rho_old)

    dvol = mesh.interior_dvol
    face_mass = dvol * mesh.pack_interior(rho_d_new)
    rhs_u = dvol * mesh.pack_interior(rho_d_old) * u_old.pack_interior() / dt
    if forcing is not None:
        rhs_u = rhs_u + dvol * mesh.pack_interior(forcing)
    half = np.concatenate([0.5 * ops.dual_fluxes(mesh, fluxes, i)
                           for i in range(mesh.dim)])
    matrix = saddle.pattern.fill(face_mass / dt, half)
    return SaddleSystem(saddle, matrix, rhs_u, dt, face_mass, fluxes,
                        rho_d_old, rho_d_new)


def _block_preconditioner(system: SaddleSystem, factors):
    """Cahouet-Chabard block upper-triangular preconditioner.

    Applies the inverse of ``P = [[A, G], [0, S]]``, where ``A`` is the
    momentum block, inverted by one LU per velocity component, and ``S``
    approximates the Schur complement ``+G^T A^-1 G`` of the saddle
    (``div = -G^T``) through its inverse

        ``S^-1 r = K^-1 r / dt + M_p^-1 r``,

    with ``K = G^T diag(1/face_mass) G`` the variable-density pressure
    Poisson matrix (mass-dominated limit of ``A``) and ``M_p`` the cell
    volumes (unit-viscosity limit).  ``K`` is pinned like the saddle, and
    ``M_p^-1`` vanishes at the pinned cell.

    ``factors`` are the LU factors for ``A`` (``(slice, lu)`` per velocity
    component with unknowns) and ``K``, built from this system or from an
    earlier step's system with the same ``dt`` (the lagged factors of a
    :class:`SaddleSolver`): they then invert the momentum block and
    density of that step, which still steers GMRES while the density and
    velocity move little, at the cost of a few iterations.
    """
    n_u, n_p = system.n_u, system.n_p
    components, lu_k = factors
    grad = system.grad
    inv_mass_p = 1.0 / system.mesh.cell_volume
    inv_mass_p[PINNED_CELL] = 0.0

    def apply(r):
        r_p = r[n_u:]
        z_p = lu_k.solve(r_p) / system.dt + inv_mass_p * r_p
        r_u = r[:n_u] - grad @ z_p
        z_u = np.zeros(n_u)
        for part, lu in components:
            z_u[part] = lu.solve(r_u[part])
        return np.concatenate([z_u, z_p])

    return spla.LinearOperator((n_u + n_p, n_u + n_p), matvec=apply,
                               dtype=float)


class SaddleSolver:
    """Saddle-solve state of one run on one mesh.

    Holds the gradient block and the :class:`SaddlePattern` of the pinned
    matrix (built once per mesh, on first use, with the divergence and
    diffusion blocks folded into its data), on which
    :func:`assemble_oseen` fills each step's matrix, and the LU factors of
    the GMRES preconditioner, kept from one solve to the next.  The
    factors are built again:

    * when the time step differs from the one they were built with (the
      Schur term is ``K^-1/dt``), and on first use;
    * after a solve that fell back to ``direct``, since the preconditioner
      failed there;
    * after a GMRES solve that took more than ``REFRESH_GROWTH`` times
      the iterations of the first solve after the last factorization.

    The rule counts GMRES iterations, and a solve that needs none (its
    initial guess already met the tolerance) sets no base count.  The
    rule has no tunable input, so a run is as deterministic as before.

    ``solution`` is the last accepted pinned solution, from which the
    next GMRES solve starts (consecutive steps differ by O(dt)); a fresh
    solver starts from zero.  The stopping test does not depend on the
    initial guess.  :func:`macflow.timestepper.run` makes one per run; a
    system assembled without one gets a fresh one, which factors.
    """

    def __init__(self, mesh: MacMesh):
        self.mesh = mesh
        self.solution = None           # last accepted pinned solution
        self._factors = None           # (dt, factors)
        self._base_iterations = None   # first solve after factoring

    @cached_property
    def grad(self) -> sp.csr_matrix:
        return assemble_gradient(self.mesh)

    @cached_property
    def pattern(self) -> SaddlePattern:
        return SaddlePattern(self.mesh, self.grad,
                             assemble_divergence(self.mesh))

    def preconditioner(self, system: SaddleSystem):
        """The block preconditioner for ``system``, and whether its
        factors were built for it (``False``: reused)."""
        refresh = self._factors is None or self._factors[0] != system.dt
        if refresh:
            self._factors = None  # release the old factors first
            # One LU per component, not one of the whole momentum block:
            # at 128^2 both have a fill of 1,317,006, but the single LU
            # peaks at 24.2 MiB against 13.4 MiB, and it raised the peak
            # RSS of a 128^2 gyre run from 165 to 171-173 MiB.
            components = [(part, factor(system.matrix[part, part]))
                          for part in self.mesh.interior_slices
                          if part.stop > part.start]
            lu_k = factor(pinned_poisson(self.grad, 1.0 / system.face_mass))
            self._factors = (system.dt, (components, lu_k))
            self._base_iterations = None
        return _block_preconditioner(system, self._factors[1]), refresh

    def record(self, iterations: int, fallback: bool):
        """Apply the refresh rule to the outcome of a GMRES solve with the
        current factors: drop them after a fallback or an iteration count
        above ``REFRESH_GROWTH`` times the base count, else take a nonzero
        count as the base when none is set yet."""
        if fallback or (self._base_iterations is not None and iterations
                        > REFRESH_GROWTH * self._base_iterations):
            self._factors = None
        elif self._base_iterations is None and iterations > 0:
            self._base_iterations = iterations


def solve_oseen(system: SaddleSystem, tol: float = 1e-10):
    """Solve the saddle system for (velocity, pressure).

    Returns interior velocity unknowns, the zero-mean pressure field, and
    a report.  The solve is GMRES on the pinned matrix, preconditioned by
    :func:`_block_preconditioner`, to a relative true residual of
    ``KRYLOV_TARGET * tol``.  When GMRES does not converge, sparse LU of
    the pinned matrix produces the solution and the report says so
    (``fallback`` set, ``method`` ``direct``).  Either way the relative
    true residual of the pinned system must be at most ``tol``, or
    :class:`SolverFailure` is raised.

    GMRES takes its preconditioner factors and its initial guess (the
    last accepted solution) from ``system.saddle``, the
    :class:`SaddleSolver` that assembled the system, reports in
    ``precond_refresh`` whether this solve factored, and leaves the
    accepted solution there.
    """
    mesh, saddle = system.mesh, system.saddle
    mat = system.full_matrix()
    rhs = system.full_rhs()
    precond, refresh = saddle.preconditioner(system)
    counter = {"n": 0}

    def cb(_):
        counter["n"] += 1

    # SciPy applies M on the left, so the Arnoldi residual weights the
    # continuity rows by the Schur inverse; that keeps the divergence of
    # the new velocity at the LU level (right preconditioning, on the
    # unweighted residual, left it three orders of magnitude larger).  It
    # stops at KRYLOV_TARGET * tol * |M^-1 rhs| whatever the initial
    # guess, so the warm start does not loosen the test.
    solution, info = spla.gmres(
        mat, rhs, x0=saddle.solution, rtol=KRYLOV_TARGET * tol, atol=0.0,
        M=precond, restart=GMRES_RESTART, maxiter=GMRES_MAXITER,
        callback=cb, callback_type="pr_norm")
    fallback = info != 0
    saddle.record(counter["n"], fallback)
    if fallback:
        # the one LU with partial pivoting: the pinned saddle is indefinite
        solution = spla.splu(mat.tocsc()).solve(rhs)

    rel = checked_residual(mat, solution, rhs, tol, "saddle solve")
    saddle.solution = solution
    p_values = solution[system.n_u:]
    p_values = p_values - float(mesh.cell_volume @ p_values) / mesh.volume
    report = SolveReport(method="direct" if fallback else "gmres",
                         residual=rel, iterations=counter["n"],
                         fallback=fallback, precond_refresh=refresh)
    velocity = VelocityField.from_interior(mesh, solution[:system.n_u])
    pressure = ScalarField(mesh, p_values, zero_mean=True)
    return velocity, pressure, report

"""Verification harness: identity batteries, estimate trackers, translate
measurements, and refinement studies.

Three kinds of checks live here:

* machine-precision identities of the discrete operators (duality pairing,
  gradient/divergence adjointness, diffusion coercivity and symmetry):
  random inputs, the worst residual compared against an absolute
  threshold around 1e-12, and a NaN residual fails;
* bounded-quantity trackers (velocity energy norms, convection trilinear
  ratios, the saddle-point inf-sup constant by sparse LOBPCG): reported
  and compared across meshes, no universal constant asserted;
* refinement behavior (time-translate scaling of the velocity, space-time
  convergence against manufactured solutions): fitted slopes and
  level-to-level error reduction factors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, field, fields

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import MacMesh, build_uniform_mesh, regularity, mesh_step
from .fields import (ScalarField, VelocityField, cell_average,
                     fortin_interpolate, norm_l2_cells, norm_lp_dual,
                     norm_h1, norm_h1_squared)
from . import operators as ops
from .linsolve import (SolverFailure, assemble_divergence,
                       assemble_gradient, checked_residual, component_solver,
                       factor, pinned_poisson)
from .timestepper import (RunResult, SchemeConfig, StepDiagnostics, _worst,
                          run)
from .ioutil import write_table

# LOBPCG residual tolerance and iteration cap of the inf-sup monitor.
INFSUP_TOL = 1e-9
INFSUP_MAXITER = 300
# Largest relative asymmetry of an assembled diffusion matrix.
SYMMETRY_TOL = 1e-13
# Acceptance floor of the fitted time-translate slope.
SLOPE_FLOOR = 0.4


@dataclass
class IdentityReport:
    """Outcome of one randomized identity battery."""

    name: str
    trials: int
    max_residual: float
    tolerance: float
    passed: bool
    extras: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: max residual "
                f"{self.max_residual:.3e} (tolerance {self.tolerance:.1e}, "
                f"{self.trials} trials)")


def _random_scalar(mesh, rng, lo=0.5, hi=2.0):
    return ScalarField(mesh, rng.uniform(lo, hi, mesh.n_cells))


def _random_velocity(mesh, rng):
    return VelocityField(mesh, [rng.standard_normal(mesh.faces[i].count)
                                for i in range(mesh.dim)])


def _battery_rng(trials, seed, name="trials"):
    """The random generator of a battery of ``trials`` trials, the
    argument ``name``, of which there must be at least one: a battery
    that tried nothing proves nothing."""
    if not trials >= 1:
        raise ValueError("a battery needs at least 1 trial, "
                         f"got {name}={trials!r}")
    return np.random.default_rng(seed)


def check_duality(mesh: MacMesh, trials: int = 100, seed: int = 0,
                  tol: float = 1e-12) -> IdentityReport:
    """Dual divergence tested against a velocity equals the diamond-volume
    pairing of the flux reconstruction with the dual gradient.

    Checked per direction on random (density, velocity, test velocity)
    triples; the residual is relative to the magnitude of the two sides.
    """
    rng = _battery_rng(trials, seed)
    residuals = []
    for _ in range(trials):
        rho = _random_scalar(mesh, rng)
        v = _random_velocity(mesh, rng)
        w = _random_velocity(mesh, rng)
        duals = ops.dual_fluxes(mesh, ops.upwind_face_flux(mesh, rho, v))
        dd = ops.div_dual_from_fluxes(mesh, duals)
        for i in range(mesh.dim):
            fs = mesh.faces[i]
            lhs = float((fs.dvol * dd[i]) @ w.components[i])
            rhs = ops.dual_pairing(
                mesh, i, ops.flux_reconstruction(mesh, duals, i),
                ops.dual_gradient(mesh, i, w))
            scale = max(1.0, abs(lhs), abs(rhs))
            residuals.append(abs(lhs - rhs) / scale)
    worst = _worst(residuals)
    return IdentityReport("duality identity", trials, worst, tol,
                          worst <= tol)


def check_adjointness(mesh: MacMesh, trials: int = 100, seed: int = 0,
                      tol: float = 1e-12) -> IdentityReport:
    """Pressure gradient is minus the transpose of the velocity divergence
    under the volume-weighted inner products."""
    rng = _battery_rng(trials, seed)
    residuals = []
    for _ in range(trials):
        p = ScalarField(mesh, rng.standard_normal(mesh.n_cells))
        v = _random_velocity(mesh, rng)
        div = ops.div_velocity(mesh, v)
        a = float((mesh.cell_volume * p.values) @ div)
        g = ops.grad_pressure(mesh, p)
        b = sum(float((mesh.faces[i].dvol * g[i]) @ v.components[i])
                for i in range(mesh.dim))
        residuals.append(abs(a + b) / max(1.0, abs(a), abs(b)))
    worst = _worst(residuals)
    return IdentityReport("gradient/divergence adjointness", trials, worst,
                          tol, worst <= tol)


def check_coercivity(mesh: MacMesh, trials: int = 100, seed: int = 0,
                     tol: float = 1e-12) -> IdentityReport:
    """Minus the diffusion operator tested against its own argument equals
    the squared discrete H1 norm; the assembled matrix is symmetric to
    ``SYMMETRY_TOL``."""
    rng = _battery_rng(trials, seed)
    residuals = []
    for _ in range(trials):
        v = _random_velocity(mesh, rng)
        lap = ops.laplacian_apply(mesh, v)
        a = -sum(float((mesh.faces[i].dvol * lap[i]) @ v.components[i])
                 for i in range(mesh.dim))
        b = norm_h1_squared(v)
        residuals.append(abs(a - b) / max(1.0, abs(a), abs(b)))

    asymmetries = []
    definite = True
    for i in range(mesh.dim):
        mat = ops.diffusion_matrix(mesh, i)
        if mat.shape[0] == 0:
            continue
        scale = max(1.0, abs(mat).max())
        diff = abs(mat - mat.T)
        asymmetries.append((diff.max() / scale) if diff.nnz else 0.0)
        vec = rng.standard_normal(mat.shape[0])
        definite = definite and float(vec @ (mat @ vec)) > 0.0
    worst, asym = _worst(residuals), _worst(asymmetries)
    passed = worst <= tol and asym <= SYMMETRY_TOL and definite
    return IdentityReport(
        "diffusion coercivity and symmetry", trials, worst, tol, passed,
        extras={"matrix_asymmetry": asym, "positive_definite": definite})


# -- time translates -----------------------------------------------------------

@dataclass
class TranslateReport:
    """Translate integrals of the velocity and their fitted scaling."""

    taus: list[float]
    integrals: list[float]
    slope: float
    scale_factor: float
    passed: bool


def measure_translates(result: RunResult,
                       shifts=(1, 2, 4, 8)) -> TranslateReport:
    """Integrals of the squared L2 distance between the velocity and its
    time translate, for translates of whole steps.

    The trajectory is piecewise constant in time, so each integral is an
    exact finite sum.  The fitted quantity is the log-log slope of the
    integral against (translate + dt); the scaling estimate this probes
    is a square-root upper bound, so the acceptance floor ``SLOPE_FLOOR``
    is one-sided and below 1/2.  Needs at least 3 usable translate values
    and a trajectory stored at every step.
    """
    traj = result.trajectory
    if len(traj) != result.n_steps + 1:
        raise ValueError("translate measurement needs every step stored")
    dt = result.config.dt
    mesh = result.mesh
    usable = [int(k) for k in shifts if 0 < k <= result.n_steps - 1]
    if len(usable) < 3:
        raise ValueError(
            f"need at least 3 usable translate shifts, got {len(usable)}")

    integrals = []
    for k in usable:
        total = 0.0
        for n in range(result.n_steps - k):
            ua = traj.u[n + 1]
            ub = traj.u[n + 1 + k]
            diff = VelocityField(mesh, [b - a for a, b in
                                        zip(ua.components, ub.components)])
            total += dt * norm_lp_dual(diff, 2) ** 2
        integrals.append(total)

    taus = [k * dt for k in usable]
    xs = np.log([tau + dt for tau in taus])
    ys = np.log(np.maximum(integrals, 1e-300))
    slope = float(np.polyfit(xs, ys, 1)[0])

    rho_min = min(r.min() for r in traj.rho)
    rho_max = max(r.max() for r in traj.rho)
    scale = (rho_max / rho_min) * (result.l2h1 ** 3 + 1.0)
    return TranslateReport(taus=taus, integrals=integrals, slope=slope,
                           scale_factor=scale, passed=slope >= SLOPE_FLOOR)


# -- convergence study ---------------------------------------------------------

@dataclass
class ConvergenceLevel:
    cells: tuple
    h: float
    dt: float
    eta: float
    err_u: float
    err_rho: float
    err_p: float
    l2h1: float = 0.0
    linf_l2: float = 0.0


@dataclass
class ConvergenceReport:
    levels: list[ConvergenceLevel]
    factors_u: list[float]
    factors_rho: list[float]
    threshold: float
    passed: bool


def _space_time_errors(result: RunResult, problem):
    """L2-in-time errors of a stored-every-step run against exact fields."""
    mesh = result.mesh
    dt = result.config.dt
    traj = result.trajectory
    err_u_sq = err_rho_sq = err_p_sq = 0.0
    for n in range(1, len(traj)):
        tv = traj.times[n]
        u_ref = fortin_interpolate(mesh, problem.u_exact(tv))
        diff = VelocityField(mesh, [a - b for a, b in
                                    zip(traj.u[n].components,
                                        u_ref.components)])
        err_u_sq += dt * norm_lp_dual(diff, 2) ** 2
        rho_ref = cell_average(mesh, problem.rho_exact(tv))
        err_rho_sq += dt * norm_l2_cells(
            ScalarField(mesh, traj.rho[n].values - rho_ref.values)) ** 2
        if traj.p[n] is not None and problem.p_exact is not None:
            p_ref = cell_average(mesh, problem.p_exact(tv))
            p_ref_values = p_ref.values - p_ref.mean()
            err_p_sq += dt * norm_l2_cells(
                ScalarField(mesh, traj.p[n].values - p_ref_values)) ** 2
    return math.sqrt(err_u_sq), math.sqrt(err_rho_sq), math.sqrt(err_p_sq)


def _reduction(coarse: float, fine: float) -> float:
    """Error reduction factor of one refinement; ``inf`` when the finer
    level is exact, since nothing is left to reduce."""
    return coarse / fine if fine != 0 else math.inf


def convergence_study(problem, levels: int = 3, base_cells: int = 16,
                      t_end: float = 0.25, base_dt: float | None = None,
                      threshold: float = 1.5) -> ConvergenceReport:
    """Refine mesh and time step together against the exact solution.

    Level k uses ``base_cells * 2**k`` cells per direction and halves the
    time step each level (proportional policy).  Errors are space-time L2
    norms of velocity, density, and zero-mean-matched pressure.  The
    report passes when both velocity and density errors decrease
    monotonically with reduction factors at least ``threshold``.
    """
    if levels < 3:
        raise ValueError("a convergence study needs at least 3 levels")
    if base_cells < 2:
        raise ValueError("a convergence study needs at least 2 base cells")
    if problem.u_exact is None or problem.rho_exact is None:
        raise ValueError(f"preset {problem.name!r} has no exact solution")
    if base_dt is None:
        base_dt = t_end / (base_cells // 2)

    rows = []
    for k in range(levels):
        cells = base_cells * 2 ** k
        mesh = build_uniform_mesh(problem.domain, (cells,) * problem.dim)
        cfg = SchemeConfig(dt=base_dt / 2 ** k, t_end=t_end, store_every=1)
        result = run(mesh, problem, cfg)
        err_u, err_rho, err_p = _space_time_errors(result, problem)
        rows.append(ConvergenceLevel(
            cells=mesh.cells, h=mesh_step(mesh), dt=result.config.dt,
            eta=regularity(mesh), err_u=err_u, err_rho=err_rho, err_p=err_p,
            l2h1=result.l2h1, linf_l2=result.linf_l2))

    factors_u = [_reduction(a.err_u, b.err_u) for a, b in zip(rows, rows[1:])]
    factors_rho = [_reduction(a.err_rho, b.err_rho)
                   for a, b in zip(rows, rows[1:])]
    passed = (all(f >= threshold for f in factors_u)
              and all(f >= threshold for f in factors_rho))
    return ConvergenceReport(levels=rows, factors_u=factors_u,
                             factors_rho=factors_rho, threshold=threshold,
                             passed=passed)


# -- monitored quantities -------------------------------------------------------

def project_divergence_free(mesh: MacMesh, velocities):
    """Closest discretely divergence-free velocity in the dual-volume
    metric, for each entry of the sequence ``velocities``.

    With ``G`` the gradient block and ``K = G^T diag(1/dvol) G`` the
    unit-density pressure Poisson matrix, the projection is
    ``v = u + diag(1/dvol) G q`` with ``K q = -G^T u``.  ``K`` is pinned
    and factored once for all the velocities; a second pass on the same
    LU removes the divergence the first one leaves by rounding.
    """
    grad = assemble_gradient(mesh)
    inv_dvol = 1.0 / mesh.interior_dvol
    poisson = pinned_poisson(grad, inv_dvol)
    lu = factor(poisson)
    projected = []
    for u in velocities:
        v = u.pack_interior()
        for _ in range(2):
            rhs = -(grad.T @ v)
            q = lu.solve(rhs)
            checked_residual(poisson, q, rhs, 1e-10, "projection")
            v = v + inv_dvol * (grad @ q)
        projected.append(VelocityField.from_interior(mesh, v))
    return projected


def measure_convection_bound(mesh: MacMesh, samples: int = 20,
                             seed: int = 0) -> dict:
    """Observed constants of the convection trilinear bound.

    For random bounded densities, projected divergence-free convecting
    velocities, and random test velocities, reports statistics of
    ``|integral of C(rho,u)v . w|`` over ``max|rho| * |u|_h1 * |v|_h1 *
    |w|_h1``.  Monitored across refinement; no universal constant is
    asserted.  ``samples`` must be at least 1.
    """
    rng = _battery_rng(samples, seed, "samples")
    # every sample is drawn first, in the order (rho, u, v, w), so that
    # the projections of all the u's share one factor
    rhos, us, vs, ws = zip(*[
        (_random_scalar(mesh, rng, 1.0, 2.0), _random_velocity(mesh, rng),
         _random_velocity(mesh, rng), _random_velocity(mesh, rng))
        for _ in range(samples)])
    ratios = []
    for rho, u, v, w in zip(rhos, project_divergence_free(mesh, us), vs, ws):
        conv = ops.convection_apply(
            mesh, ops.dual_fluxes(mesh, ops.upwind_face_flux(mesh, rho, u)), v)
        tri = sum(float((mesh.faces[i].dvol * conv[i]) @ w.components[i])
                  for i in range(mesh.dim))
        denom = (rho.values.max() * norm_h1(u) * norm_h1(v) * norm_h1(w))
        if denom > 0:
            ratios.append(abs(tri) / denom)
    arr = np.asarray(ratios)
    return {"max": float(arr.max()), "mean": float(arr.mean()),
            "samples": int(arr.size), "eta": regularity(mesh)}


def infsup_health(mesh: MacMesh) -> dict:
    """Discrete inf-sup constant ``beta`` of the velocity H1 /
    zero-mean-pressure pairing, and the LOBPCG iterations that found it.

    ``beta**2`` is the smallest eigenvalue of ``D A^-1 D^T p = lam M_p p``
    (divergence ``D``, component diffusion blocks ``A``, cell volumes
    ``M_p``, which also precondition it) on pressures ``M_p``-orthogonal
    to the constants.  The block holds ``dim + 1`` seeded vectors, as the
    eigenvalue can be ``dim``-fold on a uniform mesh, and LOBPCG needs
    five unknowns per vector.  Raises :class:`SolverFailure` when the
    residual exceeds ``INFSUP_TOL`` after ``INFSUP_MAXITER`` iterations.
    """
    n, size = mesh.n_cells, mesh.dim + 1
    if n - 1 < 5 * size:
        raise ValueError(f"inf-sup monitor needs at least {5 * size + 1} "
                         f"cells in {mesh.dim}D (LOBPCG floor), got {n}")
    div = assemble_divergence(mesh)
    solve = component_solver(mesh, sp.block_diag(
        [ops.diffusion_matrix(mesh, i) for i in range(mesh.dim)], "csr"),
        factor)
    with warnings.catch_warnings():
        # non-convergence is judged from the residuals below
        warnings.filterwarnings("ignore", "(?s).*requested tolerance",
                                UserWarning)
        lam, _, history = spla.lobpcg(
            lambda p: div @ solve(div.T @ p),
            np.random.default_rng(0).standard_normal((n, size)),
            B=sp.diags(mesh.cell_volume), M=sp.diags(1.0 / mesh.cell_volume),
            Y=np.ones((n, 1)), tol=INFSUP_TOL, maxiter=INFSUP_MAXITER,
            largest=False, retResidualNormsHistory=True)
    resid = np.max(history[-1])
    if not resid <= INFSUP_TOL:
        raise SolverFailure(f"inf-sup LOBPCG residual {resid:.3e} exceeds "
                            f"{INFSUP_TOL:.1e}")
    # history rows: the start, each iteration, the final Rayleigh-Ritz step
    return {"beta": math.sqrt(lam.min()), "n_cells": n,
            "iterations": len(history) - 2}


# -- report output ---------------------------------------------------------------

def write_identity_reports(reports, path, cfg_hash=None, seed=None):
    """One CSV row per identity battery plus PASS/FAIL flags."""
    write_table(path, "identity-reports",
                ["name", "trials", "max_residual", "tolerance", "passed"],
                ((r.name, r.trials, r.max_residual, r.tolerance, r.passed)
                 for r in reports), cfg_hash, seed)


def write_diagnostics_csv(result: RunResult, path, cfg_hash=None, seed=None):
    """Per-step diagnostics time series of a run: one column per
    :class:`StepDiagnostics` field, and the run's two velocity estimates
    in the header."""
    write_table(path, "run-diagnostics",
                [f.name for f in fields(StepDiagnostics)],
                map(astuple, result.diagnostics), cfg_hash, seed,
                extra={"l2h1": result.l2h1, "linf_l2": result.linf_l2})


def write_translate_csv(report: TranslateReport, path, cfg_hash=None):
    write_table(path, "translate-report", ["tau", "integral"],
                zip(report.taus, report.integrals), cfg_hash,
                extra={"slope": report.slope,
                       "scale_factor": report.scale_factor,
                       "passed": report.passed})


def write_convergence_csv(report: ConvergenceReport, path, cfg_hash=None):
    write_table(path, "convergence-report",
                ["cells", "h", "dt", "eta", "err_u", "err_rho", "err_p",
                 "l2h1", "linf_l2"],
                (("x".join(map(str, lv.cells)), lv.h, lv.dt, lv.eta,
                  lv.err_u, lv.err_rho, lv.err_p, lv.l2h1, lv.linf_l2)
                 for lv in report.levels),
                cfg_hash,
                extra={"threshold": report.threshold,
                       "passed": report.passed})

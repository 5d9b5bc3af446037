"""Semi-implicit time stepping for variable-density incompressible flow.

Each step advances (density, velocity, pressure) in two stages:

1. an implicit upwind transport solve moves the density with the current
   velocity; the M-matrix structure of the system keeps the new density
   inside the running bounds and contracts its L2 norm whenever the
   advecting velocity is discretely divergence-free;
2. a linearized momentum/continuity saddle solve produces the new
   velocity and pressure, with convection frozen at the upwind mass
   fluxes of (new density, old velocity).

Reusing the transport fluxes in the convection operator is what makes the
face control-volume mass balance exact and yields a per-face kinetic
energy identity whose only unsigned term is the momentum solver residual.
Per-step diagnostics record both identities along with the usual energy
bookkeeping, so a run doubles as a verification transcript.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import MacMesh
from .fields import (ScalarField, VelocityField, Trajectory, cell_average,
                     fortin_interpolate, norm_l2_cells, norm_lp_dual,
                     norm_h1_squared)
from . import operators as ops
from .linsolve import (SaddleSolver, SaddleSystem, SolverFailure,
                       solve_transport, assemble_oseen, solve_oseen)


class InvariantViolation(RuntimeError):
    """A step broke a guaranteed discrete invariant beyond its guard
    margin; only :func:`step` raises it.  A guard sets ``field``, the
    :class:`StepDiagnostics` field it measured, and ``value``, what it
    measured; a non-finite forcing leaves both ``None``.
    """

    def __init__(self, message, field=None, value=None):
        super().__init__(message)
        self.field, self.value = field, value


@dataclass
class SchemeConfig:
    """Numerical parameters of a run, with the defaults used everywhere.

    ``transport_tol`` and ``oseen_tol`` bound the relative true residuals
    of the two linear solves of a step; the transport solve runs Jacobi
    sweeps (see :func:`macflow.linsolve.solve_transport`) and the saddle
    solve preconditioned GMRES (see :func:`macflow.linsolve.solve_oseen`).
    ``bounds_margin`` and ``div_guard`` are the guards whose violation
    stops a run with :class:`InvariantViolation`.
    """

    dt: float
    t_end: float
    transport_tol: float = 1e-12
    oseen_tol: float = 1e-10
    bounds_margin: float = 1e-9
    div_guard: float = 1e-9
    store_every: int = 1

    def gates(self):
        """The run's gates, in summary order: ``(summary label,
        StepDiagnostics field, tolerance)``.  A run passes when every
        field's worst value is at most its tolerance; the step guards
        stop a run on the first two as soon as one step breaks them."""
        return [("density bounds", "bound_violation", self.bounds_margin),
                ("velocity divergence", "div_l2", self.div_guard),
                ("dual mass balance", "mass_dual_resid",
                 10 * self.transport_tol),
                ("kinetic energy balance", "kinetic_resid",
                 10 * self.oseen_tol)]


@dataclass
class SchemeState:
    """Discrete state at one time level."""

    t: float
    index: int
    rho: ScalarField
    u: VelocityField
    p: ScalarField | None = None


@dataclass
class StepDiagnostics:
    """Per-step measurements; identity residuals are relative.

    The fields, in order, are the columns of ``diagnostics.csv``.
    """

    step: int
    t: float
    rho_min: float
    rho_max: float
    rho_l2: float
    mass: float
    bound_violation: float
    div_l2: float
    kinetic_energy: float
    ke_dissipation: float
    ke_numerical: float
    ke_work: float
    mass_dual_resid: float
    kinetic_resid: float
    kinetic_remainder_max: float
    u_l2: float
    transport_residual: float
    transport_sweeps: int
    transport_fallback: bool
    oseen_residual: float
    oseen_iterations: int
    oseen_fallback: bool
    precond_refresh: bool


def _worst(values: list) -> float:
    """Largest of ``values``, 0.0 when there are none.  A NaN among them
    is the result (Python's ``max`` would drop it), so it fails any
    tolerance ``worst <= tol``, as in the run's gates."""
    return float(np.max(values)) if values else 0.0


@dataclass
class RunResult:
    """Trajectory and per-step diagnostics of a run, and the estimates
    they give, computed when read.  ``stopped`` is the exception that
    ended the run early, ``None`` when it completed."""

    mesh: MacMesh
    config: SchemeConfig
    n_steps: int
    trajectory: Trajectory
    diagnostics: list[StepDiagnostics] = field(default_factory=list)
    initial_div_l2: float = 0.0
    stopped: Exception | None = None

    @property
    def worst(self) -> dict:
        """The largest value of the field of each of
        :meth:`SchemeConfig.gates` (NaN when any is, 0.0 with no step),
        counting the value a guard of ``stopped`` measured, since the
        step that failed the guard left no diagnostics."""
        out = {}
        for _, name, _ in self.config.gates():
            values = [getattr(d, name) for d in self.diagnostics]
            if getattr(self.stopped, "field", None) == name:
                values.append(self.stopped.value)
            out[name] = _worst(values)
        return out

    @property
    def l2h1(self) -> float:
        """Velocity L2(H1) estimate ``sqrt(sum dt * |u|_h1^2)``, summed
        left to right (Python 3.12's ``sum`` would change the last bits)."""
        h1_sq_sum = 0.0
        for d in self.diagnostics:
            h1_sq_sum += d.ke_dissipation
        return math.sqrt(h1_sq_sum)

    @property
    def linf_l2(self) -> float:
        """Largest velocity L2 norm, initial state included (NaN if any)."""
        return float(np.max([norm_lp_dual(self.trajectory.u[0], 2)]
                            + [d.u_l2 for d in self.diagnostics]))

    @property
    def rho_l2_monotone(self) -> bool:
        """Whether the density L2 norm never grew beyond a relative 1e-12
        from the initial state on; a NaN norm ends the decay."""
        prev = norm_l2_cells(self.trajectory.rho[0])
        for d in self.diagnostics:
            if not d.rho_l2 <= prev * (1 + 1e-12):
                return False
            prev = d.rho_l2
        return True


def kinetic_energy(mesh: MacMesh, rho_d, u: VelocityField):
    """Half the dual-volume integral of density times squared speed, from
    the dual (face) densities ``rho_d`` of :func:`operators.dual_density`."""
    total = 0.0
    for i in range(mesh.dim):
        fs = mesh.faces[i]
        total += float((fs.dvol * rho_d[i]) @ u.components[i] ** 2)
    return 0.5 * total


def initialize(mesh: MacMesh, problem) -> SchemeState:
    """Project the initial data: cell means for the density, face means
    for the velocity (exterior faces zeroed by the wall condition).

    Raises ``ValueError`` for a mesh box (or dimension) other than
    ``problem.domain``, a non-finite projected density or velocity, and a
    projected density outside the declared ``rho_bounds`` (cell means are
    convex combinations of point values, so that means inconsistent data).
    """
    domain = np.asarray(problem.domain, dtype=float)
    if not np.array_equal(mesh.domain_box, domain):
        raise ValueError(f"mesh box {mesh.domain_box.tolist()} is not the "
                         f"domain {domain.tolist()} of problem "
                         f"{problem.name!r}")
    rho = cell_average(mesh, problem.rho0)
    u = fortin_interpolate(mesh, problem.u0)
    if not np.isfinite(rho.values).all():
        raise ValueError("initial density is not finite")
    bounds = getattr(problem, "rho_bounds", None)
    if bounds is not None:
        slack = 1e-12 * max(abs(bounds[0]), abs(bounds[1]), 1.0)
        if rho.min() < bounds[0] - slack or rho.max() > bounds[1] + slack:
            raise ValueError(
                f"initial density range ({rho.min():.6g}, {rho.max():.6g}) "
                f"violates declared bounds {bounds}")
    if not all(np.isfinite(c).all() for c in u.components):
        raise ValueError("initial velocity is not finite")
    return SchemeState(t=0.0, index=0, rho=rho, u=u, p=None)


def _guard(cfg: SchemeConfig, name, value, message):
    """Stop the run with ``message`` unless ``value`` of the
    :class:`StepDiagnostics` field ``name`` is within its gate's
    tolerance; a NaN is never within it."""
    [tol] = [tol for _, gate, tol in cfg.gates() if gate == name]
    if not value <= tol:
        raise InvariantViolation(message, name, value)


def step(saddle: SaddleSolver, state: SchemeState, cfg: SchemeConfig,
         bounds, forcing=None):
    """Advance one time level; returns (new_state, StepDiagnostics).

    ``saddle`` is the run's :class:`~macflow.linsolve.SaddleSolver`; the
    step runs on its mesh, and it keeps the matrix pattern, the
    preconditioner factors and the last solutions across steps.
    ``bounds`` is the (min, max) density interval of the
    maximum-principle guard; :func:`run` passes its initial data's.
    ``forcing`` is an optional callable ``(mesh, t) -> per-direction face
    arrays`` evaluated at the new time level; a non-finite value on an
    interior face raises :class:`InvariantViolation` before the saddle
    solve (wall faces carry no unknown and are not read).
    """
    mesh, dt = saddle.mesh, cfg.dt
    t_new = state.t + dt

    rho_new, rep_t = solve_transport(mesh, dt, state.rho, state.u,
                                     tol=cfg.transport_tol)

    violation = max(bounds[0] - rho_new.min(), rho_new.max() - bounds[1],
                    0.0)
    _guard(cfg, "bound_violation", violation,
           f"density bounds violated by {violation:.3e} at t={t_new:.6g}")

    f_arrays = forcing(mesh, t_new) if forcing is not None else None
    system = assemble_oseen(saddle, dt, rho_new, state.rho, state.u,
                            forcing=f_arrays)
    if system.forcing is not None and not np.isfinite(system.forcing).all():
        raise InvariantViolation(f"forcing is not finite at t={t_new:.6g}")
    u_new, p_new, rep_o = solve_oseen(system, tol=cfg.oseen_tol)

    div_l2 = norm_l2_cells(ScalarField(mesh, ops.div_velocity(mesh, u_new)))
    _guard(cfg, "div_l2", div_l2,
           f"velocity divergence {div_l2:.3e} exceeds guard at t={t_new:.6g}")

    diag = StepDiagnostics(
        step=state.index + 1, t=t_new,
        rho_min=rho_new.min(), rho_max=rho_new.max(),
        rho_l2=norm_l2_cells(rho_new), mass=rho_new.integral(),
        bound_violation=violation, div_l2=div_l2,
        kinetic_energy=kinetic_energy(mesh, system.rho_dual_new, u_new),
        ke_dissipation=dt * norm_h1_squared(u_new),
        **face_balances(system, u_new, p_new),
        u_l2=norm_lp_dual(u_new, 2),
        transport_residual=rep_t.residual,
        transport_sweeps=rep_t.iterations,
        transport_fallback=rep_t.fallback, oseen_residual=rep_o.residual,
        oseen_iterations=rep_o.iterations, oseen_fallback=rep_o.fallback,
        precond_refresh=rep_o.precond_refresh)
    new_state = SchemeState(t=t_new, index=state.index + 1,
                            rho=rho_new, u=u_new, p=p_new)
    return new_state, diag


def face_balances(system: SaddleSystem, u_new: VelocityField,
                  p_new: ScalarField) -> dict:
    """Face control-volume balances of one step, keyed by the
    :class:`StepDiagnostics` fields they fill.

    The balances read the step's :class:`SaddleSystem` (its mesh, ``dt``,
    dual fluxes and densities, packed old velocity and forcing) and its
    solution ``u_new``, ``p_new``, and re-evaluate from them every term of
    the momentum equation: ``mass_dual_resid`` is the worst face mass
    balance relative to its largest term; ``kinetic_resid`` the norm of
    the per-face kinetic energy residuals relative to the momentum
    right-hand side times ``max(1, |u_new|_inf)``; ``kinetic_remainder_max``
    the largest remainder ``-rho_old (u_new - u_old)^2 / (2 dt)``,
    nonpositive by construction; ``ke_numerical`` and ``ke_work`` the
    step's numerical dissipation and forcing work.
    """
    mesh, dt = system.saddle.mesh, system.dt
    pack = mesh.pack_interior
    div_dual = pack(ops.div_dual_from_fluxes(mesh, system.dual_fluxes))
    conv = pack(ops.convection_apply(mesh, system.dual_fluxes, u_new))
    lap = pack(ops.laplacian_apply(mesh, u_new))
    grad = pack(ops.grad_pressure(mesh, p_new))
    dv = mesh.interior_dvol
    un, uo = u_new.pack_interior(), system.u_old
    rn, ro = pack(system.rho_dual_new), pack(system.rho_dual_old)
    fterm = 0.0 if system.forcing is None else system.forcing

    # face control-volume mass balance, volume-scaled, relative to the
    # scale of its largest term
    r_mass = dv * ((rn - ro) / dt + div_dual)
    scale = np.maximum(dv * (np.abs(rn) + np.abs(ro)) / dt, 1e-300)

    remainder = 0.5 * ro * (un - uo) ** 2 / dt
    r_kin = dv * (
        0.5 * (rn * un ** 2 - ro * uo ** 2) / dt
        + conv * un
        - 0.5 * div_dual * un ** 2
        - lap * un
        + grad * un
        - fterm * un
        + remainder)
    rhs_scale = float(np.sum((dv * (ro * uo / dt + fterm)) ** 2))
    u_inf = float(np.max(np.abs(un), initial=0.0))
    denom = max(np.sqrt(rhs_scale), 1e-300) * max(1.0, u_inf)
    return {"mass_dual_resid": float(np.max(np.abs(r_mass) / scale,
                                            initial=0.0)),
            "kinetic_resid": float(np.linalg.norm(r_kin)) / denom,
            "kinetic_remainder_max": float(np.max(-remainder,
                                                  initial=-math.inf)),
            "ke_numerical": 0.5 * float((dv * ro) @ (un - uo) ** 2),
            "ke_work": dt * float((dv * fterm) @ un)}


def time_steps(mesh: MacMesh, problem, cfg: SchemeConfig):
    """Step count and step of a run of ``problem`` on ``mesh``: the fewest
    equal steps of at most ``cfg.dt`` that reach ``cfg.t_end``.

    Raises ``ValueError`` when ``cfg.dt`` or ``cfg.t_end`` is not
    positive and finite, when the step count ``t_end / dt`` overflows, or
    when the step is so small that the norm of the transport right-hand
    side ``|K| rho / dt`` overflows (its relative residual would read
    inf / inf), with rho the largest magnitude of the problem's density
    bounds and at least 1, which covers the matrix diagonal ``|K| / dt``.
    """
    t_end, dt = cfg.t_end, cfg.dt
    if not all(math.isfinite(v) and v > 0 for v in (dt, t_end)):
        raise ValueError("dt and t_end must be positive and finite")
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"the step count t_end / dt = {t_end!r} / {dt!r} "
                         "is not finite")
    n_steps = max(1, math.ceil(ratio - 1e-12))
    dt = t_end / n_steps
    bounds = getattr(problem, "rho_bounds", None) or ()
    scale = (float(np.linalg.norm(mesh.cell_volume))
             * max([1.0, *map(abs, bounds)]) / dt)
    # the norm squares the entries
    if not math.isfinite(scale * scale):
        raise ValueError(f"dt = {dt!r} is too small for this mesh: the "
                         "transport right-hand side |K| rho / dt overflows")
    return n_steps, dt


def run(mesh: MacMesh, problem, cfg: SchemeConfig,
        state: SchemeState | None = None) -> RunResult:
    """Integrate from the projected initial data to ``cfg.t_end``.

    ``state`` is that data when the caller has projected it already
    (:func:`initialize` of ``mesh`` and ``problem``); by default the run
    projects it.  When ``t_end`` is not an integer multiple of ``dt`` the
    step is shrunk to the nearest exact divisor (:func:`time_steps`).
    Snapshots are stored every ``store_every`` steps (always including
    the first and last states).  Every step shares one
    :class:`~macflow.linsolve.SaddleSolver`.  Bad problem data raises
    ``ValueError`` before the first step, and a step's exception leaves
    with the run so far as its ``partial``.
    """
    n_steps, dt = time_steps(mesh, problem, cfg)
    cfg_eff = SchemeConfig(**{**cfg.__dict__, "dt": dt})

    if state is None:
        state = initialize(mesh, problem)
    bounds = (state.rho.min(), state.rho.max())
    result = RunResult(mesh=mesh, config=cfg_eff, n_steps=n_steps,
                       trajectory=Trajectory(),
                       initial_div_l2=norm_l2_cells(ScalarField(
                           mesh, ops.div_velocity(mesh, state.u))))
    result.trajectory.append(state.t, state.rho, state.u, None)

    forcing = getattr(problem, "forcing", None)
    saddle = SaddleSolver(mesh)
    for k in range(n_steps):
        try:
            state, diag = step(saddle, state, cfg_eff, forcing=forcing,
                               bounds=bounds)
        except (InvariantViolation, SolverFailure) as exc:
            # attach what completed so callers can keep the partial record
            result.stopped, exc.partial = exc, result
            raise
        result.diagnostics.append(diag)
        last = (k == n_steps - 1)
        if last or (cfg.store_every > 0
                    and state.index % cfg.store_every == 0):
            result.trajectory.append(state.t, state.rho, state.u, state.p)
    return result

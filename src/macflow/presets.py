"""Built-in problem setups.

Every preset bundles initial data, optional momentum forcing, and (when
known) the exact solution it was manufactured from.  Two constraints shape
the manufactured presets:

* the scheme admits no mass source, so the exact density must satisfy the
  continuous transport equation exactly; both presets below use densities
  that are constant along the streamlines of their velocity, which makes
  the transport residual vanish identically;
* the walls are impervious and no-slip, so exact velocities must vanish
  on the boundary; both presets derive from stream functions with
  double-zero boundary factors.

Presets
-------
``rest``
    Constant density, zero velocity, no forcing; anything beyond exact
    zeros is a bug.
``gyre``
    Time-modulated recirculation: stream function ``A cos(2 pi t)
    (sin(pi x) sin(pi y))^2``.  Smooth and genuinely unsteady; the
    reference problem for convergence studies, energy trackers, and
    time-translate measurements.
``rotating-patch``
    Steady polynomial swirl ``(2A/16^3) [16 x(1-x) y(1-y)]^2`` whose core
    turns nearly rigidly, carrying a disk-shaped density blob aligned
    with the stream contours.  The velocity components have tangential
    degree 3 on every face, so the order-3 Gauss face means used at
    initialization are exact and the projected initial velocity is
    divergence-free to roundoff; long runs of this preset stress the
    density maximum principle and L2 contraction at full precision.

Forcing callables return per-direction arrays of point values at face
centers for the requested time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import sympy as sym

from .grid import MacMesh


@dataclass
class ProblemSetup:
    """Initial data, forcing, and reference solution of one flow problem."""

    name: str
    dim: int
    domain: tuple
    rho0: Callable
    u0: Sequence[Callable]
    forcing: Callable | None = None
    rho_exact: Callable | None = None   # rho_exact(t) -> callable(x, y)
    u_exact: Callable | None = None     # u_exact(t) -> list of callables
    p_exact: Callable | None = None
    rho_bounds: tuple[float, float] | None = None


def _constant(value):
    def fn(*coords):
        return np.full_like(np.asarray(coords[0], dtype=float), value)
    return fn


def _wrap_space_time(fn, tv):
    def wrapped(*coords):
        out = fn(*coords, tv)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.asarray(coords[0]).shape).copy()
    return wrapped


def manufactured_forcing(space_symbols, time_symbol, rho_expr, u_exprs,
                         p_expr):
    """Momentum source that makes the given symbolic fields an exact
    solution: time derivative of momentum plus conservative convection
    minus the Laplacian plus the pressure gradient, sampled at face
    centers at the requested time.

    The density expression must satisfy the continuous transport equation
    for the velocity expressions (the scheme has no mass source to absorb
    a mismatch); this is checked symbolically.
    """
    dim = len(u_exprs)
    transport = sym.diff(rho_expr, time_symbol)
    for j in range(dim):
        transport += sym.diff(rho_expr * u_exprs[j], space_symbols[j])
    if sym.simplify(transport) != 0:
        raise ValueError(
            "density expression does not satisfy the transport equation "
            "for the given velocity")

    f_exprs = []
    for i in range(dim):
        expr = sym.diff(rho_expr * u_exprs[i], time_symbol)
        for j in range(dim):
            expr += sym.diff(rho_expr * u_exprs[j] * u_exprs[i],
                             space_symbols[j])
            expr -= sym.diff(u_exprs[i], space_symbols[j], 2)
        expr += sym.diff(p_expr, space_symbols[i])
        f_exprs.append(expr)

    args = tuple(space_symbols) + (time_symbol,)
    f_fns = [sym.lambdify(args, fi, modules="numpy") for fi in f_exprs]

    def forcing(mesh: MacMesh, tv: float):
        out = []
        for i in range(dim):
            c = mesh.faces[i].center
            coords = [c[:, j] for j in range(dim)]
            vals = f_fns[i](*coords, tv)
            out.append(np.broadcast_to(np.asarray(vals, dtype=float),
                                       (mesh.faces[i].count,)).copy())
        return out

    return forcing


def make_rest(dim: int = 2, density: float = 1.0) -> ProblemSetup:
    """Fluid at rest in the unit box of ``dim`` (2 or 3) directions."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim!r}")
    domain = tuple((0.0, 1.0) for _ in range(dim))
    return ProblemSetup(
        name="rest", dim=dim, domain=domain,
        rho0=_constant(density),
        u0=[_constant(0.0) for _ in range(dim)],
        forcing=None,
        rho_exact=lambda t: _constant(density),
        u_exact=lambda t: [_constant(0.0) for _ in range(dim)],
        p_exact=lambda t: _constant(0.0),
        rho_bounds=(density, density))


def _setup_from_symbolic(name, rho, u_exprs, p, x, y, t, rho_bounds):
    """Package symbolic exact fields into a ProblemSetup."""
    forcing = manufactured_forcing((x, y), t, rho, u_exprs, p)

    rho_t = sym.lambdify((x, y, t), rho, modules="numpy")
    u_fns = [sym.lambdify((x, y, t), ui, modules="numpy") for ui in u_exprs]
    p_fn = sym.lambdify((x, y, t), p, modules="numpy")

    return ProblemSetup(
        name=name, dim=2, domain=((0.0, 1.0), (0.0, 1.0)),
        rho0=_wrap_space_time(rho_t, 0.0),
        u0=[_wrap_space_time(f, 0.0) for f in u_fns],
        forcing=forcing,
        rho_exact=lambda tv: _wrap_space_time(rho_t, tv),
        u_exact=lambda tv: [_wrap_space_time(f, tv) for f in u_fns],
        p_exact=lambda tv: _wrap_space_time(p_fn, tv),
        rho_bounds=rho_bounds)


def make_gyre(amplitude: float = 0.15,
              pressure_amplitude: float = 0.1) -> ProblemSetup:
    """Smooth unsteady recirculation in the unit square.

    The velocity derives from the stream function ``A cos(2 pi t)
    (sin(pi x) sin(pi y))^2`` (divergence-free, no-slip) and the density
    ``1 + (sin(pi x) sin(pi y))^2 / 2`` is a function of the stream shape
    alone, hence constant along streamlines and exactly transported for
    every time modulation.  The momentum source is derived symbolically.
    """
    x, y, t = sym.symbols("x y t", real=True)
    s = (sym.sin(sym.pi * x) * sym.sin(sym.pi * y)) ** 2
    psi = amplitude * sym.cos(2 * sym.pi * t) * s
    u_exprs = (sym.diff(psi, y), -sym.diff(psi, x))
    rho = 1 + s / 2
    p = (pressure_amplitude * sym.cos(2 * sym.pi * t)
         * sym.cos(sym.pi * x) * sym.cos(sym.pi * y))
    return _setup_from_symbolic("gyre", rho, u_exprs, p, x, y, t,
                                rho_bounds=(1.0, 1.5))


def make_rotating_patch(strength: float = 0.5,
                        amplitude: float = 0.5,
                        width: float = 0.35) -> ProblemSetup:
    """Steady near-rigid swirl carrying a disk-shaped density blob.

    Stream function ``(strength/8) q(x)^2 q(y)^2`` with ``q(s) = 4 s
    (1 - s)``: polynomial, so the order-3 Gauss face means at
    initialization are exact and the projected velocity is discretely
    divergence-free to roundoff; near the center the swirl is a rigid
    rotation with angular velocity ``strength`` to leading order.  The
    density ``1 + amplitude * exp(-((q(x) q(y))^2 - 1)^2 / width^2)`` is
    constant along streamlines: a centered disk that the flow spins in
    place, exactly transported.  Zero exact pressure; the momentum source
    balancing convection and viscosity is derived symbolically.
    """
    x, y, t = sym.symbols("x y t", real=True)
    qx = 4 * x * (1 - x)
    qy = 4 * y * (1 - y)
    shape = (qx * qy) ** 2
    psi = sym.Rational(1, 8) * strength * shape
    u_exprs = (sym.diff(psi, y), -sym.diff(psi, x))
    rho = 1 + amplitude * sym.exp(-((shape - 1) / width) ** 2)
    p = sym.Integer(0)
    setup = _setup_from_symbolic("rotating-patch", rho, u_exprs, p, x, y, t,
                                 rho_bounds=(1.0, 1.0 + amplitude))
    return setup


_REGISTRY = {
    "rest": make_rest,
    "gyre": make_gyre,
    "rotating-patch": make_rotating_patch,
}


def available_presets():
    return sorted(_REGISTRY)


def get_preset(name: str, **kwargs) -> ProblemSetup:
    """Look up a preset by name; keyword arguments reach its factory.

    A non-finite numeric parameter raises ``ValueError``: sympy would fold
    it away (``nan * psi`` becomes a zero velocity) rather than fail.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {available_presets()}")
    for key, value in kwargs.items():
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"parameter {key!r} must be finite, "
                             f"got {value!r}")
    return factory(**kwargs)

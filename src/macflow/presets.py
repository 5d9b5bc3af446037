"""Built-in problem setups.

Every preset bundles initial data, optional momentum forcing, and (when
known) the exact solution it was manufactured from.  Two constraints shape
the manufactured presets:

* the scheme admits no mass source, so the exact density must satisfy the
  continuous transport equation exactly;
* the walls are impervious and no-slip, so exact velocities must vanish
  on the boundary.

Both manufactured presets come from one builder, ``_stream_preset``: the
velocity ``c(t) curl S`` of a stream shape ``S`` with double-zero boundary
factors, and a density that is a function of ``S`` alone, hence constant
along streamlines and exactly transported.  The momentum source is the
non-conservative ``rho (d_t u + u . grad u) - lap u + grad p`` of
:func:`manufactured_forcing`: exact because the density passes its
symbolic transport check, and free of derivatives of the density.

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
    Steady polynomial swirl ``(strength/8) [16 x(1-x) y(1-y)]^2`` whose core
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

from .fields import sample_at_faces
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


def _vanishes(expr) -> bool:
    """Whether a symbolic expression is identically zero: first after
    expanding its products, which settles polynomial cancellations
    cheaply, and only then by the full ``simplify``."""
    return sym.expand_mul(expr) == 0 or sym.simplify(expr) == 0


def manufactured_forcing(space_symbols, time_symbol, rho_expr, u_exprs,
                         p_expr):
    """Momentum source ``rho (d_t u + u . grad u) - lap u + grad p`` that
    makes the given symbolic fields an exact solution, sampled at the face
    centers at the requested time (wall entries are zero).

    The density expression must satisfy the continuous transport equation
    ``d_t rho + div(rho u) = 0`` for the velocity expressions; this is
    checked symbolically.  The source is exact because of that check:
    the scheme's conservative terms ``d_t(rho u) + div(rho u (x) u)`` equal
    ``rho (d_t u + u . grad u)`` plus ``u`` times the transport residual.
    """
    dim = len(u_exprs)
    transport = sym.diff(rho_expr, time_symbol)
    for j in range(dim):
        transport += sym.diff(rho_expr * u_exprs[j], space_symbols[j])
    if not _vanishes(transport):
        raise ValueError(
            "density expression does not satisfy the transport equation "
            "for the given velocity")

    f_exprs = []
    for i in range(dim):
        accel = sym.diff(u_exprs[i], time_symbol)
        expr = sym.diff(p_expr, space_symbols[i])
        for j in range(dim):
            accel += u_exprs[j] * sym.diff(u_exprs[i], space_symbols[j])
            expr -= sym.diff(u_exprs[i], space_symbols[j], 2)
        f_exprs.append(rho_expr * accel + expr)

    args = tuple(space_symbols) + (time_symbol,)
    f_fns = [sym.lambdify(args, fi, modules="numpy") for fi in f_exprs]

    def forcing(mesh: MacMesh, tv: float):
        return sample_at_faces(
            mesh, [_wrap_space_time(f, tv) for f in f_fns]).components

    return forcing


def make_rest(dim: int = 2, density: float = 1.0) -> ProblemSetup:
    """Fluid at rest in the unit box of ``dim`` (2 or 3) directions."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim!r}")
    if density <= 0:
        raise ValueError(f"density must be positive, got {density!r}")
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


def _stream_preset(name, shape, modulation, density, pressure, rho_bounds):
    """Exact solution in the unit square: with ``S = shape(x, y)``, the
    velocity ``modulation(t) * (dS/dy, -dS/dx)``, the density
    ``density(S)`` and the pressure ``pressure(x, y, t)``."""
    x, y, t = sym.symbols("x y t", real=True)
    s, c = shape(x, y), modulation(t)
    rho, p = density(s), pressure(x, y, t)
    u_exprs = (c * sym.diff(s, y), -c * sym.diff(s, x))
    rho_t, p_fn, *u_fns = [sym.lambdify((x, y, t), e, modules="numpy")
                           for e in (rho, p, *u_exprs)]
    return ProblemSetup(
        name=name, dim=2, domain=((0.0, 1.0), (0.0, 1.0)),
        rho0=_wrap_space_time(rho_t, 0.0),
        u0=[_wrap_space_time(f, 0.0) for f in u_fns],
        forcing=manufactured_forcing((x, y), t, rho, u_exprs, p),
        rho_exact=lambda tv: _wrap_space_time(rho_t, tv),
        u_exact=lambda tv: [_wrap_space_time(f, tv) for f in u_fns],
        p_exact=lambda tv: _wrap_space_time(p_fn, tv),
        rho_bounds=rho_bounds)


def make_gyre(amplitude: float = 0.15,
              pressure_amplitude: float = 0.1) -> ProblemSetup:
    """Smooth unsteady recirculation in the unit square: stream function
    ``amplitude cos(2 pi t) S`` with ``S = (sin(pi x) sin(pi y))^2``,
    density ``1 + S/2`` and pressure ``pressure_amplitude cos(2 pi t)
    cos(pi x) cos(pi y)``."""
    return _stream_preset(
        "gyre",
        shape=lambda x, y: (sym.sin(sym.pi * x) * sym.sin(sym.pi * y)) ** 2,
        modulation=lambda t: amplitude * sym.cos(2 * sym.pi * t),
        density=lambda s: 1 + s / 2,
        pressure=lambda x, y, t: (pressure_amplitude * sym.cos(2 * sym.pi * t)
                                  * sym.cos(sym.pi * x) * sym.cos(sym.pi * y)),
        rho_bounds=(1.0, 1.5))


def make_rotating_patch(strength: float = 0.5,
                        amplitude: float = 0.5,
                        width: float = 0.35) -> ProblemSetup:
    """Steady near-rigid swirl carrying a disk-shaped density blob.

    Stream function ``(strength/8) S`` with ``S = (q(x) q(y))^2`` and
    ``q(s) = 4 s (1 - s)``; near the center the swirl is a rigid rotation
    with angular velocity ``strength`` to leading order.  The density
    ``1 + amplitude * exp(-(S - 1)^2 / width^2)`` is a centered disk that
    the flow spins in place, heavy for ``amplitude > 0`` and light for
    ``-1 < amplitude < 0``.  Zero exact pressure.
    """
    if amplitude <= -1:
        raise ValueError(f"amplitude must be > -1 for a positive density, "
                         f"got {amplitude!r}")
    if width <= 0:
        raise ValueError(f"width must be positive, got {width!r}")
    return _stream_preset(
        "rotating-patch",
        shape=lambda x, y: (4 * x * (1 - x) * 4 * y * (1 - y)) ** 2,
        modulation=lambda t: sym.Rational(1, 8) * strength,
        density=lambda s: 1 + amplitude * sym.exp(-((s - 1) / width) ** 2),
        pressure=lambda x, y, t: sym.Integer(0),
        rho_bounds=(min(1.0, 1.0 + amplitude), max(1.0, 1.0 + amplitude)))


_REGISTRY = {
    "rest": make_rest,
    "gyre": make_gyre,
    "rotating-patch": make_rotating_patch,
}


def available_presets():
    return sorted(_REGISTRY)


def get_preset(name: str, **kwargs) -> ProblemSetup:
    """Look up a preset by name; keyword arguments reach its factory.

    A parameter that is not a finite real number (a ``bool``, a string,
    ``nan``) raises ``ValueError`` naming it: sympy would fold a ``nan``
    away (``nan * psi`` becomes a zero velocity) rather than fail.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {available_presets()}")
    for key, value in kwargs.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"parameter {key!r} must be a real number, "
                             f"got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"parameter {key!r} must be finite, "
                             f"got {value!r}")
    return factory(**kwargs)

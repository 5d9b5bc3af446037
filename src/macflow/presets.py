"""Built-in problem setups.

Every preset bundles initial data, optional momentum forcing, and (when
known) the exact solution it was manufactured from.  Two constraints shape
the manufactured presets:

* the scheme admits no mass source, so the exact density must satisfy the
  continuous transport equation exactly;
* the walls are impervious and no-slip, so exact velocities must vanish
  on the boundary.

Both manufactured presets come from one builder, ``_stream_preset``, in
closed form: a separable stream shape ``S = a(x) a(y)`` whose profile
``a`` has a double zero at both walls, the velocity ``c(t) curl S``, and a
density that is a function of ``S`` alone, hence constant along
streamlines and exactly transported.  The momentum source is the
non-conservative ``rho (d_t u + u . grad u) - lap u + grad p``, written
out from the profile's first three derivatives; it takes no derivative of
the density, and equals the scheme's conservative form because the
density is transported.  Every preset callable evaluates numpy
expressions only; the package does no symbolic algebra.

Importing sympy costs about half the time and a third of the memory of
``import macflow``, and the package never calls it.  This module still
registers ``sympy`` in ``sys.modules`` at import, with its body run only on
the first attribute access (``importlib.util.LazyLoader``), because
``perfbench/workload.py`` records ``sys.modules["sympy"].__version__``: a
run never loads it, while ``import sympy`` still reaches the one real
module.

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

import importlib.util
import inspect
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import sample_at_faces
from .grid import MacMesh


def _lazy_module(name):
    """Module ``name``, registered in ``sys.modules`` now and executed on
    its first attribute access; a module already imported is returned as
    it is, so every caller shares one module object."""
    if name in sys.modules:
        return importlib.import_module(name)
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# registered only for perfbench, which reads sys.modules["sympy"].__version__
_lazy_module("sympy")


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


def make_rest(dim: int = 2, density: float = 1.0) -> ProblemSetup:
    """Fluid at rest in the unit box of ``dim`` (2 or 3) directions."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim!r}")
    dim = int(dim)
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


def _stream_preset(name, profile, modulation, density, pressure,
                   rho_bounds):
    """Exact solution in the unit square, in closed form: the stream shape
    ``S = a(x) a(y)`` with ``profile(s, n)`` the first ``n`` of
    ``(a, a', a'', a''')`` (all four by default), the
    velocity ``c (dS/dy, -dS/dx)`` with ``modulation(t) -> (c, c')``, the
    density ``density(S)`` and the pressure with its gradient,
    ``pressure(x, y, t) -> (p, dp/dx, dp/dy)``.

    The density is transported without a check: it is a function of the
    steady ``S``, which the velocity ``c curl S`` carries along its own
    level sets.
    """
    def rho(x, y):
        return density(profile(x, 1)[0] * profile(y, 1)[0])

    def velocity(tv):
        c = modulation(tv)[0]
        return [lambda x, y: c * profile(x, 1)[0] * profile(y, 2)[1],
                lambda x, y: -c * profile(x, 2)[1] * profile(y, 1)[0]]

    def forcing(mesh: MacMesh, tv: float):
        c, dc = modulation(tv)

        # a, a1, a2, a3 profile x and b, b1, b2, b3 profile y, so that
        # S_x = a1 b, S_y = a b1, S_xx = a2 b, S_xy = a1 b1, S_yy = a b2
        def f_x(x, y):
            (a, a1, a2, a3), (b, b1, b2, b3) = profile(x), profile(y)
            s_x, s_y = a1 * b, a * b1
            accel = dc * s_y + c * c * (s_y * a1 * b1 - s_x * a * b2)
            return (density(a * b) * accel - c * (a2 * b1 + a * b3)
                    + pressure(x, y, tv)[1])

        def f_y(x, y):
            (a, a1, a2, a3), (b, b1, b2, b3) = profile(x), profile(y)
            s_x, s_y = a1 * b, a * b1
            accel = -dc * s_x + c * c * (s_x * a1 * b1 - s_y * a2 * b)
            return (density(a * b) * accel + c * (a3 * b + a1 * b2)
                    + pressure(x, y, tv)[2])

        return sample_at_faces(mesh, [f_x, f_y]).components

    return ProblemSetup(
        name=name, dim=2, domain=((0.0, 1.0), (0.0, 1.0)),
        rho0=rho, u0=velocity(0.0), forcing=forcing,
        rho_exact=lambda tv: rho, u_exact=velocity,
        p_exact=lambda tv: lambda x, y: pressure(x, y, tv)[0],
        rho_bounds=rho_bounds)


def _zero_pressure(x, y, tv):
    zero = np.zeros_like(x)
    return zero, zero, zero


def _sine_profile(s, n=4):
    """The first ``n`` of ``sin(pi s)^2`` and its derivatives
    ``pi sin(2 pi s)``, ``2 pi^2 cos(2 pi s)`` and ``-4 pi^3 sin(2 pi s)``,
    from one sine and, past the value, one cosine of ``pi s``."""
    sn = np.sin(np.pi * s)
    if n == 1:
        return (sn * sn,)
    cs = np.cos(np.pi * s)
    a1 = 2 * np.pi * sn * cs
    if n == 2:
        return sn * sn, a1
    return (sn * sn, a1, 2 * np.pi ** 2 * (cs - sn) * (cs + sn),
            -4 * np.pi ** 2 * a1)


def _quartic_profile(s, n=4):
    """The first ``n`` of ``q^2``, with ``q = 4 s (1 - s)``, and its first
    three derivatives."""
    q = 4 * s * (1 - s)
    if n == 1:
        return (q * q,)
    dq = 4 - 8 * s
    if n == 2:
        return q * q, 2 * q * dq
    return q * q, 2 * q * dq, 2 * (dq * dq - 8 * q), -48 * dq


def make_gyre(amplitude: float = 0.15,
              pressure_amplitude: float = 0.1) -> ProblemSetup:
    """Smooth unsteady recirculation in the unit square: stream function
    ``amplitude cos(2 pi t) S`` with ``S = (sin(pi x) sin(pi y))^2``,
    density ``1 + S/2`` and pressure ``pressure_amplitude cos(2 pi t)
    cos(pi x) cos(pi y)``."""
    def modulation(tv):
        return (amplitude * math.cos(2 * math.pi * tv),
                -2 * math.pi * amplitude * math.sin(2 * math.pi * tv))

    def pressure(x, y, tv):
        amp = pressure_amplitude * math.cos(2 * math.pi * tv)
        cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
        return (amp * cx * cy, -np.pi * amp * np.sin(np.pi * x) * cy,
                -np.pi * amp * cx * np.sin(np.pi * y))

    return _stream_preset(
        "gyre", profile=_sine_profile, modulation=modulation,
        density=lambda s: 1 + s / 2, pressure=pressure,
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
        "rotating-patch", profile=_quartic_profile,
        modulation=lambda tv: (strength / 8, 0.0),
        density=lambda s: 1 + amplitude * np.exp(-((s - 1) / width) ** 2),
        pressure=_zero_pressure,
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

    A keyword the preset does not take raises ``TypeError`` naming the
    parameters it accepts.  A parameter that is not a finite real number
    (a ``bool``, a string, ``nan``) raises ``ValueError`` naming it: a
    ``nan`` would otherwise flow silently into the closed-form initial data
    and forcing, and fail only later, far from its cause.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {available_presets()}")
    accepted = inspect.signature(factory).parameters
    for key, value in kwargs.items():
        if key not in accepted:
            raise TypeError(f"preset {name!r} has no parameter {key!r}; "
                            f"it accepts {', '.join(accepted)}")
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"parameter {key!r} must be a real number, "
                             f"got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"parameter {key!r} must be finite, "
                             f"got {value!r}")
    return factory(**kwargs)

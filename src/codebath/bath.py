"""Closed-form environment functions: the bath parameters and two-point correlators.

Everything here is a pure function of a :class:`BathSpec`.  The default spec
is in natural units (hbar = kB = 1, lengths and times of order one); the
hardware presets in :mod:`codebath.lifetimes` build SI-valued specs instead.
Proportionality constants that the underlying asymptotic forms leave free are
fixed to 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# SI adapter constants (CODATA values; the rounded light speed reproduces
# back-of-envelope hardware figures exactly).
HBAR_SI = 1.054571817e-34  # J s
KB_SI = 1.380649e-23       # J / K
C_LIGHT_SI = 2.9979e8      # m / s
C_LIGHT_ROUND = 3.0e8      # m / s


@dataclass(frozen=True)
class BathSpec:
    """Parameters of a gapless environment seen by the qubit lattice.

    ``z`` is the dynamical exponent of the dispersion w ~ |k|**z, ``s`` the
    spectral exponent of J(w) ~ w**s, ``lam`` the microscopic coupling
    (energy times length), ``v`` the mode velocity, ``a`` the qubit pitch,
    ``a0`` the bath short-distance cutoff, ``alpha`` the momentum exponent of
    the coupling and ``D_dim`` the bath spatial dimension.  ``tau_qec`` is
    the correction-cycle time that serves as the ultraviolet time cutoff.
    """

    z: float = 1.0
    s: float = 1.0
    lam: float = 1.0
    v: float = 1.0
    a: float = 1.0
    a0: float = 1.0
    D_dim: int = 2
    alpha: float = 0.0
    temperature: float = 0.0
    tau_qec: float = 1.0
    hbar: float = 1.0
    kB: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if name != "D_dim" and not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number")
        if self.z <= 0:
            raise ValueError("z must be positive")
        if not 0.0 < self.s <= 1.0:
            raise ValueError("s must lie in (0, 1]")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        for name in ("v", "a", "a0", "tau_qec", "hbar", "kB"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if not isinstance(self.D_dim, int) or self.D_dim < 1:
            raise ValueError("D_dim must be a positive integer")


def temporal_correlator(spec: BathSpec, t1: float, t2: float) -> float:
    """Same-site correlator lam**2 / (v * (t1 - t2))**2."""
    if t1 == t2:
        raise ValueError("coincident times: correlator is singular at t1 == t2")
    return (spec.lam / (spec.v * (t1 - t2))) ** 2


def spatial_correlator(spec: BathSpec, x1: float, x2: float) -> float:
    """Equal-time correlator lam**2 / (a0**(2(1-z)) * |x1 - x2|**(2 z))."""
    if x1 == x2:
        raise ValueError("coincident points: correlator is singular at x1 == x2")
    dx = abs(x1 - x2)
    return spec.lam**2 / (spec.a0 ** (2.0 * (1.0 - spec.z)) * dx ** (2.0 * spec.z))


def thermal_correlator(spec: BathSpec, t: float) -> float:
    """Finite-temperature correlator (w / sinh(w t))**2 with w = pi kB T / hbar.

    At T = 0 this is the analytic limit 1/t**2.  Evaluated via exponentials so
    large w*t underflows to 0 instead of overflowing sinh.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    w = math.pi * spec.kB * spec.temperature / spec.hbar
    if w == 0.0:
        return 1.0 / (t * t)
    u = w * t
    # w / sinh(u) = 2 w e^{-u} / (1 - e^{-2u})
    amp = 2.0 * w * math.exp(-u) / (-math.expm1(-2.0 * u))
    return amp * amp

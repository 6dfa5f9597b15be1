"""Closed-form environment functions: the bath parameters and the thermal correlator.

Everything here is a pure function of a :class:`BathSpec`.  The default spec
is in natural units (hbar = kB = 1, lengths and times of order one); a
config may give SI values instead, as the hardware examples do.
Proportionality constants that the underlying asymptotic forms leave free are
fixed to 1.  This leaf module also holds the regime rule and float-range helpers.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

_CRITICAL_TOL = 1e-12      # floats this close to the regime boundary count as critical
_RANGE_ERRORS = (OverflowError, ZeroDivisionError)  # a float expression leaving float range


def _exp(x: float) -> float:
    """math.exp, saturated to inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _saturated(value: float, powers) -> float:
    """prod(x ** p for x, p in ``powers``), all x >= 0, summed in logs and saturated to
    0 or inf: a closed form whose float ``value`` cannot be kept (it raised as nan, or
    an intermediate left the normal floats).  A zero base keeps a zero ``value``."""
    log = sum(p * (math.log(x) if x else -math.inf) for x, p in powers)
    if log == -math.inf and value == 0.0:
        return value
    return 0.0 if math.isnan(log) else _exp(log)


class RegimeLabel(Enum):
    """Spatial-correlation regime of the environment."""

    SHORT_RANGE = "ShortRange"
    CRITICAL = "Critical"
    LONG_RANGE = "LongRange"


def classify_regime(z, s) -> RegimeLabel:
    """Compare z against 1/(s+1) as floats: above is short range, within
    ``_CRITICAL_TOL`` of it is critical, below is long range."""
    if z <= 0:
        raise ValueError("z must be positive")
    if not 0 < s <= 1:
        raise ValueError("s must lie in (0, 1]")
    gap = z - 1.0 / (s + 1.0)  # a float for float, int or Fraction z and s
    if abs(gap) <= _CRITICAL_TOL:
        return RegimeLabel.CRITICAL
    return RegimeLabel.SHORT_RANGE if gap > 0 else RegimeLabel.LONG_RANGE


@dataclass(frozen=True)
class BathSpec:
    """Parameters of a gapless environment seen by the qubit lattice.

    ``z`` is the dynamical exponent of the dispersion w ~ |k|**z, ``s`` the
    spectral exponent of J(w) ~ w**s, ``lam`` the microscopic coupling
    (energy times length), ``v`` the mode velocity, ``a`` the qubit pitch,
    ``a0`` the bath short-distance cutoff and ``tau_qec`` the correction-cycle
    time that serves as the ultraviolet time cutoff.  The bath's exponents
    enter the formulas only as z and s, so its dimension and the coupling's
    momentum exponent are not fields.

    A bath also sets, when built, four attributes that no config names
    (``dataclasses.replace`` rebuilds them): its ``regime``; ``zeta`` = (s+1) z / 2,
    the coupling's spatial exponent, |x|**(-2 zeta); and the saturated L-independent
    bases ``lambda_bar_sq_base`` = 16 (lam tau / hbar)**2 / (a0**(2(1-zeta)) a**(2 zeta))
    and ``critical_coupling_base`` = hbar a0**(1-zeta) a**zeta / (4 tau), set in ``vars`` (frozen).
    """

    z: float = 1.0
    s: float = 1.0
    lam: float = 1.0
    v: float = 1.0
    a: float = 1.0
    a0: float = 1.0
    temperature: float = 0.0
    tau_qec: float = 1.0
    hbar: float = 1.0
    kB: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number")
        regime = classify_regime(self.z, self.s)  # refuses z <= 0 and s outside (0, 1]
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        for name in ("v", "a", "a0", "tau_qec", "hbar", "kB"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        vars(self)["zeta"] = zeta = (self.s + 1.0) / 2.0 * self.z  # exactly z at s = 1
        lam, a, a0, tau, hbar = self.lam, self.a, self.a0, self.tau_qec, self.hbar
        try:
            lb = 16.0 * (lam * tau) ** 2 / (hbar**2 * a0 ** (2.0 * (1.0 - zeta))
                                             * a ** (2.0 * zeta))
        except _RANGE_ERRORS:
            lb = math.nan
        lb = lb if 0.0 < lb < math.inf else _saturated(lb, self.lambda_bar_sq_powers(1.0))
        try:
            lam_c = hbar * a0 ** (1.0 - zeta) * a**zeta / (4.0 * tau)
        except _RANGE_ERRORS:
            lam_c = math.nan
        if not 0.0 < lam_c < math.inf:
            lam_c = _saturated(lam_c, ((hbar, 1), (a0, 1.0 - zeta), (a, zeta), (4.0 * tau, -1)))
        vars(self).update(regime=regime, lambda_bar_sq_base=lb, critical_coupling_base=lam_c)

    def lambda_bar_sq_powers(self, q: float) -> tuple:
        """The (field, power) pairs whose product is ``lambda_bar_sq_base ** q``."""
        return ((16.0, q), (self.lam, 2 * q), (self.tau_qec, 2 * q), (self.hbar, -2 * q),
                (self.a0, -2.0 * (1.0 - self.zeta) * q), (self.a, -2.0 * self.zeta * q))


def thermal_correlator(spec: BathSpec, t: float) -> float:
    """Finite-temperature correlator (w / sinh(w t))**2, w = pi kB T / hbar: the Ohmic
    (s = 1) kernel whatever ``spec.s``, which it does not read (at T = 0 it is 1/t**2,
    not the t**-(1+s) of a J(w) ~ w**s bath).  It is (f/t)**2 in u = w t for every
    t > 0, f = u / sinh u being 1 at u = 0, 0 at u = inf and 2 u e^-u / (1 - e^-2u)
    between, with e^-u in halves, one beside 1/t, so neither falls subnormal where the
    value is normal.  Where pi kB T or w leaves the normal floats, u is summed from
    the logs of its five factors.
    """
    if not t > 0:  # refuses nan too
        raise ValueError("t must be positive")
    x = math.pi * spec.kB * spec.temperature
    w = x / spec.hbar
    u = w * t
    if not (min(x, w) >= sys.float_info.min and w < math.inf):  # digits lost, or out of range
        u = _saturated(u, ((math.pi, 1), (spec.kB, 1), (spec.temperature, 1),
                           (spec.hbar, -1), (t, 1)))
    half = math.exp(-u / 2)
    ratio = 2.0 * (u * half) / -math.expm1(-2.0 * u) if 0 < u < math.inf else float(u == 0)
    g = ratio * (half / t)  # f / t, as f = ratio * half
    return g * g

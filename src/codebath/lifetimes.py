"""Closed-form lifetime and threshold formulas.

The lifetimes t_K, t_comp and t_mem are in units of the correction cycle tau_qec,
each one expression in that unit, never an absolute time divided by tau; T2 and
the Korringa rate are absolute.  Approximate relations are equalities with unit
prefactors.  The regime a bath decided sets the one L-growth g(L) of both
lambda_bar_sq and lambda_c.

A point models the antiferromagnetic (runaway) channel through the isotropic
macroscopic coupling j(L); supplying the renormalized coupling ``jz_star``
instead declares the localized (ferromagnetic) channel with its algebraic
memory decay.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .bath import BathSpec, RegimeLabel, _RANGE_ERRORS, _exp, _saturated

SATURATION_J = 1e3


def check_even_L(L) -> None:
    """Raise ValueError unless L is an even integer >= 2 (a code distance)."""
    if not isinstance(L, int) or isinstance(L, bool) or L < 2 or L % 2:
        raise ValueError("L must be an even integer >= 2")


class Phase(Enum):
    FERROMAGNETIC = "FM"
    ANTIFERROMAGNETIC = "AFM"


@dataclass(frozen=True)
class CodePoint:
    """One parameter point: code distance, error budget, bath, optional jz*."""

    L: int
    epsilon: float
    spec: BathSpec
    jz_star: float | None = None

    def __post_init__(self):
        check_even_L(self.L)
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly inside (0, 1)")
        if self.jz_star is not None and not math.isfinite(self.jz_star):
            raise ValueError("jz_star must be finite")


class LifetimeReport(NamedTuple):  # the lifetime CSV columns
    regime: RegimeLabel
    phase: Phase
    L: int
    j_L: float
    t_K_over_tau: float | None
    t_comp_over_tau: float | None
    t_mem_over_tau: float | None
    gamma_korringa: float | None
    t2_thermal: float | None
    lambda_critical: float


def _growth(spec: BathSpec, L: int) -> float:
    """g(L) in the bath's regime: 1 short range, ln L (> 0) critical, L**(1-2 zeta) long range."""
    check_even_L(L)
    if spec.regime is RegimeLabel.SHORT_RANGE:
        return 1.0
    if spec.regime is RegimeLabel.CRITICAL:
        return math.log(L)
    return L ** (1.0 - 2.0 * spec.zeta)


def lambda_bar_sq(spec: BathSpec, L: int) -> float:
    """Per-segment contraction weight of the macroscopic coupling: the bath's base * g(L)."""
    return spec.lambda_bar_sq_base * _growth(spec, L)


def critical_coupling(spec: BathSpec, L: int) -> float:
    """Coupling lam_c where the contraction weight reaches 1: the bath's base / sqrt(g(L))."""
    return spec.critical_coupling_base / math.sqrt(_growth(spec, L))


def j_of_L(spec: BathSpec, L: int) -> float:
    """Macroscopic coupling (lam/hbar v) sqrt(2L/pi) (lbar^2)^(L/4), in logs out of float range."""
    lb = lambda_bar_sq(spec, L)
    try:
        j = spec.lam / (spec.hbar * spec.v) * math.sqrt(2.0 * L / math.pi) * lb ** (L / 4.0)
    except _RANGE_ERRORS:
        j = math.nan
    return j if 0.0 < j < math.inf and lb >= 2.0**-1022 else _saturated(j, (
        (spec.lam, 1), (spec.hbar, -1), (spec.v, -1), (2.0 * L / math.pi, 0.5),
        *(((lb, L / 4.0),) if 2.0**-1022 <= lb < math.inf  # a subnormal lbar^2 lost its digits
          else ((_growth(spec, L), L / 4.0), *spec.lambda_bar_sq_powers(L / 4.0)))))


def window_power(s: float, j_L: float) -> tuple[float, float]:
    """(x, p) with t_K/tau = x**p at j_L = j(L), its form set by the bath's s: (e, 1/j_L) for
    an Ohmic bath (s = 1), (j_L, -1/(1-s)) for a sub-Ohmic one (no 1/j_L); (e, inf) at j_L <= 0."""
    if j_L <= 0:
        return math.e, math.inf
    return (math.e, 1.0 / j_L) if s == 1.0 else (j_L, -1.0 / (1.0 - s))


def t_comp_over_tau(epsilon: float, t_K: float, s: float, j_L: float) -> float:
    """The computational window eps * t_K/tau, summed in logs where it leaves float range."""
    window = epsilon * t_K
    return window if 0.0 < window < math.inf else _saturated(
        window, ((epsilon, 1), window_power(s, j_L)))


def t_mem_over_tau(epsilon: float, jz_star: float) -> float:
    """The localized memory time (1 - eps)**(-1/(2 jz*^2)), forming no jz*^2; inf at jz* = 0."""
    return _exp(-math.log1p(-epsilon) / jz_star / jz_star / 2.0) if jz_star else math.inf


def gamma_korringa(spec: BathSpec, j_L: float) -> float:
    """Korringa rate j_L^2 kB T / hbar at j_L = j(L); 0 at T = 0 (the algebraic regime)."""
    kB, T, hbar = spec.kB, spec.temperature, spec.hbar
    if T == 0.0:
        return 0.0
    gamma = j_L * j_L * (kB * T / hbar)  # cannot raise, as hbar > 0
    return gamma if 0.0 < gamma < math.inf else _saturated(
        gamma, ((abs(j_L), 2), (kB, 1), (T, 1), (hbar, -1)))


def t2_thermal(spec: BathSpec, jz_star: float | None) -> float | None:
    """T2 = hbar/(2 pi kB T jz*^2); inf at T = 0 (the algebraic regime), else None without jz*."""
    kB, T, hbar = spec.kB, spec.temperature, spec.hbar
    if T == 0.0:
        return math.inf
    if jz_star is None:
        return None
    try:
        t2 = hbar / (2.0 * math.pi * kB * T * jz_star**2)
    except _RANGE_ERRORS:
        t2 = math.nan
    return t2 if 0.0 < t2 < math.inf else _saturated(
        t2, ((hbar, 1), (2.0 * math.pi, -1), (kB, -1), (T, -1), (abs(jz_star), -2)))


def build_report(point: CodePoint) -> LifetimeReport:
    """Evaluate every applicable formula for one point and bundle the results,
    under the regime its bath decided when it was built: without jz* the runaway
    pair t_K/tau and t_comp/tau, with it the localized memory time t_mem/tau."""
    spec, L = point.spec, point.L
    j_L = j_of_L(spec, L)
    jz, localized = point.jz_star, point.jz_star is not None
    t_K = t_comp = t_mem = None
    if localized:
        t_mem = t_mem_over_tau(point.epsilon, jz)
    else:
        if spec.s == 1.0 and j_L >= SATURATION_J:
            warnings.warn("j(L) >= 1e3: perturbative early-decay inversion is untrusted here",
                          stacklevel=2)  # at the caller
        x, p = window_power(spec.s, j_L)
        try:
            t_K = _exp(p) if spec.s == 1.0 else x**p
        except OverflowError:
            t_K = math.inf
        t_comp = t_comp_over_tau(point.epsilon, t_K, spec.s, j_L)
    return LifetimeReport(
        spec.regime, Phase.FERROMAGNETIC if localized else Phase.ANTIFERROMAGNETIC, L, j_L, t_K,
        t_comp, t_mem, gamma_korringa(spec, j_L), t2_thermal(spec, jz), critical_coupling(spec, L))

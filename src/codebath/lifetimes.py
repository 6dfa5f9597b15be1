"""Closed-form lifetime and threshold formulas plus hardware presets.

All times come out in units of the correction cycle tau_qec unless the field
name says otherwise.  Approximate relations are implemented as equalities
with unit prefactors, and every report records which regime branch produced
its numbers so the three scaling regimes are never mixed.

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
from fractions import Fraction

from .bath import BathSpec, C_LIGHT_ROUND, C_LIGHT_SI, HBAR_SI, KB_SI
from .wick import RegimeLabel, _exp, _saturating, check_even_L, classify_regime, lambda_bar_sq

SATURATION_J = 1e3


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


@dataclass(frozen=True)
class ThermalRates:
    t2_thermal: float | None
    gamma_korringa: float | None


@dataclass(frozen=True)
class LifetimeReport:
    regime: RegimeLabel
    phase: Phase
    L: int
    j_L: float
    t_K_over_tau: float | None
    t_comp_over_tau: float | None
    t_mem_over_tau: float | None
    gamma_korringa: float | None
    t2_thermal: float | None
    threshold_exists: bool
    lambda_critical: float


def j_of_L(spec: BathSpec, L: int) -> float:
    """Macroscopic dimensionless coupling (lam/hbar v) sqrt(2L/pi) (lbar^2)^(L/4)."""
    lb = lambda_bar_sq(spec, L)
    return _saturating(
        lambda: spec.lam / (spec.hbar * spec.v) * math.sqrt(2.0 * L / math.pi) * lb ** (L / 4.0),
        lambda: ((spec.lam, 1), (spec.hbar, -1), (spec.v, -1), (2.0 * L / math.pi, 0.5),
                 (lb, L / 4.0)),
    )


def t_comp(point: CodePoint, j_L: float | None = None) -> float:
    """Computational window in the runaway channel, its form set by the bath's s:
    eps * tau * exp(1/j(L)) for an Ohmic bath (s = 1), the power law
    eps * tau * (1/j(L))**(1/(1-s)) for a sub-Ohmic one."""
    j = j_of_L(point.spec, point.L) if j_L is None else j_L
    s = point.spec.s
    if s == 1.0 and j >= SATURATION_J:
        warnings.warn(
            "j(L) >= 1e3: perturbative early-decay inversion is untrusted here",
            stacklevel=2,
        )
    if j <= 0:
        return math.inf
    eps, tau = point.epsilon, point.spec.tau_qec
    if s == 1.0:
        return _saturating(
            lambda: eps * tau * _exp(1.0 / j), lambda: ((eps, 1), (tau, 1), (math.e, 1.0 / j))
        )
    p = 1.0 / (1.0 - s)
    return _saturating(
        lambda: eps * tau * (1.0 / j) ** p, lambda: ((eps, 1), (tau, 1), (1.0 / j, p))
    )


def t_mem_fm(point: CodePoint) -> float:
    """Localized-channel memory time tau (1-eps)**(-1/(2 jz*^2))."""
    if point.jz_star is None:
        raise ValueError("jz_star required for the localized channel")
    jz = point.jz_star
    expo = _saturating(lambda: 1.0 / (2.0 * jz * jz), lambda: ((2.0, -1), (abs(jz), -2)))
    return point.spec.tau_qec * _exp(-expo * math.log1p(-point.epsilon))


def thermal_rates(point: CodePoint, j_L: float | None = None) -> ThermalRates:
    """T2 = hbar/(2 pi kB T jz*^2) and Korringa rate j(L)^2 kB T / hbar.

    T = 0 returns the algebraic-regime sentinel (infinite T2, zero rate).
    The T2 channel needs jz_star and is None without it.
    """
    spec = point.spec
    if spec.temperature == 0.0:
        return ThermalRates(t2_thermal=math.inf, gamma_korringa=0.0)
    j = j_of_L(spec, point.L) if j_L is None else j_L
    kB, T, hbar, jz = spec.kB, spec.temperature, spec.hbar, point.jz_star
    gamma = _saturating(
        lambda: j * j * (kB * T / hbar), lambda: ((abs(j), 2), (kB, 1), (T, 1), (hbar, -1))
    )
    t2 = None if jz is None else _saturating(
        lambda: hbar / (2.0 * math.pi * kB * T * jz**2),
        lambda: ((hbar, 1), (2.0 * math.pi, -1), (kB, -1), (T, -1), (abs(jz), -2)),
    )
    return ThermalRates(t2_thermal=t2, gamma_korringa=gamma)


def threshold_exists(z: float, s: float) -> bool:
    """True iff z > 1/(s+1), the short-range criterion."""
    return classify_regime(z, s) is RegimeLabel.SHORT_RANGE


def critical_coupling(spec: BathSpec, L: int) -> float:
    """Coupling lam_c where the contraction weight reaches 1.

    lam_c = hbar a0**(1-z) a**z / (4 tau), deflated by sqrt(ln L) at z = 1/2
    and by L**((1-2z)/2) below it; only the short-range branch is
    L-independent.
    """
    check_even_L(L)
    base = _saturating(
        lambda: spec.hbar * spec.a0 ** (1.0 - spec.z) * spec.a**spec.z / (4.0 * spec.tau_qec),
        lambda: ((spec.hbar, 1), (spec.a0, 1.0 - spec.z), (spec.a, spec.z),
                 (4.0 * spec.tau_qec, -1)),
    )
    regime = classify_regime(spec.z, 1.0)
    if regime is RegimeLabel.SHORT_RANGE:
        return base
    if regime is RegimeLabel.CRITICAL:
        return base / math.sqrt(math.log(L))
    return base / L ** ((1.0 - 2.0 * spec.z) / 2.0)


def build_report(point: CodePoint) -> LifetimeReport:
    """Evaluate every applicable formula for one point and bundle the results."""
    spec = point.spec
    regime = classify_regime(spec.z, spec.s)
    j_L = j_of_L(spec, point.L)
    lam_c = critical_coupling(spec, point.L)
    rates = thermal_rates(point, j_L=j_L)

    localized = point.jz_star is not None
    t_K = t_comp_over_tau = t_mem = None
    if localized:
        t_mem = t_mem_fm(point) / spec.tau_qec
    else:
        window = t_comp(point, j_L=j_L)
        t_K = window / point.epsilon / spec.tau_qec
        t_comp_over_tau = window / spec.tau_qec
    report = LifetimeReport(
        regime=regime,
        phase=Phase.FERROMAGNETIC if localized else Phase.ANTIFERROMAGNETIC,
        L=point.L,
        j_L=j_L,
        t_K_over_tau=t_K,
        t_comp_over_tau=t_comp_over_tau,
        t_mem_over_tau=t_mem,
        gamma_korringa=rates.gamma_korringa,
        t2_thermal=rates.t2_thermal,
        threshold_exists=regime is RegimeLabel.SHORT_RANGE,
        lambda_critical=lam_c,
    )
    for name in ("t_K_over_tau", "t_comp_over_tau", "t_mem_over_tau"):
        value = getattr(report, name)
        if value is not None and value <= 0:
            raise ValueError(f"{name} must be positive")
    return report


# --- hardware presets ------------------------------------------------------

PRESET_NAMES = ("superconducting", "neutral_atom")

_SC_L_GRID = (10, 30, 100, 300, 1000)
_SC_Z_VALUES = (1.0, 0.5, 0.3)


@dataclass(frozen=True)
class PresetReport:
    name: str
    check_values: dict[str, float]
    report: LifetimeReport | None = None
    lambda_critical_curve: tuple[tuple[float, int, float], ...] | None = None


def preset_report(name: str, L_grid: tuple[int, ...] | None = None) -> PresetReport:
    """Evaluate one of the two hardware parameter sets.

    ``neutral_atom``: 1 ms cycle, 3 um pitch, z = 1 vacuum, velocity c.  The
    light-cone site count c*tau/a and the threshold coupling g_c = 1/(4 c
    tau/a) are computed exactly with the rounded c = 3e8 m/s (both also
    reported with c = 2.9979e8).  The bundled lifetime report evaluates the
    code at the threshold coupling, L = 100, eps = 0.01.

    ``superconducting``: 1 us cycle, 1 mm pitch; critical-coupling curves
    lam_c(L) for z in (1, 0.5, 0.3) over ``L_grid``.  The bath cutoff a0 is
    unconstrained by the platform and defaults to the pitch, so only ratios
    of curve values are meaningful.
    """
    if name == "neutral_atom":
        tau = 1.0e-3
        pitch = 3.0e-6
        sites_round = Fraction(3 * 10**8) * Fraction(1, 10**3) / Fraction(3, 10**6)
        g_round = Fraction(1, 4) / sites_round
        sites_precise = C_LIGHT_SI * tau / pitch
        g_precise = 1.0 / (4.0 * sites_precise)
        spec = BathSpec(
            z=1.0,
            s=1.0,
            lam=float(g_round) * HBAR_SI * C_LIGHT_ROUND,
            v=C_LIGHT_ROUND,
            a=pitch,
            a0=pitch,
            temperature=0.0,
            tau_qec=tau,
            hbar=HBAR_SI,
            kB=KB_SI,
        )
        checks = {
            "light_cone_sites": float(sites_round),
            "g_critical": float(g_round),
            "light_cone_sites_precise_c": sites_precise,
            "g_critical_precise_c": g_precise,
            "lambda_critical_si": critical_coupling(spec, 100),
            "lambda_bar_sq_at_critical": lambda_bar_sq(spec, 100),
        }
        report = build_report(CodePoint(L=100, epsilon=0.01, spec=spec))
        return PresetReport(name=name, check_values=checks, report=report)

    if name == "superconducting":
        tau = 1.0e-6
        pitch = 1.0e-3
        grid = _SC_L_GRID if L_grid is None else tuple(L_grid)
        curve = []
        specs = {}
        for z in _SC_Z_VALUES:
            specs[z] = BathSpec(
                z=z, s=1.0, lam=1.0, v=1.0, a=pitch, a0=pitch,
                temperature=0.0, tau_qec=tau, hbar=HBAR_SI, kB=KB_SI,
            )
            for L in grid:
                curve.append((z, L, critical_coupling(specs[z], L)))
        checks = {
            "lambda_c_ratio_L100_L10_z0.5": (
                critical_coupling(specs[0.5], 100) / critical_coupling(specs[0.5], 10)
            ),
            "lambda_c_z1_L_independent": (
                critical_coupling(specs[1.0], grid[-1]) / critical_coupling(specs[1.0], grid[0])
            ),
        }
        return PresetReport(name=name, check_values=checks, lambda_critical_curve=tuple(curve))

    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")

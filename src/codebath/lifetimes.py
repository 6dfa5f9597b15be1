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
from fractions import Fraction

from .bath import BathSpec, C_LIGHT_ROUND, C_LIGHT_SI, HBAR_SI, KB_SI
from .errors import PhaseMismatchError
from .rg_flow import (
    CouplingVector,
    FlowOptions,
    Localized,
    Phase,
    _exp,
    integrate_flow,
)
from .wick import RegimeLabel, check_even_L, classify_regime, lambda_bar_sq

SATURATION_J = 1e3


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
class FmMemory:
    exact: float
    approx: float


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
    jz_star: float | None = None
    jz_star_source: str | None = None


def j_of_L(spec: BathSpec, L: int) -> float:
    """Macroscopic dimensionless coupling (lam/hbar v) sqrt(2L/pi) (lbar^2)^(L/4)."""
    check_even_L(L)
    lb = lambda_bar_sq(spec, L)
    pref = spec.lam / (spec.hbar * spec.v)
    try:
        return pref * math.sqrt(2.0 * L / math.pi) * lb ** (L / 4.0)
    except OverflowError:
        return math.inf


def t_comp_ohmic(point: CodePoint, j_L: float | None = None) -> float:
    """Computational window eps * tau * exp(1/j(L)) in the runaway channel (s = 1)."""
    if point.jz_star is not None:
        raise PhaseMismatchError("localized-channel point; use t_mem_fm")
    if point.spec.s != 1.0:
        raise ValueError("Ohmic formula needs s = 1; use t_comp_subohmic")
    j = j_of_L(point.spec, point.L) if j_L is None else j_L
    if j >= SATURATION_J:
        warnings.warn(
            "j(L) >= 1e3: perturbative early-decay inversion is untrusted here",
            stacklevel=2,
        )
    if j <= 0:
        return math.inf
    return point.epsilon * point.spec.tau_qec * _exp(1.0 / j)


def t_comp_subohmic(point: CodePoint, s: float, j_L: float | None = None) -> float:
    """Power-law window eps * tau * (1/j(L))**(1/(1-s)) for a sub-Ohmic bath."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie strictly inside (0, 1)")
    if point.jz_star is not None:
        raise PhaseMismatchError("localized-channel point; use t_mem_fm")
    j = j_of_L(point.spec, point.L) if j_L is None else j_L
    if j <= 0:
        return math.inf
    try:
        return point.epsilon * point.spec.tau_qec * (1.0 / j) ** (1.0 / (1.0 - s))
    except OverflowError:
        return math.inf


def t_mem_fm(point: CodePoint) -> FmMemory:
    """Localized-channel memory time, exact and small-budget approximation.

    exact  = tau (1-eps)**(-1/(2 jz*^2))
    approx = tau exp(eps / (2 jz*^2))
    The relative gap is eps**2/(4 jz*^2) to leading order, so it stays below
    eps whenever eps <= 2 jz*^2 (second-order Taylor bound).
    """
    if point.jz_star is None:
        raise ValueError("jz_star required for the localized channel")
    jz = point.jz_star
    if jz == 0.0:
        return FmMemory(exact=math.inf, approx=math.inf)
    tau = point.spec.tau_qec
    expo = 1.0 / (2.0 * jz * jz)
    exact = tau * _exp(-expo * math.log1p(-point.epsilon))
    approx = tau * _exp(expo * point.epsilon)
    return FmMemory(exact=exact, approx=approx)


def thermal_rates(point: CodePoint, j_L: float | None = None) -> ThermalRates:
    """T2 = hbar/(2 pi kB T jz*^2) and Korringa rate j(L)^2 kB T / hbar.

    T = 0 returns the algebraic-regime sentinel (infinite T2, zero rate).
    The T2 channel needs jz_star and is None without it.
    """
    spec = point.spec
    if spec.temperature == 0.0:
        return ThermalRates(t2_thermal=math.inf, gamma_korringa=0.0)
    kbt = spec.kB * spec.temperature / spec.hbar
    j = j_of_L(spec, point.L) if j_L is None else j_L
    gamma = j * j * kbt
    t2 = None
    if point.jz_star is not None and point.jz_star != 0.0:
        t2 = spec.hbar / (2.0 * math.pi * spec.kB * spec.temperature * point.jz_star**2)
    elif point.jz_star == 0.0:
        t2 = math.inf
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
    base = spec.hbar * spec.a0 ** (1.0 - spec.z) * spec.a**spec.z / (4.0 * spec.tau_qec)
    regime = classify_regime(spec.z, 1.0)
    if regime is RegimeLabel.SHORT_RANGE:
        return base
    if regime is RegimeLabel.CRITICAL:
        return base / math.sqrt(math.log(L))
    return base / L ** ((1.0 - 2.0 * spec.z) / 2.0)


def renormalized_fm_coupling(
    j_perp: float, jz: float, opts: FlowOptions | None = None
) -> float:
    """Terminal jz of a localized symmetric flow started at (j_perp, jz)."""
    trace = integrate_flow(CouplingVector(j_perp, j_perp, jz), opts)
    if not isinstance(trace.terminal, Localized):
        raise PhaseMismatchError("flow did not localize; not a ferromagnetic start")
    return trace.terminal.j_star.jz


def build_report(point: CodePoint, jz_star_source: str | None = None) -> LifetimeReport:
    """Evaluate every applicable formula for one point and bundle the results."""
    spec = point.spec
    regime = classify_regime(spec.z, spec.s)
    j_L = j_of_L(spec, point.L)
    lam_c = critical_coupling(spec, point.L)
    thr = threshold_exists(spec.z, spec.s)
    rates = thermal_rates(point, j_L=j_L)

    if point.jz_star is not None:
        mem = t_mem_fm(point)
        report = LifetimeReport(
            regime=regime,
            phase=Phase.FERROMAGNETIC,
            L=point.L,
            j_L=j_L,
            t_K_over_tau=None,
            t_comp_over_tau=None,
            t_mem_over_tau=mem.exact / spec.tau_qec,
            gamma_korringa=rates.gamma_korringa,
            t2_thermal=rates.t2_thermal,
            threshold_exists=thr,
            lambda_critical=lam_c,
            jz_star=point.jz_star,
            jz_star_source=jz_star_source or "user",
        )
    else:
        if spec.s == 1.0:
            t_comp = t_comp_ohmic(point, j_L=j_L)
        else:
            t_comp = t_comp_subohmic(point, spec.s, j_L=j_L)
        t_K = t_comp / point.epsilon
        report = LifetimeReport(
            regime=regime,
            phase=Phase.ANTIFERROMAGNETIC,
            L=point.L,
            j_L=j_L,
            t_K_over_tau=t_K / spec.tau_qec,
            t_comp_over_tau=t_comp / spec.tau_qec,
            t_mem_over_tau=None,
            gamma_korringa=rates.gamma_korringa,
            t2_thermal=rates.t2_thermal,
            threshold_exists=thr,
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
    spec: BathSpec
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
        return PresetReport(name=name, spec=spec, check_values=checks, report=report)

    if name == "superconducting":
        tau = 1.0e-6
        pitch = 1.0e-3
        grid = _SC_L_GRID if L_grid is None else tuple(L_grid)
        for L in grid:
            check_even_L(L)
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
        return PresetReport(
            name=name,
            spec=specs[0.5],
            check_values=checks,
            lambda_critical_curve=tuple(curve),
        )

    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")

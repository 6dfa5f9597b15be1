"""Closed-form lifetime and threshold formulas plus the neutral-atom preset.

Times are in units of the correction cycle tau_qec unless the field name says
otherwise; approximate relations are equalities with unit prefactors.  The regime
a bath decided sets the one L-growth g(L) of both lambda_bar_sq and lambda_c.

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

from .bath import BathSpec, C_LIGHT_ROUND, C_LIGHT_SI, HBAR_SI, KB_SI, RegimeLabel
from .bath import _RANGE_ERRORS, _exp, _saturated, classify_regime
from .wick import check_even_L

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


class LifetimeReport(NamedTuple):  # all fields but the last are the lifetime CSV columns
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
    threshold_exists: bool


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
    """Macroscopic dimensionless coupling (lam/hbar v) sqrt(2L/pi) (lbar^2)^(L/4)."""
    lb = lambda_bar_sq(spec, L)
    try:
        j = spec.lam / (spec.hbar * spec.v) * math.sqrt(2.0 * L / math.pi) * lb ** (L / 4.0)
    except _RANGE_ERRORS:
        j = math.nan
    return j if 0.0 < j < math.inf else _saturated(j, (
        (spec.lam, 1), (spec.hbar, -1), (spec.v, -1), (2.0 * L / math.pi, 0.5), (lb, L / 4.0)))


def _window_power(s: float, j_L: float) -> tuple[float, float]:
    """(x, p) with the computational window eps * tau * x**p, for j_L > 0."""
    return (math.e, 1.0 / j_L) if s == 1.0 else (1.0 / j_L, 1.0 / (1.0 - s))


def t_comp(point: CodePoint, j_L: float) -> float:
    """Runaway-channel computational window at j_L = j(L), its form set by the
    bath's s: eps * tau * exp(1/j_L) for an Ohmic bath (s = 1), the power law
    eps * tau * (1/j_L)**(1/(1-s)) for a sub-Ohmic one."""
    s = point.spec.s
    if s == 1.0 and j_L >= SATURATION_J:
        warnings.warn(
            "j(L) >= 1e3: perturbative early-decay inversion is untrusted here",
            stacklevel=2,
        )
    if j_L <= 0:
        return math.inf
    eps, tau = point.epsilon, point.spec.tau_qec
    x, p = _window_power(s, j_L)
    try:
        window = eps * tau * (_exp(p) if s == 1.0 else x**p)
    except _RANGE_ERRORS:
        window = math.nan
    return window if 0.0 < window < math.inf else _saturated(window, ((eps, 1), (tau, 1), (x, p)))


def t_mem_fm(point: CodePoint) -> float:
    """Localized-channel memory time tau (1-eps)**(-1/(2 jz*^2))."""
    if point.jz_star is None:
        raise ValueError("jz_star required for the localized channel")
    jz = point.jz_star
    expo = 1.0 / d if (d := 2.0 * jz * jz) else math.inf  # inf where 2 jz*^2 underflows
    return point.spec.tau_qec * _exp(-expo * math.log1p(-point.epsilon))


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


def shared_values(spec: BathSpec, L: int) -> tuple[float, float, float]:
    """(j(L), its Korringa rate, lambda_c) on one bath: the same for every epsilon and jz*."""
    j_L = j_of_L(spec, L)
    return j_L, gamma_korringa(spec, j_L), critical_coupling(spec, L)


def threshold_exists(z: float, s: float) -> bool:
    """True iff z > 1/(s+1), the short-range criterion."""
    return classify_regime(z, s) is RegimeLabel.SHORT_RANGE


def build_report(point: CodePoint, shared: tuple | None = None) -> LifetimeReport:
    """Evaluate every applicable formula for one point and bundle the results,
    under the regime its bath decided when it was built.  ``shared`` is
    ``shared_values(point.spec, point.L)``, computed here when not given."""
    spec, L = point.spec, point.L
    j_L, gamma, lam_c = shared or shared_values(spec, L)
    localized = point.jz_star is not None
    t_K = t_comp_over_tau = t_mem = None
    if localized:
        t_mem = t_mem_fm(point) / spec.tau_qec
    else:
        window = t_comp(point, j_L)
        t_K, t_comp_over_tau = window / point.epsilon / spec.tau_qec, window / spec.tau_qec
        if j_L > 0 and not (0.0 < t_K < math.inf and 0.0 < t_comp_over_tau < math.inf):
            x, p = _window_power(spec.s, j_L)  # out of float range: x**p and eps * x**p
            t_K = _saturated(t_K, ((x, p),))
            t_comp_over_tau = _saturated(t_comp_over_tau, ((point.epsilon, 1), (x, p)))
    return LifetimeReport(
        spec.regime, Phase.FERROMAGNETIC if localized else Phase.ANTIFERROMAGNETIC, L, j_L, t_K,
        t_comp_over_tau, t_mem, gamma, t2_thermal(spec, point.jz_star), lam_c,
        spec.regime is RegimeLabel.SHORT_RANGE,
    )


# --- hardware preset ---------------------------------------------------------

PRESET_NAMES = ("neutral_atom",)


@dataclass(frozen=True)
class PresetReport:
    name: str
    check_values: dict[str, float]
    report: LifetimeReport


def preset_report(name: str) -> PresetReport:
    """Evaluate the ``neutral_atom`` hardware parameter set.

    A 1 ms cycle, 3 um pitch, z = 1 vacuum and velocity c.  The light-cone
    site count c*tau/a and the threshold coupling g_c = 1/(4 c tau/a) are
    computed exactly with the rounded c = 3e8 m/s (both also reported with
    c = 2.9979e8).  The bundled lifetime report evaluates the code at the
    threshold coupling, L = 100, eps = 0.01.  Other platforms' critical
    couplings, over any grid of even L, are a ``lifetime`` sweep's column.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    tau = 1.0e-3
    pitch = 3.0e-6
    sites_round = 3 * 10**8 * 10**6 // (10**3 * 3)  # c tau / a, exactly 10**11
    g_round = 1 / (4 * sites_round)  # int / int rounds once
    sites_precise = C_LIGHT_SI * tau / pitch
    g_precise = 1.0 / (4.0 * sites_precise)
    spec = BathSpec(
        z=1.0,
        s=1.0,
        lam=g_round * HBAR_SI * C_LIGHT_ROUND,
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
        "g_critical": g_round,
        "light_cone_sites_precise_c": sites_precise,
        "g_critical_precise_c": g_precise,
        "lambda_critical_si": critical_coupling(spec, 100),
        "lambda_bar_sq_at_critical": lambda_bar_sq(spec, 100),
    }
    report = build_report(CodePoint(L=100, epsilon=0.01, spec=spec))
    return PresetReport(name=name, check_values=checks, report=report)

"""One-loop flow of the anisotropic impurity couplings.

dj_x/dl = j_y j_z,  dj_y/dl = j_x j_z,  dj_z/dl = j_x j_y.

Integration is adaptive (embedded Runge-Kutta via scipy) and stops at one of
three terminals: a coupling reaching the strong-coupling ceiling, the
transverse pair dying below the localization floor and staying there for a
dwell interval, or the scale cutoff.  Because the one-loop equations blow up
in finite scale, the strong-coupling scale is reported with the isotropic
pole correction l_star = l_stop + 1/j_max (1/max|j| where RK45 fails short
of a very high ceiling), which makes it insensitive to the choice of ceiling.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp

from .bath import BathSpec
from .errors import PhaseMismatchError, ResourceLimitError

DWELL_INTERVAL = 1.0   # scale window the transverse pair must stay below j_min
_MAX_SEGMENTS = 1000
_EXP_ARG_MAX = 709.0
_J_LIMIT = math.sqrt(sys.float_info.max)  # couplings whose squares stay finite


def _exp(x: float) -> float:
    return math.inf if x > _EXP_ARG_MAX else math.exp(x)


def _saturating(value, powers) -> float:
    """``value()``, a float expression for prod(x ** p for x, p in ``powers()``),
    all x >= 0; where it leaves float range (raises, or gives nan from inf * 0)
    the product is summed in logs and saturates to 0 or inf (0 if x = 0, p > 0)."""
    try:
        result = value()
    except (OverflowError, ZeroDivisionError):
        result = math.nan
    if result == result:  # not nan
        return result
    log = sum(p * (math.log(x) if x else -math.inf) for x, p in powers())
    return 0.0 if math.isnan(log) else _exp(log)


class Phase(Enum):
    FERROMAGNETIC = "FM"
    ANTIFERROMAGNETIC = "AFM"


@dataclass(frozen=True)
class CouplingVector:
    jx: float
    jy: float
    jz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.jx, self.jy, self.jz], dtype=float)


@dataclass(frozen=True)
class FlowOptions:
    j_max: float = 1.0
    j_min: float = 1e-8
    l_max: float = 100.0
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    sample_stride: int = 1

    def __post_init__(self):
        if not 0 < self.j_min < self.j_max < _J_LIMIT:
            raise ValueError(f"need 0 < j_min < j_max < {_J_LIMIT:.3g}")
        if self.l_max <= 0:
            raise ValueError("l_max must be positive")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass(frozen=True)
class StrongCoupling:
    l_star: float


@dataclass(frozen=True)
class Localized:
    j_star: CouplingVector


@dataclass(frozen=True)
class CutoffReached:
    l_max: float


Terminal = StrongCoupling | Localized | CutoffReached


@dataclass(frozen=True)
class FlowTrace:
    samples: tuple[tuple[float, CouplingVector], ...]
    terminal: Terminal
    invariant_drift: float


def flow_rhs(j: CouplingVector) -> CouplingVector:
    return CouplingVector(j.jy * j.jz, j.jx * j.jz, j.jx * j.jy)


def constants_of_motion(j: CouplingVector) -> tuple[float, float]:
    """(jx**2 - jy**2, jz**2 - jx**2), exactly conserved by the flow."""
    return (j.jx**2 - j.jy**2, j.jz**2 - j.jx**2)


def _rhs(l, y):
    return (y[1] * y[2], y[0] * y[2], y[0] * y[1])


def check_start(j0: CouplingVector) -> None:
    """Raise ValueError unless every start coupling has a finite square."""
    if not np.all(np.abs(j0.as_array()) < _J_LIMIT):
        raise ValueError(f"initial couplings must be finite, below {_J_LIMIT:.3g} in size")


def integrate_flow(j0: CouplingVector, opts: FlowOptions | None = None) -> FlowTrace:
    """Integrate from j0 until a terminal condition (see module docstring).

    The invariant drift recorded on the trace is the worst excursion of the
    two constants of motion over every accepted step; with the default
    tolerances it stays below 100 * abs_tol.
    """
    opts = opts or FlowOptions()
    check_start(j0)
    y = j0.as_array()

    def ceiling(l, y):
        return max(abs(y[0]), abs(y[1]), abs(y[2])) - opts.j_max

    ceiling.terminal = True
    ceiling.direction = 1.0

    def transverse(l, y):
        return max(abs(y[0]), abs(y[1])) - opts.j_min

    transverse.terminal = True

    ls: list[float] = [0.0]
    ys: list[np.ndarray] = [y.copy()]
    l = 0.0
    terminal: Terminal | None = None

    def absorb(sol) -> None:
        for k in range(sol.t.size):
            if sol.t[k] > ls[-1]:
                ls.append(float(sol.t[k]))
                ys.append(sol.y[:, k].copy())

    if max(abs(y[0]), abs(y[1]), abs(y[2])) >= opts.j_max:
        terminal = StrongCoupling(l_star=1.0 / opts.j_max)
    else:
        dwell_since = 0.0 if max(abs(y[0]), abs(y[1])) < opts.j_min else None
        for _ in range(_MAX_SEGMENTS):
            if terminal is not None or l >= opts.l_max:
                break
            # a dwell below j_min ends at its interval or when the pair rises
            # back through j_min; any other segment when the pair falls below it
            dwelling = dwell_since is not None
            transverse.direction = 1.0 if dwelling else -1.0
            target = dwell_since + DWELL_INTERVAL if dwelling else opts.l_max
            sol = solve_ivp(
                _rhs, (l, min(target, opts.l_max)), y, method="RK45",
                events=(ceiling, transverse), rtol=opts.rel_tol, atol=opts.abs_tol,
            )
            absorb(sol)
            if sol.status == -1:
                # RK45 fails just short of the pole, below a ceiling too high
                # to reach: the pole correction takes the largest |j| there
                l = float(sol.t[-1])
                terminal = StrongCoupling(l_star=l + 1.0 / float(np.abs(sol.y[:, -1]).max()))
            elif sol.t_events[0].size:
                l = float(sol.t_events[0][0])
                terminal = StrongCoupling(l_star=l + 1.0 / opts.j_max)
            elif sol.status == 1:  # the transverse event ended the segment
                l = float(sol.t_events[1][0])
                y = sol.y_events[1][0].copy()
                if dwelling and l == dwell_since:
                    # the pair rose back through j_min where it fell: it rests
                    # on j_min, never below it, and would stop every segment
                    transverse.terminal = False
                dwell_since = None if dwelling else l
            else:
                l = float(sol.t[-1])
                y = sol.y[:, -1].copy()
                if dwelling and target <= opts.l_max:
                    terminal = Localized(j_star=CouplingVector(*map(float, y)))
                # a dwell the cutoff interrupts falls through to CutoffReached
        else:
            raise ResourceLimitError("flow integration exceeded its segment budget")
    if terminal is None:
        terminal = CutoffReached(l_max=opts.l_max)

    arr = np.array(ys)
    c1 = arr[:, 0] ** 2 - arr[:, 1] ** 2
    c2 = arr[:, 2] ** 2 - arr[:, 0] ** 2
    drift = float(max(np.abs(c1 - c1[0]).max(), np.abs(c2 - c2[0]).max()))

    keep = list(range(0, len(ls), opts.sample_stride))
    if keep[-1] != len(ls) - 1:
        keep.append(len(ls) - 1)
    samples = tuple((ls[k], CouplingVector(*map(float, ys[k]))) for k in keep)
    return FlowTrace(samples=samples, terminal=terminal, invariant_drift=drift)


def classify_phase(j0: CouplingVector, opts: FlowOptions | None = None) -> Phase:
    """Ferromagnetic iff jz <= -j_perp in the symmetric model (jx = jy >= 0).

    Asymmetric input delegates to the flow terminal: Localized means
    ferromagnetic, StrongCoupling antiferromagnetic.  A flow that only
    reaches the cutoff never ran away, which we label ferromagnetic to match
    the boundary convention on the separatrix.
    """
    if j0.jx == j0.jy and j0.jx >= 0:
        return Phase.FERROMAGNETIC if j0.jz <= -j0.jx else Phase.ANTIFERROMAGNETIC
    terminal = integrate_flow(j0, opts).terminal
    if isinstance(terminal, StrongCoupling):
        return Phase.ANTIFERROMAGNETIC
    return Phase.FERROMAGNETIC


@dataclass(frozen=True)
class KondoScale:
    T_K: float
    t_K: float
    l_star: float
    T_K_analytic: float | None = None
    t_K_analytic: float | None = None


def kondo_scale(j0: CouplingVector, spec: BathSpec, opts: FlowOptions | None = None) -> KondoScale:
    """Strong-coupling scale: kB T_K = (hbar/tau) exp(-l_star), t_K = hbar/(kB T_K).

    The analytic fields carry the isotropic closed form exp(-1/j) when the
    start is isotropic; the two routes agree to within 10% for j <= 0.1.
    """
    trace = integrate_flow(j0, opts)
    if isinstance(trace.terminal, Localized):
        raise PhaseMismatchError("ferromagnetic start: no strong-coupling scale")
    if isinstance(trace.terminal, CutoffReached):
        raise ValueError("flow hit l_max before strong coupling; raise l_max")
    l_star = trace.terminal.l_star
    uv = spec.hbar / (spec.kB * spec.tau_qec)
    T_K = uv * math.exp(-l_star)
    t_K = spec.tau_qec * _exp(l_star)
    T_K_a = t_K_a = None
    if j0.jx == j0.jy == j0.jz and j0.jz > 0:
        T_K_a = uv * math.exp(-1.0 / j0.jz)
        t_K_a = spec.tau_qec * _exp(1.0 / j0.jz)
    return KondoScale(T_K=T_K, t_K=t_K, l_star=l_star, T_K_analytic=T_K_a, t_K_analytic=t_K_a)


@dataclass(frozen=True)
class SubohmicFlow:
    """Closed-form relevant flow j(l) = j0 exp((1-s) l) for s < 1."""

    j0: float
    s: float
    l_star: float

    def j_of_l(self, l: float) -> float:
        return self.j0 * _exp((1.0 - self.s) * l)


def subohmic_flow(j0: float, s: float) -> SubohmicFlow:
    """Relevant flow of a sub-Ohmic coupling; l_star is where j reaches 1."""
    if not 0.0 < s < 1.0:
        if s >= 1.0:
            raise ValueError("s >= 1 is the marginal case: use the Ohmic flow")
        raise ValueError("s must lie in (0, 1)")
    if j0 <= 0:
        raise ValueError("j0 must be positive")
    l_star = math.log(1.0 / j0) / (1.0 - s)
    return SubohmicFlow(j0=j0, s=s, l_star=l_star)


def thermal_cutoff(spec: BathSpec) -> float:
    """RG scale ln(t_th / tau) of the thermal time t_th = hbar/(pi kB T).

    Returns infinity at T = 0.  Flows at T > 0 should be truncated at
    min(l_max, l_th); see :func:`apply_thermal_cutoff`.
    """
    if spec.temperature == 0:
        return math.inf
    t_th = spec.hbar / (math.pi * spec.kB * spec.temperature)
    return math.log(t_th / spec.tau_qec)


def apply_thermal_cutoff(opts: FlowOptions, spec: BathSpec) -> FlowOptions:
    """Clamp l_max to the thermal cutoff scale when T > 0."""
    l_th = thermal_cutoff(spec)
    if l_th >= opts.l_max:
        return opts
    if l_th <= 0:
        raise ValueError("thermal cutoff is at or below the UV scale; no flow window")
    return replace(opts, l_max=l_th)

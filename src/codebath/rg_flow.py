"""One-loop flow of the anisotropic impurity couplings.

dj_x/dl = j_y j_z,  dj_y/dl = j_x j_z,  dj_z/dl = j_x j_y.

Integration is adaptive (embedded Runge-Kutta via scipy) and stops at one of
three terminals: a coupling reaching the strong-coupling ceiling, the
transverse pair dying below the localization floor and staying there for a
dwell interval, or the scale cutoff.  Because the one-loop equations blow up
in finite scale, the strong-coupling scale is reported with the isotropic
pole correction l_star = l_stop + 1/j_max (1/max|j| where RK45 fails short
of a very high ceiling), which makes it insensitive to the choice of ceiling.

scipy and numpy (about 0.8 s to import) load on the first integration, not with
this module, so the closed-form tasks never pay for them.  ``solve_ivp`` is
then bound in this module, where ``rg_flow.solve_ivp`` also resolves it
before any flow has run; a binding set earlier, such as a wrapper, is kept.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import ResourceLimitError

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
            raise ValueError(f"need 0 < j_min < j_max < {_J_LIMIT!r}")
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


def constants_of_motion(j: CouplingVector) -> tuple[float, float]:
    """(jx**2 - jy**2, jz**2 - jx**2), exactly conserved by the flow."""
    return (j.jx**2 - j.jy**2, j.jz**2 - j.jx**2)


def flow_rhs(l, y):
    """(dj_x/dl, dj_y/dl, dj_z/dl) at couplings y = (jx, jy, jz)."""
    return (y[1] * y[2], y[0] * y[2], y[0] * y[1])


def _solver():
    """The module's ``solve_ivp`` binding, scipy's unless one is already set."""
    if "solve_ivp" not in globals():
        from scipy.integrate import solve_ivp

        globals()["solve_ivp"] = solve_ivp
    return globals()["solve_ivp"]


def __getattr__(name: str):
    if name == "solve_ivp":
        return _solver()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def check_start(j0: CouplingVector) -> None:
    """Raise ValueError unless every start coupling has a finite square."""
    if not all(abs(v) < _J_LIMIT for v in (j0.jx, j0.jy, j0.jz)):
        raise ValueError(f"initial couplings must be finite, below {_J_LIMIT!r} in size")


def integrate_flow(j0: CouplingVector, opts: FlowOptions | None = None) -> FlowTrace:
    """Integrate from j0 until a terminal condition (see module docstring).

    The invariant drift recorded on the trace is the worst excursion of the
    two constants of motion over every accepted step; with the default
    tolerances it stays below 100 * abs_tol.
    """
    import numpy as np

    opts = opts or FlowOptions()
    check_start(j0)
    solve_ivp = _solver()
    y = np.array([j0.jx, j0.jy, j0.jz], dtype=float)

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
                flow_rhs, (l, min(target, opts.l_max)), y, method="RK45",
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


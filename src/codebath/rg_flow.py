"""One-loop flow of the anisotropic impurity couplings.

dj_x/dl = j_y j_z,  dj_y/dl = j_x j_z,  dj_z/dl = j_x j_y.

A symmetric start (jx = jy) flows in closed form (``symmetric_flow``, which
traces it in ``phase_diagram`` and ``flow``), any other by RK45
(``integrate_flow``: scipy's Dormand-Prince 5(4) pair, as ``solve_ivp`` on
float tuples), the closed form's test oracle.  A flow stops at
a coupling reaching the strong-coupling ceiling, at the transverse pair dying
below the localization floor for a dwell interval, or at the scale cutoff.
Because the one-loop equations blow up in finite scale, the strong-coupling
scale is reported with the isotropic pole correction l_star = l_stop + 1/j_max
(1/max|j| where RK45's step size falls below its floor short of a very high
ceiling), which makes it insensitive to the choice of ceiling.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul as _mul
from typing import NamedTuple

from .errors import ResourceLimitError

DWELL_INTERVAL = 1.0   # scale window the transverse pair must stay below j_min
PORTRAIT_SAMPLES = 65  # samples of a symmetric portrait or flow trace, evenly spaced in l
_MAX_SEGMENTS = 1000
_J_LIMIT = math.sqrt(sys.float_info.max)  # couplings whose squares stay finite
_RTOL_MIN = 100 * sys.float_info.epsilon  # scipy's RK45 floor, kept by solve_ivp


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

    def __post_init__(self):
        if not 0 < self.j_min < self.j_max < _J_LIMIT:
            raise ValueError(f"need 0 < j_min < j_max < {_J_LIMIT!r}")
        # NaN passes every comparison below, and a NaN rel_tol never ends a flow
        if not all(map(math.isfinite, (self.l_max, self.abs_tol, self.rel_tol))):
            raise ValueError("l_max, abs_tol and rel_tol must be finite")
        if self.l_max <= 0:
            raise ValueError("l_max must be positive")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.rel_tol < _RTOL_MIN:
            raise ValueError(f"rel_tol must be >= {_RTOL_MIN!r} (100 float epsilons)")


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


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 19 (1980)) as scipy's RK45
# writes it: stage nodes _Ci (_C6 = _C7 = 1) and rows _Aij, the last row being
# the 5th-order solution whose derivative starts the next step (FSAL), the
# error weights _Ej over all seven stages and the quartic dense output of
# Shampine (Math. Comp. 46, 135 (1986)), stored by power of the step fraction.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A72, _A73, _A74, _A75, _A76 = 35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E2, _E3, _E4 = -71 / 57600, 0, 71 / 16695, -71 / 1920
_E5, _E6, _E7 = 17253 / 339200, -22 / 525, 1 / 40
_P = tuple(zip(
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
))
_EPS = sys.float_info.epsilon
_POSITIVE = (0.0).__lt__  # x -> 0.0 < x, which is False for NaN


class OdeResult(NamedTuple):  # not a dataclass, which costs 1.5 ms at import
    """What ``solve_ivp`` returns: accepted points, status (0 end of span, 1
    terminal event, -1 step below 10 ulp of t) and event roots per event."""

    t: list[float]
    y: list[tuple[float, float, float]]
    status: int
    t_events: list[list[float]]
    y_events: list[list[tuple[float, float, float]]]
    nfev: int


def _rms(v) -> float:
    return math.sqrt(sum(x * x for x in v)) / len(v) ** 0.5


def _bisect(f, a: float, b: float) -> float:
    """A root of f in [a, b], where f changes sign, to scipy's event tolerance
    of 4 EPS (absolute and relative)."""
    fa = f(a)
    if fa == 0:
        return a
    while b - a > 4 * _EPS * (1 + abs(b)):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0:
            return m
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b = m
    return b


def solve_ivp(fun, t_span, y0, events=(), rtol=1e-3, atol=1e-6) -> OdeResult:
    """Integrate y' = fun(t, y) forward over t_span from the float 3-tuple y0
    with scipy's RK45, step for step: Dormand-Prince 5(4) with FSAL, the
    Hairer II.4 initial step, SAFETY 0.9 with factors clamped to [0.2, 10]
    and no growth after a rejection, failure (status -1) once the step falls
    below 10 ulp of t, and rtol raised to at least 100 EPS.  An event is a
    function g(t, y) whose zero crossing, in its optional ``direction`` (sign
    of the slope, 0 for both), is looked for at each accepted step and
    located on the dense output; a ``terminal`` event ends the integration
    at its first root."""
    t, t_bound = t_span
    rtol = max(rtol, _RTOL_MIN)
    y, f = tuple(y0), fun(t, y0)
    nfev = 1
    ts, ys = [t], [y]
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    if t == t_bound:
        return OdeResult([t, t], [y, y], 0, t_events, y_events, nfev)
    directions = [getattr(event, "direction", 0) for event in events]
    terminals = [getattr(event, "terminal", False) for event in events]
    g = [event(t, y) for event in events]

    # the initial step, Hairer, Norsett & Wanner, Sec. II.4
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    f1 = fun(t + h0, tuple(v + h0 * d for v, d in zip(y, f)))
    nfev += 1
    d2 = _rms([(b - a) / s for a, b, s in zip(f, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound - t)

    status = None
    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        u0, u1, u2 = y
        a0, b0, c0 = f
        while True:
            if h_abs < min_step:
                return OdeResult(ts, ys, -1, t_events, y_events, nfev)
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            # the stages written out on each component: each sum runs left to
            # right from 0.0 and keeps the tableau's zeros, so every float is
            # the one ``sum`` over the tableau's rows gives (the test oracle)
            a1, b1, c1 = fun(t + _C2 * h, (
                u0 + (0.0 + _A21 * a0) * h,
                u1 + (0.0 + _A21 * b0) * h,
                u2 + (0.0 + _A21 * c0) * h,
            ))
            a2, b2, c2 = fun(t + _C3 * h, (
                u0 + (0.0 + _A31 * a0 + _A32 * a1) * h,
                u1 + (0.0 + _A31 * b0 + _A32 * b1) * h,
                u2 + (0.0 + _A31 * c0 + _A32 * c1) * h,
            ))
            a3, b3, c3 = fun(t + _C4 * h, (
                u0 + (0.0 + _A41 * a0 + _A42 * a1 + _A43 * a2) * h,
                u1 + (0.0 + _A41 * b0 + _A42 * b1 + _A43 * b2) * h,
                u2 + (0.0 + _A41 * c0 + _A42 * c1 + _A43 * c2) * h,
            ))
            a4, b4, c4 = fun(t + _C5 * h, (
                u0 + (0.0 + _A51 * a0 + _A52 * a1 + _A53 * a2 + _A54 * a3) * h,
                u1 + (0.0 + _A51 * b0 + _A52 * b1 + _A53 * b2 + _A54 * b3) * h,
                u2 + (0.0 + _A51 * c0 + _A52 * c1 + _A53 * c2 + _A54 * c3) * h,
            ))
            a5, b5, c5 = fun(t + h, (
                u0 + (0.0 + _A61 * a0 + _A62 * a1 + _A63 * a2 + _A64 * a3 + _A65 * a4) * h,
                u1 + (0.0 + _A61 * b0 + _A62 * b1 + _A63 * b2 + _A64 * b3 + _A65 * b4) * h,
                u2 + (0.0 + _A61 * c0 + _A62 * c1 + _A63 * c2 + _A64 * c3 + _A65 * c4) * h,
            ))
            y_new = (
                u0 + (0.0 + _A71 * a0 + _A72 * a1 + _A73 * a2 + _A74 * a3 + _A75 * a4
                      + _A76 * a5) * h,
                u1 + (0.0 + _A71 * b0 + _A72 * b1 + _A73 * b2 + _A74 * b3 + _A75 * b4
                      + _A76 * b5) * h,
                u2 + (0.0 + _A71 * c0 + _A72 * c1 + _A73 * c2 + _A74 * c3 + _A75 * c4
                      + _A76 * c5) * h,
            )
            a6, b6, c6 = f_new = fun(t + h, y_new)
            nfev += 6
            e0 = (0.0 + _E1 * a0 + _E2 * a1 + _E3 * a2 + _E4 * a3 + _E5 * a4 + _E6 * a5
                  + _E7 * a6) * h / (atol + max(abs(u0), abs(y_new[0])) * rtol)
            e1 = (0.0 + _E1 * b0 + _E2 * b1 + _E3 * b2 + _E4 * b3 + _E5 * b4 + _E6 * b5
                  + _E7 * b6) * h / (atol + max(abs(u1), abs(y_new[1])) * rtol)
            e2 = (0.0 + _E1 * c0 + _E2 * c1 + _E3 * c2 + _E4 * c3 + _E5 * c4 + _E6 * c5
                  + _E7 * c6) * h / (atol + max(abs(u2), abs(y_new[2])) * rtol)
            error_norm = math.sqrt(0.0 + e0 * e0 + e1 * e1 + e2 * e2) / 3 ** 0.5
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        t_old = t
        t, y, f = t_new, y_new, f_new
        if t == t_bound:
            status = 0
        g_new = [event(t, y) for event in events]
        # an event fires only where g touched or crossed zero, where g * g_new
        # is not positive; on most steps every product is, and none is tested
        active = [] if all(map(_POSITIVE, map(_mul, g, g_new))) else [
            i for i, (a, b, d) in enumerate(zip(g, g_new, directions))
            if (a <= 0 <= b and d >= 0) or (a >= 0 >= b and d <= 0)
        ]
        if active:
            columns = ((a0, a1, a2, a3, a4, a5, a6), (b0, b1, b2, b3, b4, b5, b6),
                       (c0, c1, c2, c3, c4, c5, c6))
            q0, q1, q2 = ([sum(map(_mul, k, row)) for row in _P] for k in columns)

            def dense(s):  # at the step's start t_old the state is (u0, u1, u2)
                x = (s - t_old) / h
                x2 = x * x
                p = (x, x2, x2 * x, x2 * x * x)
                return (u0 + sum(map(_mul, p, q0)) * h, u1 + sum(map(_mul, p, q1)) * h,
                        u2 + sum(map(_mul, p, q2)) * h)

            roots = [(_bisect(lambda s: events[i](s, dense(s)), t_old, t), i) for i in active]
            for root, i in sorted(roots):  # up to the first terminal root
                t_events[i].append(root)
                y_events[i].append(dense(root))
                if terminals[i]:
                    status, t, y = 1, root, dense(root)
                    break
        g = g_new
        ts.append(t)
        ys.append(y)
    return OdeResult(ts, ys, status, t_events, y_events, nfev)


def check_start(j0: CouplingVector) -> None:
    """Raise ValueError unless every start coupling has a finite square."""
    if not all(abs(v) < _J_LIMIT for v in (j0.jx, j0.jy, j0.jz)):
        raise ValueError(f"initial couplings must be finite, below {_J_LIMIT!r} in size")


def integrate_flow(j0: CouplingVector, opts: FlowOptions | None = None) -> FlowTrace:
    """Integrate from j0 until a terminal condition (see module docstring).

    The trace samples the start and every accepted step.  Its invariant drift
    is the worst excursion of the two constants of motion over those samples;
    with the default tolerances it stays below 100 * abs_tol.
    """
    opts = opts or FlowOptions()
    check_start(j0)
    y = (float(j0.jx), float(j0.jy), float(j0.jz))
    j_max, j_min = opts.j_max, opts.j_min

    def ceiling(l, y):
        return max(abs(y[0]), abs(y[1]), abs(y[2])) - j_max

    ceiling.terminal = True
    ceiling.direction = 1.0

    def transverse(l, y):
        return max(abs(y[0]), abs(y[1])) - j_min

    transverse.terminal = True

    ls: list[float] = [0.0]
    ys: list[tuple[float, float, float]] = [y]
    l = 0.0
    terminal: Terminal | None = None

    def absorb(sol) -> None:
        for t, v in zip(sol.t, sol.y):
            if t > ls[-1]:
                ls.append(t)
                ys.append(v)

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
                flow_rhs, (l, min(target, opts.l_max)), y,
                events=(ceiling, transverse), rtol=opts.rel_tol, atol=opts.abs_tol,
            )
            absorb(sol)
            if sol.status == -1:
                # the step fails just short of the pole, below a ceiling too
                # high to reach: the pole correction takes the largest |j| there
                l = sol.t[-1]
                terminal = StrongCoupling(l_star=l + 1.0 / max(map(abs, sol.y[-1])))
            elif sol.t_events[0]:
                l = sol.t_events[0][0]
                terminal = StrongCoupling(l_star=l + 1.0 / opts.j_max)
            elif sol.status == 1:  # the transverse event ended the segment
                l = sol.t_events[1][0]
                y = sol.y_events[1][0]
                if dwelling and l == dwell_since:
                    # the pair rose back through j_min where it fell: it rests
                    # on j_min, never below it, and would stop every segment
                    transverse.terminal = False
                dwell_since = None if dwelling else l
            else:
                l = sol.t[-1]
                y = sol.y[-1]
                if dwelling and target <= opts.l_max:
                    terminal = Localized(j_star=CouplingVector(*y))
                # a dwell the cutoff interrupts falls through to CutoffReached
        else:
            raise ResourceLimitError("flow integration exceeded its segment budget")
    if terminal is None:
        terminal = CutoffReached(l_max=opts.l_max)

    x0, y0, z0 = ys[0]
    c1, c2 = x0 * x0 - y0 * y0, z0 * z0 - x0 * x0
    drift = max(max(abs(x * x - y * y - c1), abs(z * z - x * x - c2)) for x, y, z in ys)

    samples = tuple((l, CouplingVector(*y)) for l, y in zip(ls, ys))
    return FlowTrace(samples=samples, terminal=terminal, invariant_drift=drift)


def symmetric_flow(j_perp: float, jz: float, opts: FlowOptions, ls=None):
    """The flow from (j_perp, j_perp, jz) in closed form, ended as
    ``integrate_flow`` ends it: (l, j_perp, jz) samples at the scales ``ls``
    (if none, PORTRAIT_SAMPLES evenly spaced from 0 to the terminal's scale,
    or the start alone if it is at the ceiling) and the terminal.

    c = jz**2 - j_perp**2 is conserved and djz/dl = jz**2 - c (Anderson, Yuval
    & Hamann, PRB 1, 4464 (1970)): with r = sqrt|c|, j_perp = j_perp0/w and
    jz = -w'/w for w = cos(rl) - jz0 sin(rl)/r if c < 0, 1 - jz0 l if c = 0 and
    cosh(rl) - jz0 sinh(rl)/r if c > 0, taken over cosh(rl) with jz0 - r from
    j_perp0**2, exact for a tiny pair.  Crossings invert by atanh, arctan, asinh.
    """
    p0, z0, j_max, j_min, l_max = float(j_perp), float(jz), opts.j_max, opts.j_min, opts.l_max
    check_start(CouplingVector(p0, p0, z0))
    if max(abs(p0), abs(z0)) >= j_max:
        return ((0.0, p0, z0),), StrongCoupling(l_star=1.0 / j_max)
    c, a, inf = (z0 - p0) * (z0 + p0), abs(p0), math.inf
    r = math.sqrt(abs(c))
    am = a * a / (z0 + r) if z0 > 0 else z0 - r  # jz0 - r, which c > 0 keeps off 0

    def at(l: float) -> tuple[float, float]:
        if l == 0 or not p0 or (c > 0 and not am):  # a pair too small to square stays put
            return p0, z0
        if l >= l_c:  # where the flow stops, short of its pole
            return math.copysign(top[0], p0), top[1]
        if c > 0:  # from e^-u, which underflows where cosh u would overflow
            e = math.exp(-r * l)
            sech = 2 * e / (1 + e * e)
            w = e * sech - am * math.tanh(r * l) / r
            return p0 * sech / w, (r * e * sech + am) / w
        s = math.sin(r * l) / r if r else l
        w = math.cos(r * l) - z0 * s
        return p0 / w, (z0 * math.cos(r * l) - c * s) / w

    fall = rise = l_c = inf  # |j_perp| falling and rising through j_min; the ceiling
    if p0 and c >= 0:
        ell = abs((math.asinh(r / j_min) - math.asinh(r / a)) / r if r else 1 / j_min - 1 / a)
        fall, rise = (ell, inf) if z0 < 0 else (inf, ell)
    elif p0 and r < j_min:  # c < 0: |j_perp| dips to r where jz = 0
        floor = math.sqrt((j_min - r) * (j_min + r))  # |jz| where |j_perp| = j_min
        fall, rise = (math.atan2(r * (x - z0), x * z0 - c) / r for x in (-floor, floor))
    b = math.sqrt((j_max - r) * (j_max + r))  # the other coupling where one is j_max
    top = (b, j_max) if c > 0 else (j_max, b)  # |j_perp| and jz at the ceiling
    if c > 0 and am > 0:  # runs away: atanh(r (j_max - z0) / (j_max z0 - c)) / r
        l_c = math.log1p(2 * r * (j_max - z0) / ((j_max + r) * am)) / (2 * r)
    elif p0 and (c < 0 or c == 0 < z0):  # runs away, reaching jz = b
        l_c = math.atan2(r * (b - z0), b * z0 - c) / r if r else 1 / z0 - 1 / b
    end = (0.0 if a < j_min else fall if z0 < 0 else inf) + DWELL_INTERVAL
    if end <= l_max and min(rise, l_c) > end:
        p, z = at(end)
        l_end, terminal = end, Localized(j_star=CouplingVector(p, p, z))
    elif l_c <= l_max:
        l_end, terminal = l_c, StrongCoupling(l_star=l_c + 1.0 / j_max)
    else:
        l_end, terminal = l_max, CutoffReached(l_max=l_max)
    ls = ls or [l_end * (k / (PORTRAIT_SAMPLES - 1)) for k in range(PORTRAIT_SAMPLES)]
    return tuple((l, *at(l)) for l in ls), terminal

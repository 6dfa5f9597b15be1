"""One-loop flow of the anisotropic impurity couplings.

dj_x/dl = j_y j_z,  dj_y/dl = j_x j_z,  dj_z/dl = j_x j_y.

Every square moves at one rate, d(j_i**2)/dl = 2 jx jy jz, so the scale
between two points of a flow is a difference of Carlson's R_F
(``integrate_flow``); a symmetric start (jx = jy) also flows in elementary
closed form (``symmetric_flow``, which traces it in ``phase_diagram`` and
``flow``).  A flow stops at a coupling reaching the strong-coupling ceiling,
at the transverse pair dying below the localization floor for a dwell
interval, or at the scale cutoff.  The strong-coupling scale carries the
isotropic pole correction l_star = l_stop + 1/j_max, which makes it
insensitive to the choice of ceiling.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

DWELL_INTERVAL = 1.0   # scale window the transverse pair must stay below j_min
PORTRAIT_SAMPLES = 65  # samples of a portrait or flow trace, evenly spaced in l
_J_LIMIT = math.sqrt(sys.float_info.max)  # couplings whose squares stay finite
solve_ivp = None  # nothing calls it; the benchmark's tracer still patches this name


@dataclass(frozen=True)
class CouplingVector:
    jx: float
    jy: float
    jz: float


@dataclass(frozen=True)
class FlowOptions:
    j_max: float = 1.0
    j_min: float = 1e-8
    l_max: float = 100.0  # the closed forms take no tolerance

    def __post_init__(self):
        if not 0 < self.j_min < self.j_max < _J_LIMIT:
            raise ValueError(f"need 0 < j_min < j_max < {_J_LIMIT!r}")
        if not math.isfinite(self.l_max):  # NaN passes the comparison below
            raise ValueError("l_max must be finite")
        if self.l_max <= 0:
            raise ValueError("l_max must be positive")


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


def check_start(j0: CouplingVector) -> None:
    """Raise ValueError unless every start coupling has a finite square."""
    if not all(abs(v) < _J_LIMIT for v in (j0.jx, j0.jy, j0.jz)):
        raise ValueError(f"initial couplings must be finite, below {_J_LIMIT!r} in size")


def carlson_rf(p: float, q: float, r: float) -> float:
    """R_F(p**2, q**2, r**2) = 1/2 int_0^inf dt / sqrt((t + p**2)(t + q**2)(t + r**2)), by
    duplication from the roots, so a square below float range costs no precision (Carlson,
    Numer. Algorithms 10, 13 (1995)); ln(4 hi / (lo + mid)) / hi where two lie below 1e-300
    of the third (Carlson & Gustafson 1994), so inf only at two zeros or past float range."""
    lo, mid, hi = sorted((p, q, r))
    if mid <= 1e-300 * hi:  # <=, as 1e-300 hi may underflow to 0
        return (math.log(4 * hi) - math.log(lo + mid)) / hi if mid else math.inf
    e = math.frexp(hi)[1] - 1  # R_F(c**2 x, c**2 y, c**2 z) = R_F(x, y, z) / c, c = 2**-e exact
    p, q, r = math.ldexp(p, -e), math.ldexp(q, -e), math.ldexp(r, -e)
    lam = p * (q + r) + q * r
    x, y, z = p * p, q * q, r * r
    a = a0 = (x + y + z) / 3
    dx, dy = a0 - x, a0 - y
    spread = 380 * max(abs(dx), abs(dy), abs(a0 - z))  # (3 eps / 2)**(-1/6) times it
    f = 1.0  # 4**-n after n duplications
    while True:
        x, y, z, a = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4, (a + lam) / 4
        f /= 4
        if spread * f < a:
            break
        p, q, r = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = p * (q + r) + q * r
    u, w = dx * f / a, dy * f / a  # and -u - w
    e2, e3 = u * w - (u + w) ** 2, -u * w * (u + w)
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / math.sqrt(a) / 2.0**e


def _stop(fall: float, rise: float, l_c: float, opts: FlowOptions):
    """(l_end, terminal, scales) of a flow whose transverse pair is below j_min from
    ``fall`` to ``rise`` and which reaches the ceiling at ``l_c``: it localizes at
    fall + DWELL_INTERVAL (terminal None, as the caller knows j there) if that lies
    within l_max and short of rise and l_c; else it ends at the ceiling within l_max,
    else at the cutoff.  ``scales`` are PORTRAIT_SAMPLES, evenly spaced from 0 to l_end."""
    end = fall + DWELL_INTERVAL
    if end <= opts.l_max and min(rise, l_c) > end:
        l_end, terminal = end, None
    elif l_c <= opts.l_max:
        l_end, terminal = l_c, StrongCoupling(l_star=l_c + 1.0 / opts.j_max)
    else:
        l_end, terminal = opts.l_max, CutoffReached(l_max=opts.l_max)
    return l_end, terminal, [l_end * (k / (PORTRAIT_SAMPLES - 1)) for k in range(PORTRAIT_SAMPLES)]


def integrate_flow(j0: CouplingVector, opts: FlowOptions | None = None) -> FlowTrace:
    """The flow from j0 to its terminal (see module docstring) on R_F.

    For the k of least |j|, dj_k/dl = j_i j_n keeps a sign s, v = s j_k rises along the
    flow and the squares are v**2 + r**2 (r: |j| at j_k = 0), so l(v) = R_F(at v) -
    R_F(start) while v < 0, then T - R_F(at v), with T = R_F(start), or 2 R_F(at 0) -
    R_F(start) past j_k = 0.  Terminals take |j| from their targets and the conserved
    differences, never squared.  The PORTRAIT_SAMPLES samples, evenly spaced in l, invert
    l(v) by Halley's method (exact where l is a Mobius map of v, as at the pole), or by an
    asinh where two fall to 0 together.  An inf R_F(start) holds j0 fixed (see README).
    """
    opts = opts or FlowOptions()
    check_start(j0)
    j = (float(j0.jx), float(j0.jy), float(j0.jz))
    m = [abs(x) for x in j]
    j_max, j_min, inf = opts.j_max, opts.j_min, math.inf
    if max(m) >= j_max:
        return FlowTrace(((0.0, CouplingVector(*j)),), StrongCoupling(l_star=1.0 / j_max), 0.0)
    k = m.index(min(m))
    i, n = (x for x in range(3) if x != k)
    s = math.copysign(1.0, j[i]) * math.copysign(1.0, j[n])

    def at_target(t: float, c: int) -> list[float]:  # |j| where |j_c| = t
        e = [math.sqrt(abs(m[c] - y)) * math.sqrt(m[c] + y) for y in m]  # sqrt|j_c**2 - j**2|
        return [math.sqrt(max(t - x, 0.0)) * math.sqrt(t + x) if y < m[c] else math.hypot(t, x)
                for x, y in zip(e, m)]

    r = at_target(0.0, k)
    v0, ra, rb = s * j[k], r[i], r[n]

    def at(v: float) -> tuple[float, float, float]:  # |jx|, |jy|, |jz| at v
        return math.hypot(v, r[0]), math.hypot(v, r[1]), math.hypot(v, r[2])

    fall = rise = 0.0 if max(m[0], m[1]) < j_min else inf  # below j_min from fall to rise
    g0 = carlson_rf(*at(v0))
    if g0 == inf:  # two zeros, a fixed point; or every |j| below 2.2e-307 (exact to l = 1e288)
        _, terminal, ls = _stop(fall, inf, inf, opts)
        held = CouplingVector(*j)
        return FlowTrace(tuple((l, held) for l in ls), terminal or Localized(held), 0.0)
    reach = v0 >= 0 or min(ra, rb) > 0  # the flow gets past j_k = 0
    top = (g0 if v0 >= 0 else 2 * carlson_rf(*at(0.0)) - g0) if reach else inf  # the pole

    ceiling = at_target(j_max, m.index(max(m)))
    l_c = top - carlson_rf(*ceiling) if reach else inf
    floor = at_target(j_min, 0 if m[0] >= m[1] else 1)
    if floor[k] > 0:
        g = carlson_rf(*floor)
        fall = max(g - g0, 0.0) if fall and v0 < 0 else fall
        rise = top - g if fall < inf else inf
    l_end, terminal, ls = _stop(fall, rise, l_c, opts)

    def solve(l: float, lo: float, hi: float, v: float, f: float) -> float:
        """The v in [lo, hi] at scale l, from v, where l(v) - l = f."""
        if not reach:  # |v| = rc / sinh(rc l + asinh(rc / |v0|)), or 1/(l + 1/|v0|)
            rc = max(ra, rb)
            x = rc * l + math.asinh(rc / -v0)
            return -2 * rc * math.exp(-x) / -math.expm1(-2 * x) if rc else v0 / (1 - l * v0)
        for _ in range(100):
            lo, hi = (v, hi) if f < 0 else (lo, v)
            pa, pb = math.hypot(v, ra), math.hypot(v, rb)
            step = -f * pa * pb  # Newton's, then Halley's correction where it is sound
            h = 1 - (step / pa * (v / pa) + step / pb * (v / pb)) / 2 if pa and pb else 1.0
            new = v + (step / h if h > 0.5 else step)
            if not lo <= new <= hi:
                new = lo + (hi - lo) / 2
            elif abs(new - v) <= 1e-5 * (abs(new) + min(ra, rb)):  # the error is ~ step**3
                return new
            g = carlson_rf(*at(new))
            v, f = new, (g - g0 if new < 0 else top - g) - l  # l(new) - l
        return v

    def state(v: float, q) -> CouplingVector:  # at v0 the start's exact values
        q = [math.copysign(x, y) for x, y in zip(q, j)]
        q[k] = s * v
        return CouplingVector(*q) if v != v0 else CouplingVector(*j)

    strong = isinstance(terminal, StrongCoupling)
    v_end = ceiling[k] if strong else solve(l_end, v0, ceiling[k] if reach else 0.0, v0, -l_end)
    vs = [v0]
    for l_prev, l in zip(ls, ls[1:-1]):
        vs.append(solve(l, vs[-1], v_end, vs[-1], l_prev - l))
    path = [state(v, at(v)) for v in vs] + [state(v_end, ceiling if strong else at(v_end))]
    terminal = terminal or Localized(j_star=path[-1])
    c = constants_of_motion(path[0])
    drift = max(abs(x - y) for p in path for x, y in zip(constants_of_motion(p), c))
    return FlowTrace(samples=tuple(zip(ls, path)), terminal=terminal, invariant_drift=drift)


def symmetric_flow(j_perp: float, jz: float, opts: FlowOptions):
    """The flow from (j_perp, j_perp, jz) in closed form, ended as ``integrate_flow`` ends
    it: (l, j_perp, jz) samples at PORTRAIT_SAMPLES scales evenly spaced from 0 to the
    terminal's scale (the start alone if it is at the ceiling) and the terminal.

    c = jz**2 - j_perp**2 is conserved and djz/dl = jz**2 - c (Anderson, Yuval & Hamann, PRB
    1, 4464 (1970)): with r = sqrt|c|, j_perp = j_perp0/w and jz = -w'/w for w = cos(rl) -
    jz0 sin(rl)/r if c < 0, 1 - jz0 l if c = 0 and cosh(rl) - jz0 sinh(rl)/r if c > 0, taken
    over cosh(rl) with jz0 - r from j_perp0**2, or over e^-rl from ln|j_perp0| where jz0 - r
    is below float range beside r or j_max.  Crossings invert by atanh, arctan, asinh.
    """
    p0, z0, j_max, j_min = float(j_perp), float(jz), opts.j_max, opts.j_min
    check_start(CouplingVector(p0, p0, z0))
    if max(abs(p0), abs(z0)) >= j_max:
        return ((0.0, p0, z0),), StrongCoupling(l_star=1.0 / j_max)
    c, a, inf = (z0 - p0) * (z0 + p0), abs(p0), math.inf
    r = math.sqrt(abs(c))
    am = a * a / (z0 + r) if z0 > 0 else z0 - r  # jz0 - r, which c > 0 keeps off 0
    tiny = c > 0 < z0 and am < sys.float_info.min * max(j_max, 1)  # w / cosh(rl) would underflow

    def at(l: float) -> tuple[float, float]:
        if l == 0 or not p0:
            return p0, z0
        if l >= l_c:  # where the flow stops, short of its pole
            return math.copysign(top[0], p0), top[1]
        try:
            if tiny:  # w e^(rl) = 1 - t, t = am e^(rl) sinh(rl) / r, from g = |j_perp0| e^(rl)
                g = math.exp(math.log(a) + r * l)
                t = g / (z0 + r) * (g / (2 * r)) * -math.expm1(-2 * r * l)
                return math.copysign(g, p0) / (1 - t), (r * (1 + t) + am) / (1 - t)
            if c > 0:  # from e^-u, which underflows where cosh u would overflow
                e = math.exp(-r * l)
                sech = 2 * e / (1 + e * e)
                w = e * sech - am * math.tanh(r * l) / r
                return p0 * sech / w, (r * e * sech + am) / w
            s = math.sin(r * l) / r if r else l
            w = math.cos(r * l) - z0 * s
            return p0 / w, (z0 * math.cos(r * l) - c * s) / w
        except ZeroDivisionError:  # w rounds to 0: l lies within rounding of the pole
            return math.copysign(top[0], p0), top[1]

    fall = rise = l_c = inf  # |j_perp| falling and rising through j_min; the ceiling
    if p0 and c >= 0:
        ell = abs((math.asinh(r / j_min) - math.asinh(r / a)) / r if r else 1 / j_min - 1 / a)
        fall, rise = (ell, inf) if z0 < 0 else (inf, ell)
    elif p0 and r < j_min:  # c < 0: |j_perp| dips to r where jz = 0
        floor = math.sqrt((j_min - r) * (j_min + r))  # |jz| where |j_perp| = j_min
        fall, rise = (math.atan2(r * (x - z0), x * z0 - c) / r for x in (-floor, floor))
    b = math.sqrt((j_max - r) * (j_max + r))  # the other coupling where one is j_max
    top = (b, j_max) if c > 0 else (j_max, b)  # |j_perp| and jz at the ceiling
    if c > 0 < z0 and p0:  # runs away: atanh(r (j_max - z0) / (j_max z0 - c)) / r
        q = 2 * r * (j_max - z0) / ((j_max + r) * am) if not tiny else inf  # by logs if inf:
        l_c = (math.log1p(q) if q < inf else math.log(2 * r / (j_max + r) * (j_max - z0))
               - (2 * math.log(a) - math.log(z0 + r) if tiny else math.log(am))) / (2 * r)
    elif p0 and (c < 0 or c == 0 < z0):  # runs away, reaching jz = b
        l_c = math.atan2(r * (b - z0), b * z0 - c) / r if r else 1 / z0 - 1 / b
    _, terminal, scales = _stop(0.0 if a < j_min else fall if z0 < 0 else inf, rise, l_c, opts)
    samples = tuple((l, *at(l)) for l in scales)
    _, p, z = samples[-1]  # at l_end
    return samples, terminal or Localized(j_star=CouplingVector(p, p, z))

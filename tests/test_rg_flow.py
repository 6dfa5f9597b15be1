import dataclasses
import functools
import itertools
import math
import time
from typing import Callable, NamedTuple

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from codebath.errors import ConfigError
from codebath.rg_flow import (
    DWELL_INTERVAL,
    PORTRAIT_SAMPLES,
    CouplingVector,
    CutoffReached,
    FlowOptions,
    Localized,
    StrongCoupling,
    Terminal,
    _J_LIMIT,
    carlson_rf,
    check_start,
    constants_of_motion,
    integrate_flow,
    symmetric_flow,
)
from codebath.sweeps import validate_config


def flow_rhs(l, y):
    """(dj_x/dl, dj_y/dl, dj_z/dl) at couplings y = (jx, jy, jz)."""
    return (y[1] * y[2], y[0] * y[2], y[0] * y[1])


class ScipyFlow(NamedTuple):
    samples: list[tuple[float, tuple[float, float, float]]]  # the accepted steps
    terminal: Terminal
    dense: Callable[[float], tuple[float, float, float]]  # the couplings at any l reached


@functools.cache
def scipy_flow(start: tuple[float, float, float], opts: FlowOptions,
               rtol: float = 1e-13, atol: float = 1e-22) -> ScipyFlow:
    """The flow from ``start`` by scipy's DOP853, ended as ``integrate_flow``
    ends it: the closed forms' oracle.  Within 1e-5 of a separatrix (two
    coupling magnitudes that close, but unequal) the flow lingers, and the
    oracle's error there is amplified rounding, which a higher order does not
    shrink; there it keeps RK45 (worst R_F terminal deviation measured 2.4e-10,
    against DOP853's 5.9e-10).  Segments run to ``l_max``, or to the
    end of a dwell while the transverse pair is below ``j_min``; two terminal
    events end a segment, the largest |j| rising through ``j_max`` and the
    pair crossing ``j_min`` (falling outside a dwell, rising within one).  A
    step that fails short of a ceiling too high to reach reports the pole
    with the largest |j| there in place of ``j_max``."""
    y = tuple(map(float, start))
    j_max, j_min = opts.j_max, opts.j_min
    if max(map(abs, y)) >= j_max:
        return ScipyFlow([(0.0, y)], StrongCoupling(1.0 / j_max), lambda l: y)

    def ceiling(l, y):
        return max(abs(y[0]), abs(y[1]), abs(y[2])) - j_max

    def transverse(l, y):
        return max(abs(y[0]), abs(y[1])) - j_min

    lo, mid, hi = sorted(map(abs, y))
    method = "RK45" if 0 < min(mid - lo, hi - mid) < 1e-5 * hi else "DOP853"
    ceiling.terminal, ceiling.direction, transverse.terminal = True, 1.0, True
    samples, segments, l, terminal = [(0.0, y)], [], 0.0, None
    dwell_since = 0.0 if max(abs(y[0]), abs(y[1])) < j_min else None
    for _ in range(1000):
        if terminal is not None or l >= opts.l_max:
            break
        dwelling = dwell_since is not None
        transverse.direction = 1.0 if dwelling else -1.0
        target = dwell_since + DWELL_INTERVAL if dwelling else opts.l_max
        sol = scipy.integrate.solve_ivp(
            flow_rhs, (l, min(target, opts.l_max)), y, method=method, dense_output=True,
            events=(ceiling, transverse), rtol=rtol, atol=atol,
        )
        segments.append((sol.t[0], sol.t[-1], sol.sol))
        samples += [(t, tuple(v)) for t, v in zip(sol.t, sol.y.T) if t > samples[-1][0]]
        if sol.status == -1:
            l = sol.t[-1]
            terminal = StrongCoupling(l + 1.0 / max(map(abs, sol.y[:, -1])))
        elif len(sol.t_events[0]):
            l = sol.t_events[0][0]
            terminal = StrongCoupling(l + 1.0 / j_max)
        elif sol.status == 1:  # the pair crossed j_min
            l, y = sol.t_events[1][0], tuple(sol.y_events[1][0])
            if dwelling and l == dwell_since:  # resting on j_min: it never dwells again
                transverse.terminal = False
            dwell_since = None if dwelling else l
        else:
            l, y = sol.t[-1], tuple(sol.y[:, -1])
            if dwelling and target <= opts.l_max:
                terminal = Localized(CouplingVector(*y))
    else:
        raise AssertionError("the oracle ran out of segments")

    def dense(l):  # an l within 1e-9 past the last step (the closed form's terminal) is its end
        if segments[-1][1] < l <= segments[-1][1] + 1e-9 * max(1.0, l):
            l = segments[-1][1]
        for lo, hi, f in segments:
            if lo <= l <= hi:
                return tuple(f(l))
        raise ValueError(f"l = {l} lies past the oracle's last step")

    return ScipyFlow(samples, terminal or CutoffReached(opts.l_max), dense)


def test_flow_rhs_examples():
    assert flow_rhs(0.0, (0, 0, 0)) == (0, 0, 0)
    assert flow_rhs(0.0, (0.1, 0.1, 0.1)) == pytest.approx((0.01, 0.01, 0.01))
    assert flow_rhs(3.0, (0.1, 0.1, -0.1)) == pytest.approx((-0.01, -0.01, 0.01))


@given(
    jx=st.floats(-1, 1), jy=st.floats(-1, 1), jz=st.floats(-1, 1)
)
@settings(max_examples=50, deadline=None)
def test_flow_rhs_two_sign_flip_symmetry(jx, jy, jz):
    # flipping the signs of jx and jy flips the first two components of the
    # rhs and leaves the third unchanged
    base = flow_rhs(0.0, (jx, jy, jz))
    flipped = flow_rhs(0.0, (-jx, -jy, jz))
    assert flipped == (-base[0], -base[1], base[2])


def test_constants_of_motion_examples():
    assert constants_of_motion(CouplingVector(1, 1, 1)) == (0.0, 0.0)
    c1, c2 = constants_of_motion(CouplingVector(0.1, 0.1, -0.2))
    assert c1 == pytest.approx(0.0)
    assert c2 == pytest.approx(0.03)


def test_isotropic_flow_matches_analytic_pole():
    j0 = 0.05
    trace = integrate_flow(CouplingVector(j0, j0, j0))
    assert isinstance(trace.terminal, StrongCoupling)
    assert trace.terminal.l_star == pytest.approx(1.0 / j0, rel=0.05)
    worst = 0.0
    for l, j in trace.samples:
        if l <= 0.9 / j0:
            worst = max(worst, abs(j.jx - j0 / (1 - j0 * l)))
    assert worst < 1e-6


def test_fm_terminal_matches_conserved_quantity():
    trace = integrate_flow(CouplingVector(0.05, 0.05, -0.2))
    assert isinstance(trace.terminal, Localized)
    predicted = -math.sqrt(0.2**2 - 0.05**2)
    assert predicted == pytest.approx(-0.193649, abs=1e-6)
    assert trace.terminal.j_star.jz == pytest.approx(predicted, abs=1e-4)
    assert abs(trace.terminal.j_star.jx) < 1e-7


def test_marginal_separatrix_flows_to_origin():
    trace = integrate_flow(
        CouplingVector(0.1, 0.1, -0.1), FlowOptions(l_max=1000.0)
    )
    assert isinstance(trace.terminal, CutoffReached)
    _, j_final = trace.samples[-1]
    assert max(abs(j_final.jx), abs(j_final.jy), abs(j_final.jz)) < 1e-2


def test_drift_on_random_traces_default_tolerances():
    rng = np.random.default_rng(11)
    for _ in range(25):
        j0 = CouplingVector(*rng.uniform(-0.5, 0.5, 3))
        assert integrate_flow(j0).invariant_drift < 1e-8


def test_kt_symmetry_preserved():
    trace = integrate_flow(CouplingVector(0.07, 0.07, 0.02))
    for _, j in trace.samples:
        assert abs(j.jx - j.jy) <= 1e-10


def test_afm_separatrix_monotone_growth():
    trace = integrate_flow(CouplingVector(0.1, 0.1, 0.1))
    perps = [j.jx for _, j in trace.samples]
    zs = [j.jz for _, j in trace.samples]
    assert all(b > a for a, b in zip(perps, perps[1:]))
    assert all(b > a for a, b in zip(zs, zs[1:]))


def test_phase_boundary_by_bisection():
    # localized/strong-coupling transition at jz = -j_perp for j_perp = 0.1
    opts = FlowOptions(l_max=2000.0)

    def is_strong(jz):
        terminal = integrate_flow(CouplingVector(0.1, 0.1, jz), opts).terminal
        return isinstance(terminal, StrongCoupling)

    lo, hi = -0.3, 0.1  # localized at lo, strong coupling at hi
    assert not is_strong(lo)
    assert is_strong(hi)
    while hi - lo > 2.5e-4:
        mid = 0.5 * (lo + hi)
        if is_strong(mid):
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - (-0.1)) < 1e-3


def test_samples_strictly_increasing():
    trace = integrate_flow(CouplingVector(0.2, 0.2, 0.2))
    ls = [l for l, _ in trace.samples]
    assert all(b > a for a, b in zip(ls, ls[1:]))


def test_immediate_ceiling_start():
    trace = integrate_flow(CouplingVector(1.5, 0.0, 0.0))
    assert isinstance(trace.terminal, StrongCoupling)
    assert trace.terminal.l_star == pytest.approx(1.0)


def test_axis_start_is_localized_invariant_line():
    trace = integrate_flow(CouplingVector(0.0, 0.0, 0.5))
    assert isinstance(trace.terminal, Localized)
    for _, j in trace.samples:
        assert j.jx == 0.0 and j.jy == 0.0


@pytest.mark.parametrize(
    "start,j_min",
    [((0.0625, 0.0, 0.0), 0.0625), ((0.0, 0.0625, 0.0), 0.0625), ((0.0625, 1e-200, 0.0), 0.0625),
     ((1e-8, 1e-8, 0.0), 1e-8)],
)
def test_pair_resting_on_j_min_reaches_the_cutoff(start, j_min):
    # the pair sits exactly at j_min and does not move in floating point
    # (a fixed point, or motion below rounding), so it is never below j_min
    trace = integrate_flow(CouplingVector(*start), FlowOptions(j_min=j_min))
    assert isinstance(trace.terminal, CutoffReached)
    assert trace.samples[-1][0] == 100.0


@pytest.mark.parametrize("j_max", [1e50, 1e100, 1e153])
def test_ceiling_past_where_rk45_fails_still_reports_the_pole(j_max):
    # RK45 gives up near |j| ~ 1e13, short of these ceilings; R_F does not
    start = CouplingVector(0.5, 0.5, 0.5)
    reference = integrate_flow(start, FlowOptions(j_max=1e10)).terminal.l_star
    terminal = integrate_flow(start, FlowOptions(j_max=j_max)).terminal
    assert isinstance(terminal, StrongCoupling)
    assert abs(terminal.l_star - reference) <= 1e-9
    assert terminal.l_star == pytest.approx(2.0, abs=1e-9)  # isotropic pole at 1/j0


def test_nonfinite_start_rejected():
    with pytest.raises(ValueError):
        integrate_flow(CouplingVector(math.nan, 0.0, 0.0))


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("value", [math.nan, 1.35e154, _J_LIMIT, math.inf])
@pytest.mark.parametrize("sign", [1, -1])
def test_check_start_refuses_unsquarable_couplings(slot, value, sign):
    start = [0.1, 0.1, 0.1]
    start[slot] = sign * value
    with pytest.raises(ValueError) as err:
        check_start(CouplingVector(*start))
    assert str(err.value) == (
        "initial couplings must be finite, below 1.3407807929942596e+154 in size"
    )


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("value", [math.nextafter(_J_LIMIT, 0.0), 1.34e154, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_check_start_accepts_squarable_couplings(slot, value, sign):
    start = [0, 1, -2]  # ints, as a caller may pass them
    start[slot] = sign * value
    check_start(CouplingVector(*start))
    assert math.isfinite(start[slot] ** 2)


def test_flow_options_validation():
    with pytest.raises(ValueError):
        FlowOptions(j_min=1.0, j_max=0.5)
    with pytest.raises(ValueError):
        FlowOptions(l_max=0.0)
    with pytest.raises(ValueError) as err:
        FlowOptions(j_max=_J_LIMIT)
    assert str(err.value) == "need 0 < j_min < j_max < 1.3407807929942596e+154"
    # the closed forms take no tolerance
    assert [f.name for f in dataclasses.fields(FlowOptions)] == ["j_max", "j_min", "l_max"]


@pytest.mark.parametrize("field", ["l_max", "abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_flow_options_refuse_non_finite(field, value):
    # a NaN rel_tol once reached integrate_flow, which then never finished; the
    # tolerances, which no closed form reads, are keys of the flow config alone
    if field == "l_max":
        with pytest.raises(ValueError, match="l_max must be finite"):
            FlowOptions(l_max=value)
    cfg = {"task": "flow", "axes": {"jz": [0.1]}, "params": {field: value}, "output_path": "x"}
    with pytest.raises(ConfigError, match=rf"^params\.{field}: must be a finite number$"):
        validate_config(cfg)


_TERMINAL_STARTS = [
    ((0.2, 0.05, 0.15), StrongCoupling),
    # |jx| != |jy| pins jx^2 - jy^2 away from zero, so the transverse pair can
    # never die: anisotropic-transverse starts run away even at negative jz
    ((0.05, 0.02, -0.4), StrongCoupling),
    # equal magnitudes with opposite signs map onto the symmetric localized
    # flow under the two-sign-flip symmetry
    ((0.05, -0.05, 0.2), Localized),
    # symmetric starts off the separatrix localize iff jz <= -j_perp
    *(((0.1, 0.1, jz), Localized if jz <= -0.1 else StrongCoupling)
      for jz in (-0.3, -0.15, -0.102, -0.098, 0.0, 0.1)),
]


@pytest.mark.parametrize(
    "start,terminal",
    _TERMINAL_STARTS,
    ids=[",".join(map(str, s)) + f"-{t.__name__}" for s, t in _TERMINAL_STARTS],
)
def test_flow_terminal_by_start(start, terminal):
    trace = integrate_flow(CouplingVector(*start), FlowOptions(l_max=2000.0))
    assert isinstance(trace.terminal, terminal)


_RNG = np.random.default_rng(2024)
_ORACLE_STARTS = [
    *((tuple(_RNG.uniform(-0.6, 0.6, 3)), FlowOptions()) for _ in range(120)),
    # the symmetric separatrices at the portrait ceiling
    *(((jp, jp, sign * jp), FlowOptions(j_max=4.0))
      for jp in (0.2, 0.7, 1.5, 3.0) for sign in (1, -1)),
    # the transverse pair starts below j_min: it dwells there, or rises out
    ((1e-9, 1e-9, 0.3), FlowOptions()),
    ((5e-9, 5e-9, 0.9), FlowOptions()),
    ((1e-9, -1e-9, -0.2), FlowOptions()),
    # symmetric starts that localize after a flow, not from the start
    ((0.1, 0.1, -0.3), FlowOptions()),
    ((0.05, -0.05, 0.2), FlowOptions()),
    # a ceiling past where the step size fails: the status -1 pole path
    *((start, FlowOptions(j_max=1e50))
      for start in ((0.5, 0.5, 0.5), (0.3, 0.2, 0.1), (0.05, 0.02, -0.4))),
]
_GRID_STARTS = [  # what the seeded starts above may miss
    # both separatrices off the symmetric plane: jz = -|jx| = -|jy| flows to the
    # origin, jz = |jx| = |jy| runs away; and jx = jy exactly (c1 = 0)
    *((start, FlowOptions(j_max=4.0)) for start in
      ((0.4, -0.4, 0.4), (0.4, -0.4, -0.4), (0.3, 0.3, -0.2), (-0.3, -0.3, 0.5))),
    # |c1| or |c2| near 0: the two largest or the two smallest magnitudes 1e-6 apart
    ((0.3, 0.3 * (1 + 1e-6), -0.2), FlowOptions()),
    ((0.5, -0.3, 0.3 * (1 + 1e-6)), FlowOptions(j_max=4.0)),
    ((0.2, 0.6, -0.2 * (1 - 1e-6)), FlowOptions(j_max=4.0)),
    # P = jx jy jz < 0: the smallest coupling changes sign, then the flow runs away
    ((0.4, 0.3, -0.2), FlowOptions()), ((0.3, -0.2, 0.1), FlowOptions()),
    ((-0.1, 0.4, 0.3), FlowOptions(j_max=4.0)),
    # P > 0, and P = 0 with one zero coupling (it leaves 0 and runs away) or two (fixed)
    ((0.3, 0.2, 0.1), FlowOptions()), ((0.0, 0.3, 0.2), FlowOptions()),
    ((0.3, 0.0, -0.2), FlowOptions()), ((0.2, -0.3, 0.0), FlowOptions()),
    ((0.0, 0.0, 0.3), FlowOptions()),
    # starts at or above the ceiling
    ((1.0, 0.2, 0.1), FlowOptions()), ((0.1, -4.2, 0.3), FlowOptions(j_max=4.0)),
    # a dwell below j_min, whole and cut short by l_max
    ((0.05, 0.049, -0.2), FlowOptions(j_min=0.02)),
    ((0.05, 0.049, -0.2), FlowOptions(j_min=0.02, l_max=5.5)),
    ((0.1, -0.1, -0.3), FlowOptions(l_max=57.5)),
    # a pair far below j_min beside jz: the inversion of l(v) bisects and stops at its step cap
    ((-1e-160, -1e-161, -0.05), FlowOptions()),
    # ceilings far past where the oracle's steps fail
    ((0.2, 0.3, 0.4), FlowOptions(j_max=1e100)), ((0.5, -0.1, 0.3), FlowOptions(j_max=1e153)),
]
_ORACLE_STARTS += _GRID_STARTS


@pytest.mark.parametrize("start,opts", _ORACLE_STARTS)
def test_integrate_flow_matches_scipy_rk45(start, opts):
    """R_F's terminal is the oracle's, its scale or jz* within 1e-9, and its
    samples keep both constants of motion to 1e-12 of the largest square."""
    trace, oracle = integrate_flow(CouplingVector(*start), opts), scipy_flow(start, opts)
    assert type(trace.terminal) is type(oracle.terminal)
    if isinstance(trace.terminal, StrongCoupling):
        assert abs(trace.terminal.l_star - oracle.terminal.l_star) <= 1e-9
    if isinstance(trace.terminal, Localized):
        assert abs(trace.terminal.j_star.jz - oracle.terminal.j_star.jz) <= 1e-9
    largest = max(max(abs(j.jx), abs(j.jy), abs(j.jz)) for _, j in trace.samples)
    assert trace.invariant_drift <= 1e-12 * max(1.0, largest**2)


@pytest.mark.parametrize("start,opts", _ORACLE_STARTS)
def test_integrate_flow_equals_tableau_loop(start, opts):
    """PORTRAIT_SAMPLES samples evenly spaced from the start's exact values to
    the terminal's scale, each within 1e-8 max(1, |j|) of the oracle there:
    ``scipy_flow``, a Dormand-Prince integration, at its default tolerances.
    Past a ceiling of 4 the oracle's own error grows with |j| near the pole,
    and only the samples with |j| <= 4 are held to it."""
    trace, oracle = integrate_flow(CouplingVector(*start), opts), scipy_flow(start, opts)
    ls = [l for l, _ in trace.samples]
    assert trace.samples[0] == (0.0, CouplingVector(*start))
    if max(map(abs, start)) >= opts.j_max:
        assert len(ls) == 1 and trace.terminal == StrongCoupling(1 / opts.j_max)
        return
    assert ls == [ls[-1] * k / (PORTRAIT_SAMPLES - 1) for k in range(PORTRAIT_SAMPLES)]
    for l, j in trace.samples:
        if opts.j_max > 4 and max(abs(j.jx), abs(j.jy), abs(j.jz)) > 4:
            continue
        for ours, theirs in zip((j.jx, j.jy, j.jz), oracle.dense(l)):
            assert abs(ours - theirs) <= 1e-8 * max(1.0, abs(ours))


def test_carlson_rf_matches_scipy():
    """R_F of the squares, against scipy.special.elliprf, out to the ends of
    float range; a square below float range keeps its root's precision."""
    rng = np.random.default_rng(9)
    cases = [*rng.uniform(0, 2, (50, 3)), (0.0, 1.0, 2.0), (1.0, 1.0, 1.0), (1e-5, 1e-5, 3.0),
             (1e-150, 1.0, 1.0), (1e140, 2e140, 3e140), (1.3e154, 1e154, 1e-100),
             (1e-300, 2e-300, 3e-300)]
    for p, q, r in cases:
        scale = max(p, q, r)  # elliprf takes the squares, which may fall outside float range
        want = scipy.special.elliprf(*((x / scale) ** 2 for x in (p, q, r))) / scale
        assert carlson_rf(p, q, r) == pytest.approx(want, rel=4e-15)
    # p, q << r: R_F = ln(4 r / (p + q)) / r up to O(p q / r**2), though p**2 and q**2 underflow
    assert carlson_rf(3e-160, 1e-160, 0.5) == pytest.approx(math.log(2 / 4e-160) / 0.5, rel=4e-15)
    assert carlson_rf(1.0, 1.0, 1.0) == 1.0 and carlson_rf(0.5, 0.5, 0.5) == 2.0
    assert carlson_rf(0.0, 0.0, 1.0) == carlson_rf(0.0, 5e-324, 1.0) == math.inf


def test_stiff_start_decays_to_the_cutoff_at_once():
    """jy = -jz under jx = 1e10 falls to 0 at rate 1e10, which no RK45 finished."""
    t = time.perf_counter()
    trace = integrate_flow(CouplingVector(1e10, -0.5, 0.5), FlowOptions(j_max=1e100))
    assert time.perf_counter() - t < 1.0
    assert trace.terminal == CutoffReached(100.0)
    l, last = trace.samples[-1]
    assert l == 100.0 and abs(last.jy) <= 1e-300 and abs(last.jz) <= 1e-300
    assert last.jx == 1e10


@pytest.mark.parametrize("start", [
    (-0.38535776437497304, -0.5072376078298155, -0.3853577643745877),
    (-0.7708229343372648, 0.7708229343380357, 0.8933314189981079),
    (0.846374577092984, 0.7370796286591674, -0.7370796286584304),
    (-0.167982181433749, -0.167982181433581, -0.39746543607013174),
])
def test_near_separatrix_pole_matches_quadrature(start):
    """Two magnitudes 1e-12 apart with jx jy jz < 0: the smallest coupling
    lingers near 0 for tens of scale units before it crosses.  RK45 at
    rtol 1e-13 drifts here by up to 7e-4 in l_star; a quadrature of
    dl = dj_k / (j_i j_n) over the conserved differences is the oracle."""
    m = sorted(map(abs, start))
    a, b = (m[1] - m[0]) * (m[1] + m[0]), (m[2] - m[0]) * (m[2] + m[0])
    rate = lambda v: 1 / math.sqrt((v * v + a) * (v * v + b))  # noqa: E731
    top = math.sqrt((1 - m[2]) * (1 + m[2]) + m[0] * m[0])  # |j_k| at the ceiling j_max = 1
    l_c = sum(scipy.integrate.quad(rate, lo, hi, epsabs=0, epsrel=1e-13, limit=200)[0]
              for lo, hi in ((-m[0], 0.0), (0.0, top)))
    terminal = integrate_flow(CouplingVector(*start)).terminal
    assert terminal.l_star == pytest.approx(l_c + 1.0, rel=1e-12)


@pytest.mark.parametrize("pair", [(1e-160, 2e-160), (1e-170, 1e-170), (-3e-200, 1e-250)])
def test_pair_whose_squares_underflow_still_flows(pair):
    """Under jz = 0.5 the pair's sum grows as e^(l/2) and its difference decays,
    though the squares underflow: the flow runs on the couplings' magnitudes."""
    trace = integrate_flow(CouplingVector(*pair, 0.5))
    assert isinstance(trace.terminal, Localized)  # it takes l ~ 700 to rise to j_min
    plus, minus = pair[0] + pair[1], pair[0] - pair[1]
    for l, j in trace.samples:
        assert j.jx + j.jy == pytest.approx(plus * math.exp(0.5 * l), rel=1e-12)
        assert j.jx - j.jy == pytest.approx(minus * math.exp(-0.5 * l), rel=1e-12)
        assert j.jz == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("sign", [1, -1])
def test_j_min_whose_square_underflows(sign):
    """A pair falling to 0 crosses j_min = 1e-200 near l = 920 and localizes,
    as the symmetric closed form has it, though j_min**2 underflows."""
    opts = FlowOptions(j_min=1e-200, l_max=2000.0)
    terminal = integrate_flow(CouplingVector(1e-5, sign * 1e-5, -sign * 0.5), opts).terminal
    _, symmetric = symmetric_flow(1e-5, -0.5, opts)
    assert isinstance(terminal, Localized) and isinstance(symmetric, Localized)
    assert abs(terminal.j_star.jx) == pytest.approx(symmetric.j_star.jx, rel=1e-9)
    assert abs(terminal.j_star.jz) == pytest.approx(-symmetric.j_star.jz, rel=1e-12)


@pytest.mark.parametrize("start", [(1e-305, -1e-305, 0.5), (0.0, 3e-310, -2.0), (0.0, 0.0, 0.3)])
def test_two_couplings_below_float_range_of_the_third_are_held_fixed(start):
    """Two couplings whose product with the largest underflows (below about
    1e-300 of it), or two zeros, stay at the start: every sample is the start."""
    trace = integrate_flow(CouplingVector(*start), FlowOptions(j_max=4.0))
    assert {j for _, j in trace.samples} == {CouplingVector(*start)}
    assert trace.terminal == Localized(CouplingVector(*start))


# --- the closed form on the symmetric plane, against scipy as its oracle ------

_PORTRAIT = FlowOptions(j_max=4.0)
_WIDE_FLOOR = FlowOptions(j_max=4.0, j_min=0.01, l_max=400.0)
_SYMMETRIC_STARTS = [  # (j_perp, jz), options
    # both separatrices, on which c = jz**2 - j_perp**2 is exactly 0, either sign of j_perp
    *(((jp, sign * abs(jp)), _PORTRAIT) for jp in (0.5, -0.5, 2.0) for sign in (1, -1)),
    # |c| about 1e-12 j**2 on either side of each separatrix
    *(((jp, sign * jp * (1 + eps)), _PORTRAIT)
      for jp in (0.5, 3.0) for sign in (1, -1) for eps in (1e-12, -1e-12)),
    # the origin and the invariant line j_perp = 0
    ((0.0, 0.0), _PORTRAIT), ((0.0, 0.3), _PORTRAIT), ((0.0, -0.3), _PORTRAIT),
    # negative j_perp off the separatrices
    ((-0.3, 0.1), _PORTRAIT), ((-0.1, -0.3), _PORTRAIT),
    # the pair starts below j_min: it dwells (at c > 0 or c < 0), or rises out
    # of the dwell at c > 0 and runs away, or starts just above j_min
    ((1e-9, 0.5), _PORTRAIT), ((5e-9, -0.2), _PORTRAIT), ((1e-9, 5e-10), _PORTRAIT),
    ((8e-9, -0.2), _PORTRAIT), ((8e-9, 0.1), _PORTRAIT),
    ((5e-9, 3.0), _PORTRAIT), ((-2e-8, 3.0), _PORTRAIT),
    # at or above the ceiling: the start alone
    ((4.0, 1.0), _PORTRAIT), ((0.5, -4.2), _PORTRAIT),
    # a localizing flow, and the same flow with l_max cutting its dwell short
    ((0.1, -0.3), _PORTRAIT), ((0.1, -0.3), FlowOptions(j_max=4.0, l_max=57.5)),
    # c < 0 with r < j_min: |j_perp| falls through j_min, and either stays
    # below it for the dwell or rises back out within 0.9 of scale and runs away
    ((0.5, -math.sqrt(0.25 - 2.5e-5)), _WIDE_FLOOR),
    ((0.5, -math.sqrt(0.25 - 0.0099999**2)), _WIDE_FLOOR),
    *(((jp, jz), _PORTRAIT) for jp, jz in np.random.default_rng(16).uniform(-3.5, 3.5, (24, 2))),
]


_SYMMETRIC_IDS = [f"{jp:.17g},{jz:.17g}-j_min={o.j_min:g}-l_max={o.l_max:g}"
                  for (jp, jz), o in _SYMMETRIC_STARTS]


@pytest.mark.parametrize("start,opts", _SYMMETRIC_STARTS, ids=_SYMMETRIC_IDS)
def test_symmetric_flow_matches_rk45(start, opts):
    """The closed form ends every start as ``scipy_flow`` (DOP853 at atol
    1e-22 and rtol 1e-13) and R_F do and, at its own samples, agrees with the
    oracle's dense output to 1e-8 (seen: 2.3e-10) and on the terminal's scale
    to 1e-11 (seen: 5.3e-13)."""
    j0 = CouplingVector(start[0], start[0], start[1])
    tight = scipy_flow(tuple(map(float, (j0.jx, j0.jy, j0.jz))), opts)
    samples, terminal = symmetric_flow(*start, opts)
    assert type(terminal) is type(integrate_flow(j0, opts).terminal) is type(tight.terminal)
    for l, j_perp, jz in samples:
        j = tight.dense(l)
        assert j_perp == pytest.approx(j[0], rel=1e-8, abs=1e-300)
        assert jz == pytest.approx(j[2], rel=1e-8, abs=1e-300)
    l_end = samples[-1][0]
    assert l_end == pytest.approx(tight.samples[-1][0], rel=1e-11)
    if isinstance(terminal, StrongCoupling):
        assert terminal.l_star == pytest.approx(tight.terminal.l_star, rel=1e-11)
    if isinstance(terminal, Localized):
        assert terminal.j_star.jz == pytest.approx(tight.terminal.j_star.jz, rel=1e-8)


@pytest.mark.parametrize("start,opts", _SYMMETRIC_STARTS, ids=_SYMMETRIC_IDS)
def test_symmetric_flow_samples_evenly_to_its_terminal(start, opts):
    samples, terminal = symmetric_flow(*start, opts)
    assert samples[0] == (0.0, *start)  # the start's exact values
    l_end = samples[-1][0]
    if max(map(abs, start)) >= opts.j_max:
        assert samples == ((0.0, *start),) and terminal == StrongCoupling(1 / opts.j_max)
        return
    assert len(samples) == PORTRAIT_SAMPLES
    assert [l for l, _, _ in samples] == [l_end * k / (PORTRAIT_SAMPLES - 1)
                                          for k in range(PORTRAIT_SAMPLES)]
    if isinstance(terminal, Localized):
        assert l_end >= DWELL_INTERVAL and samples[-1][1:] == (terminal.j_star.jx,
                                                               terminal.j_star.jz)
    elif isinstance(terminal, StrongCoupling):
        assert terminal.l_star == l_end + 1 / opts.j_max
        assert max(map(abs, samples[-1][1:])) == pytest.approx(opts.j_max, rel=1e-12)
    else:
        assert terminal == CutoffReached(opts.l_max) and l_end == opts.l_max
    assert all(map(math.isfinite, itertools.chain.from_iterable(samples)))


@pytest.mark.parametrize("start", [(0.5, 0.5), (0.3, 0.1), (-0.3, -0.2), (1.0, 3.0)])
def test_symmetric_flow_on_a_ceiling_at_the_pole(start):
    """A ceiling too high for the oracle's steps to reach (its pole path) or for the
    closed form to resolve from the pole: the last sample is the ceiling."""
    opts = FlowOptions(j_max=1e50)
    samples, terminal = symmetric_flow(*start, opts)
    oracle = integrate_flow(CouplingVector(start[0], start[0], start[1]), opts).terminal
    assert terminal.l_star == pytest.approx(oracle.l_star, rel=1e-9)
    assert samples[-1] == (terminal.l_star - 1e-50, math.copysign(1e50, start[0]), 1e50)
    assert all(map(math.isfinite, itertools.chain.from_iterable(samples)))


def test_symmetric_flow_at_the_ends_of_float_range():
    """Two starts whose samples divided by zero: a ceiling near float max,
    whose scale overflowed (it now agrees with R_F's), and an l_max within
    rounding of the pole, whose last sample is now the ceiling point."""
    opts = FlowOptions(j_max=1.34e154)
    samples, terminal = symmetric_flow(1e-8, 1.3e154, opts)
    rf = integrate_flow(CouplingVector(1e-8, 1e-8, 1.3e154), opts).terminal
    assert terminal.l_star == pytest.approx(rf.l_star, rel=1e-12)
    assert all(map(math.isfinite, itertools.chain.from_iterable(samples)))
    for jz in (0.9999999999999999, 0.9999999999999998):
        samples, terminal = symmetric_flow(-1.0, jz, FlowOptions(j_max=1e100, l_max=1.0))
        assert terminal == CutoffReached(1.0) and samples[-1] == (1.0, -1e100, 1e100)


@pytest.mark.xfail(reason="R_F rounds onto l_max a pole that lies 1.1e-16 beyond it")
def test_both_closed_forms_stop_a_pole_within_rounding_of_l_max_at_the_cutoff():
    """The pole of this jx = jy start lies just beyond l_max: symmetric_flow ends at the
    cutoff, and integrate_flow should too."""
    opts = FlowOptions(j_max=1e100, l_max=1.0)
    assert symmetric_flow(-1.0, 0.9999999999999999, opts)[1] == CutoffReached(1.0)
    start = CouplingVector(-1.0, -1.0, 0.9999999999999999)
    assert integrate_flow(start, opts).terminal == CutoffReached(1.0)


def test_symmetric_flow_is_even_in_j_perp():
    """The flow depends on j_perp**2 only: a mirrored start mirrors j_perp."""
    for jz in (-0.5, 0.5, -0.3, 0.1, -0.6):
        samples, terminal = symmetric_flow(0.5, jz, _PORTRAIT)
        mirror, mirrored = symmetric_flow(-0.5, jz, _PORTRAIT)
        assert [(l, -p, z) for l, p, z in samples] == list(mirror)
        assert type(terminal) is type(mirrored)

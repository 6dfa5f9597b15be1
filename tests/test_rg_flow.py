import itertools
import math
import sys
from operator import mul

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from codebath import rg_flow
from codebath.rg_flow import (
    DWELL_INTERVAL,
    PORTRAIT_SAMPLES,
    CouplingVector,
    CutoffReached,
    FlowOptions,
    Localized,
    StrongCoupling,
    _J_LIMIT,
    check_start,
    constants_of_motion,
    flow_rhs,
    integrate_flow,
    symmetric_flow,
)


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


def test_invariant_drift_tightens_with_tolerance():
    rng = np.random.default_rng(7)
    starts = [CouplingVector(*rng.uniform(-0.5, 0.5, 3)) for _ in range(10)]
    drifts = {}
    for tol in (1e-8, 1e-10):
        opts = FlowOptions(abs_tol=tol, rel_tol=tol)
        drifts[tol] = max(integrate_flow(j0, opts).invariant_drift for j0 in starts)
        assert drifts[tol] < 100 * tol
    assert drifts[1e-10] < drifts[1e-8]


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
    # RK45 gives up near |j| ~ 1e13, short of these ceilings
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


def test_flow_options_refuse_rel_tol_below_solver_floor():
    floor = 100 * sys.float_info.epsilon
    assert FlowOptions(rel_tol=floor).rel_tol == floor
    with pytest.raises(ValueError, match=r"rel_tol must be >= 2\.220446049250313e-14"):
        FlowOptions(rel_tol=math.nextafter(floor, 0.0))


@pytest.mark.parametrize("field", ["l_max", "abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_flow_options_refuse_non_finite(field, value):
    # a NaN rel_tol once reached integrate_flow, which then never finished
    with pytest.raises(ValueError, match="l_max, abs_tol and rel_tol must be finite"):
        FlowOptions(**{field: value})


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


def _scipy_rk45(fun, t_span, y0, events, rtol, atol):
    """scipy's RK45 behind the in-house ``solve_ivp`` interface: the oracle."""
    sol = scipy.integrate.solve_ivp(
        fun, t_span, y0, method="RK45", events=events, rtol=rtol, atol=atol
    )
    return rg_flow.OdeResult(
        t=list(sol.t),
        y=[tuple(y) for y in sol.y.T],
        status=sol.status,
        t_events=[list(te) for te in sol.t_events],
        y_events=[[tuple(y) for y in ye] for ye in sol.y_events],
        nfev=sol.nfev,
    )


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


# The Dormand-Prince tableau as rows, and the stage loop over it that
# ``rg_flow.solve_ivp`` writes out on scalars: the oracle for that unrolling.
# Each stage combination and the error norm is a loop adding left to right
# from 0.0, as the unrolled step does, and not ``sum``, which compensates
# float sums from CPython 3.12 on.  The dense output keeps ``sum``, as
# ``solve_ivp``'s does.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)


def _rms(v):
    total = 0.0
    for x in v:
        total += x * x
    return math.sqrt(total) / len(v) ** 0.5


def _lincomb(y, coeffs, columns, h):
    combined = []
    for v, column in zip(y, columns):
        total = 0.0
        for c, k in zip(coeffs, column):
            total += c * k
        combined.append(v + total * h)
    return tuple(combined)


def _tableau_rk45(fun, t_span, y0, events=(), rtol=1e-3, atol=1e-6):
    """``rg_flow.solve_ivp`` with its stages as a loop over the tableau."""
    t, t_bound = t_span
    rtol = max(rtol, rg_flow._RTOL_MIN)
    y, f = tuple(y0), fun(t, y0)
    nfev = 1
    ts, ys = [t], [y]
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    if t == t_bound:
        return rg_flow.OdeResult([t, t], [y, y], 0, t_events, y_events, nfev)
    directions = [getattr(event, "direction", 0) for event in events]
    terminals = [getattr(event, "terminal", False) for event in events]
    g = [event(t, y) for event in events]

    # the initial step is not unrolled: it shares solve_ivp's own norm
    scale = [atol + abs(v) * rtol for v in y]
    d0 = rg_flow._rms([v / s for v, s in zip(y, scale)])
    d1 = rg_flow._rms([v / s for v, s in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    f1 = fun(t + h0, tuple(v + h0 * d for v, d in zip(y, f)))
    nfev += 1
    d2 = rg_flow._rms([(b - a) / s for a, b, s in zip(f, f1, scale)]) / h0
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
        while True:
            if h_abs < min_step:
                return rg_flow.OdeResult(ts, ys, -1, t_events, y_events, nfev)
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            columns = ([f[0]], [f[1]], [f[2]])
            for c, a in zip(_C, _A):  # the last stage is the step's y_new, f_new
                y_new = _lincomb(y, a, columns, h)
                f_new = fun(t + c * h, y_new)
                for column, v in zip(columns, f_new):
                    column.append(v)
            nfev += 6
            error = _lincomb((0.0, 0.0, 0.0), _E, columns, h)
            error_norm = _rms([
                e / (atol + max(abs(a), abs(b)) * rtol) for e, a, b in zip(error, y, y_new)
            ])
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t == t_bound:
            status = 0
        g_new = [event(t, y) for event in events]
        active = [
            i for i, (a, b, d) in enumerate(zip(g, g_new, directions))
            if (a <= 0 <= b and d >= 0) or (a >= 0 >= b and d <= 0)
        ]
        if active:
            q = [[sum(map(mul, k, p)) for p in rg_flow._P] for k in columns]

            def dense(s):
                x = (s - t_old) / h
                x2 = x * x
                p = (x, x2, x2 * x, x2 * x * x)
                return tuple(v + sum(map(mul, p, row)) * h for v, row in zip(y_old, q))

            roots = [
                (rg_flow._bisect(lambda s: events[i](s, dense(s)), t_old, t), i) for i in active
            ]
            for root, i in sorted(roots):
                t_events[i].append(root)
                y_events[i].append(dense(root))
                if terminals[i]:
                    status, t, y = 1, root, dense(root)
                    break
        g = g_new
        ts.append(t)
        ys.append(y)
    return rg_flow.OdeResult(ts, ys, status, t_events, y_events, nfev)


@pytest.mark.parametrize("start,opts", _ORACLE_STARTS)
def test_integrate_flow_equals_tableau_loop(monkeypatch, start, opts):
    trace = integrate_flow(CouplingVector(*start), opts)
    monkeypatch.setattr(rg_flow, "solve_ivp", _tableau_rk45)
    oracle = integrate_flow(CouplingVector(*start), opts)
    assert trace.samples == oracle.samples
    assert trace.terminal == oracle.terminal
    assert trace.invariant_drift == oracle.invariant_drift


@pytest.mark.parametrize("direction", [0, 1, -1])
@pytest.mark.parametrize("terminal", [False, True])
def test_solve_ivp_equals_tableau_loop_with_events(direction, terminal):
    # jz rises through 0.35 (l = 1.43), then jy through 0.45: an up and a down
    # crossing, each recorded when the direction admits it
    def up(l, y):
        return y[2] - 0.35

    def down(l, y):
        return 0.45 - y[1]

    up.direction = down.direction = direction
    up.terminal = terminal
    args = (flow_rhs, (0.0, 3.0), (0.1, 0.2, 0.3), (down, up))
    ours = rg_flow.solve_ivp(*args, rtol=1e-8, atol=1e-10)
    assert ours == _tableau_rk45(*args, rtol=1e-8, atol=1e-10)
    assert ours.status == (1 if terminal and direction >= 0 else 0)
    assert len(ours.t_events[0]) == (direction <= 0 and not (terminal and direction == 0))
    assert len(ours.t_events[1]) == (direction >= 0)


def test_solve_ivp_events_at_zero_and_nan():
    """Steps where no event can fire are skipped by testing g * g_new > 0:
    an event zero at the span's end or along it still fires, one whose
    product underflows to 0 or is NaN still does not."""
    def at_end(l, y):
        return l - 2.0

    def zero(l, y):
        return 0.0

    def tiny(l, y):
        return 1e-200

    def nan(l, y):
        return math.nan

    events = (at_end, zero, tiny, nan)
    for chosen in [*((event,) for event in events), events]:  # alone, each may be skipped
        args = (flow_rhs, (0.0, 2.0), (0.1, 0.2, 0.3), chosen)
        ours = rg_flow.solve_ivp(*args, rtol=1e-8, atol=1e-10)
        assert ours == _tableau_rk45(*args, rtol=1e-8, atol=1e-10)
        assert ours.status == 0
        fired = {at_end: 1, zero: len(ours.t) - 1, tiny: 0, nan: 0}
        assert [len(roots) for roots in ours.t_events] == [fired[e] for e in chosen]


@pytest.mark.parametrize("start,opts", _ORACLE_STARTS)
def test_integrate_flow_matches_scipy_rk45(monkeypatch, start, opts):
    trace = integrate_flow(CouplingVector(*start), opts)
    monkeypatch.setattr(rg_flow, "solve_ivp", _scipy_rk45)
    oracle = integrate_flow(CouplingVector(*start), opts)
    assert type(trace.terminal) is type(oracle.terminal)
    assert len(trace.samples) == len(oracle.samples)
    if isinstance(trace.terminal, StrongCoupling):
        assert abs(trace.terminal.l_star - oracle.terminal.l_star) <= 1e-9
    if isinstance(trace.terminal, Localized):
        assert abs(trace.terminal.j_star.jz - oracle.terminal.j_star.jz) <= 1e-9
    # on the pole path |j| reaches 1e12-1e13, whose squares round in units far
    # above 1e-8: there the bound is relative to the largest square on the trace
    largest = max(max(abs(j.jx), abs(j.jy), abs(j.jz)) for _, j in trace.samples)
    assert trace.invariant_drift < 1e-8 * max(1.0, largest**2)


@pytest.mark.parametrize("t_span", [(0.0, 3.0), (1.0, 1.0)])
def test_solve_ivp_steps_as_scipy_rk45(t_span):
    # a non-terminal event of either direction is recorded and the span runs on
    def crossing(l, y):
        return y[2] - 0.35

    y0 = (0.1, 0.2, 0.3)
    ours = rg_flow.solve_ivp(flow_rhs, t_span, y0, events=(crossing,), rtol=1e-8, atol=1e-10)
    oracle = _scipy_rk45(flow_rhs, t_span, y0, (crossing,), rtol=1e-8, atol=1e-10)
    assert (ours.status, len(ours.t), ours.nfev) == (oracle.status, len(oracle.t), oracle.nfev)
    # the error estimates round differently from numpy's BLAS sums, and the
    # step factor (error ** -1/5) carries that into the step sizes
    assert ours.t == pytest.approx(oracle.t, rel=1e-9)
    assert len(ours.t_events[0]) == len(oracle.t_events[0])
    assert ours.t_events[0] == pytest.approx(oracle.t_events[0], rel=1e-9)


# --- the closed form on the symmetric plane, against RK45 as its oracle -------

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


def _tight(opts: FlowOptions) -> FlowOptions:
    return FlowOptions(j_max=opts.j_max, j_min=opts.j_min, l_max=opts.l_max,
                       abs_tol=1e-22, rel_tol=1e-13)


@pytest.mark.parametrize("start,opts", _SYMMETRIC_STARTS, ids=_SYMMETRIC_IDS)
def test_symmetric_flow_matches_rk45(start, opts):
    """The closed form ends every start as RK45 does and, at a tight-tolerance
    integration's own sample points, agrees with it to 1e-8 (seen: 1.6e-9)
    and on the terminal's scale to 1e-11 (seen: 8e-13, mostly 3e-14).

    At the default tolerances only the labels are compared: abs_tol = 1e-10 is
    1% of j_min, so RK45's j_min crossing, and with it the Localized scale, is
    off by up to 1.5e-4 relative, and a pair starting near j_min carries that
    error along the whole trajectory (3.4e-4 from (5e-9, 3.0)).
    """
    j0 = CouplingVector(start[0], start[0], start[1])
    default, tight = integrate_flow(j0, opts), integrate_flow(j0, _tight(opts))
    samples, terminal = symmetric_flow(*start, opts, [l for l, _ in tight.samples])
    assert type(terminal) is type(default.terminal) is type(tight.terminal)
    for (l, j_perp, jz), (l_rk, j) in zip(samples, tight.samples, strict=True):
        assert l == l_rk
        assert j_perp == pytest.approx(j.jx, rel=1e-8, abs=1e-300)
        assert jz == pytest.approx(j.jz, rel=1e-8, abs=1e-300)
    l_end = symmetric_flow(*start, opts)[0][-1][0]
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
    """A ceiling too high for RK45's steps to reach (its pole path) or for the
    closed form to resolve from the pole: the last sample is the ceiling."""
    opts = FlowOptions(j_max=1e50)
    samples, terminal = symmetric_flow(*start, opts)
    oracle = integrate_flow(CouplingVector(start[0], start[0], start[1]), opts).terminal
    assert terminal.l_star == pytest.approx(oracle.l_star, rel=1e-9)
    assert samples[-1] == (terminal.l_star - 1e-50, math.copysign(1e50, start[0]), 1e50)
    assert all(map(math.isfinite, itertools.chain.from_iterable(samples)))


def test_symmetric_flow_is_even_in_j_perp():
    """The flow depends on j_perp**2 only: a mirrored start mirrors j_perp."""
    for jz in (-0.5, 0.5, -0.3, 0.1, -0.6):
        samples, terminal = symmetric_flow(0.5, jz, _PORTRAIT)
        mirror, mirrored = symmetric_flow(-0.5, jz, _PORTRAIT)
        assert [(l, -p, z) for l, p, z in samples] == list(mirror)
        assert type(terminal) is type(mirrored)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codebath.bath import BathSpec
from codebath.errors import PhaseMismatchError
from codebath.rg_flow import (
    CouplingVector,
    CutoffReached,
    FlowOptions,
    Localized,
    Phase,
    StrongCoupling,
    apply_thermal_cutoff,
    classify_phase,
    constants_of_motion,
    flow_rhs,
    integrate_flow,
    kondo_scale,
    subohmic_flow,
    thermal_cutoff,
)


def test_flow_rhs_examples():
    assert flow_rhs(CouplingVector(0, 0, 0)) == CouplingVector(0, 0, 0)
    j = flow_rhs(CouplingVector(0.1, 0.1, 0.1))
    assert (j.jx, j.jy, j.jz) == pytest.approx((0.01, 0.01, 0.01))
    j = flow_rhs(CouplingVector(0.1, 0.1, -0.1))
    assert (j.jx, j.jy, j.jz) == pytest.approx((-0.01, -0.01, 0.01))


@given(
    jx=st.floats(-1, 1), jy=st.floats(-1, 1), jz=st.floats(-1, 1)
)
@settings(max_examples=50, deadline=None)
def test_flow_rhs_two_sign_flip_symmetry(jx, jy, jz):
    # flipping the signs of jx and jy flips the first two components of the
    # rhs and leaves the third unchanged
    base = flow_rhs(CouplingVector(jx, jy, jz))
    flipped = flow_rhs(CouplingVector(-jx, -jy, jz))
    assert flipped.jx == -base.jx
    assert flipped.jy == -base.jy
    assert flipped.jz == base.jz


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


def test_samples_strictly_increasing_and_strided():
    trace = integrate_flow(CouplingVector(0.2, 0.2, 0.2))
    ls = [l for l, _ in trace.samples]
    assert all(b > a for a, b in zip(ls, ls[1:]))
    strided = integrate_flow(
        CouplingVector(0.2, 0.2, 0.2), FlowOptions(sample_stride=10)
    )
    assert len(strided.samples) < len(trace.samples)
    assert strided.samples[-1][0] == pytest.approx(trace.samples[-1][0])


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


def test_flow_options_validation():
    with pytest.raises(ValueError):
        FlowOptions(j_min=1.0, j_max=0.5)
    with pytest.raises(ValueError):
        FlowOptions(l_max=0.0)
    with pytest.raises(ValueError):
        FlowOptions(sample_stride=0)


def test_classify_phase_symmetric():
    assert classify_phase(CouplingVector(0.1, 0.1, -0.3)) is Phase.FERROMAGNETIC
    assert classify_phase(CouplingVector(0.1, 0.1, 0.1)) is Phase.ANTIFERROMAGNETIC
    # boundary case lands ferromagnetic by the <= convention
    assert classify_phase(CouplingVector(0.1, 0.1, -0.1)) is Phase.FERROMAGNETIC


def test_classify_phase_delegates_for_asymmetric():
    assert classify_phase(CouplingVector(0.2, 0.05, 0.15)) is Phase.ANTIFERROMAGNETIC
    # |jx| != |jy| pins jx^2 - jy^2 away from zero, so the transverse pair can
    # never die: anisotropic-transverse starts run away even at negative jz
    assert classify_phase(CouplingVector(0.05, 0.02, -0.4)) is Phase.ANTIFERROMAGNETIC
    # equal magnitudes with opposite signs map onto the symmetric localized
    # flow under the two-sign-flip symmetry
    assert classify_phase(CouplingVector(0.05, -0.05, 0.2)) is Phase.FERROMAGNETIC


def test_classify_phase_agrees_with_flow_off_separatrix():
    opts = FlowOptions(l_max=2000.0)
    for jz in (-0.3, -0.15, -0.102, -0.098, 0.0, 0.1):
        if abs(jz + 0.1) < 1e-3:
            continue
        label = classify_phase(CouplingVector(0.1, 0.1, jz))
        terminal = integrate_flow(CouplingVector(0.1, 0.1, jz), opts).terminal
        if isinstance(terminal, StrongCoupling):
            assert label is Phase.ANTIFERROMAGNETIC
        elif isinstance(terminal, Localized):
            assert label is Phase.FERROMAGNETIC


NAT = BathSpec()


def test_kondo_scale_analytic_route():
    scale = kondo_scale(CouplingVector(0.1, 0.1, 0.1), NAT)
    assert scale.t_K_analytic == pytest.approx(math.exp(10.0), rel=1e-12)
    assert scale.t_K_analytic == pytest.approx(2.2026e4, rel=1e-4)
    assert scale.T_K_analytic == pytest.approx(math.exp(-10.0), rel=1e-12)


def test_kondo_scale_numeric_matches_analytic():
    for j in (0.05, 0.1):
        scale = kondo_scale(CouplingVector(j, j, j), NAT)
        assert scale.l_star == pytest.approx(1.0 / j, rel=0.05)
        assert scale.t_K == pytest.approx(scale.t_K_analytic, rel=0.10)
        assert scale.t_K == pytest.approx(NAT.tau_qec * math.exp(scale.l_star), rel=1e-12)
        # t_K = hbar / (kB T_K) by construction
        assert scale.t_K * scale.T_K == pytest.approx(1.0, rel=1e-9)


def test_kondo_scale_diverges_as_j_vanishes():
    ts = [
        kondo_scale(CouplingVector(j, j, j), NAT).t_K_analytic
        for j in (0.2, 0.1, 0.05)
    ]
    assert ts[0] < ts[1] < ts[2]


def test_kondo_scale_rejects_fm():
    with pytest.raises(PhaseMismatchError):
        kondo_scale(CouplingVector(0.05, 0.05, -0.2), NAT)


def test_kondo_scale_needs_room():
    with pytest.raises(ValueError):
        kondo_scale(CouplingVector(0.01, 0.01, 0.01), NAT, FlowOptions(l_max=10.0))


def test_subohmic_flow():
    flow = subohmic_flow(0.1, 0.5)
    assert flow.l_star == pytest.approx(math.log(10.0) / 0.5, rel=1e-12)
    assert flow.l_star == pytest.approx(4.6052, abs=1e-4)
    assert flow.j_of_l(0.0) == pytest.approx(0.1)
    assert flow.j_of_l(flow.l_star) == pytest.approx(1.0, rel=1e-12)
    # closer to marginal means slower growth and larger l_star
    assert subohmic_flow(0.1, 0.9).l_star > flow.l_star
    assert subohmic_flow(1.0, 0.5).l_star == 0.0


def test_subohmic_flow_guards():
    with pytest.raises(ValueError):
        subohmic_flow(0.1, 1.0)
    with pytest.raises(ValueError):
        subohmic_flow(0.1, 0.0)
    with pytest.raises(ValueError):
        subohmic_flow(-0.1, 0.5)


def test_thermal_cutoff():
    # t_th = hbar/(pi kB T); with T = 1/pi the thermal time equals tau
    assert thermal_cutoff(BathSpec(temperature=1.0 / math.pi)) == pytest.approx(0.0)
    assert thermal_cutoff(
        BathSpec(temperature=1.0 / (math.pi * math.e**5))
    ) == pytest.approx(5.0, rel=1e-12)
    l1 = thermal_cutoff(BathSpec(temperature=0.01))
    l2 = thermal_cutoff(BathSpec(temperature=0.02))
    assert l1 - l2 == pytest.approx(math.log(2.0), rel=1e-12)
    assert thermal_cutoff(BathSpec(temperature=0.0)) == math.inf


def test_apply_thermal_cutoff():
    opts = FlowOptions(l_max=100.0)
    spec = BathSpec(temperature=1.0 / (math.pi * math.e**5))
    clamped = apply_thermal_cutoff(opts, spec)
    assert clamped.l_max == pytest.approx(5.0)
    assert apply_thermal_cutoff(opts, BathSpec()) is opts
    with pytest.raises(ValueError):
        apply_thermal_cutoff(opts, BathSpec(temperature=10.0))

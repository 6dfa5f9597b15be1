import csv
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codebath.bath import BathSpec, C_LIGHT_SI, HBAR_SI
from codebath.lifetimes import (
    CodePoint,
    Phase,
    build_report,
    critical_coupling,
    j_of_L,
    preset_report,
    t_comp,
    t_mem_fm,
    thermal_rates,
    threshold_exists,
)
from codebath.cli import main
from codebath.rg_flow import CouplingVector, StrongCoupling, integrate_flow
from codebath.wick import RegimeLabel, classify_regime, lambda_bar_sq


def unit_weight_spec(lbar_sq=1.0, z=1.0):
    """Spec with lam/(hbar v) = 1 and the requested contraction weight.

    At z = 1 with a = a0 = 1, lbar^2 = 16 (lam tau)^2, so lam = sqrt(lbar^2)/4
    and v = lam keeps the prefactor at one.
    """
    lam = math.sqrt(lbar_sq) / 4.0
    return BathSpec(z=z, lam=lam, v=lam)


def test_j_of_L_unit_weight():
    spec = unit_weight_spec(1.0)
    assert lambda_bar_sq(spec, 8) == pytest.approx(1.0, rel=1e-12)
    assert j_of_L(spec, 8) == pytest.approx(math.sqrt(16.0 / math.pi), rel=1e-12)
    assert j_of_L(spec, 8) == pytest.approx(2.2568, abs=1e-4)


def test_j_of_L_quarter_weight():
    spec = unit_weight_spec(0.25)
    assert j_of_L(spec, 8) == pytest.approx(math.sqrt(16.0 / math.pi) / 16.0, rel=1e-12)
    assert j_of_L(spec, 8) == pytest.approx(0.14105, abs=1e-5)


def test_j_of_L_vanishes_with_coupling():
    assert j_of_L(BathSpec(lam=0.0), 8) == 0.0
    small = j_of_L(BathSpec(lam=1e-6, v=1.0), 8)
    smaller = j_of_L(BathSpec(lam=1e-7, v=1.0), 8)
    assert 0 < smaller < small


def test_j_of_L_monotone_under_weight():
    # lbar^2 < 1 decreasing in L beyond the sqrt(L) crossover; > 1 increasing
    lo = unit_weight_spec(0.25)
    hi = unit_weight_spec(4.0)
    assert j_of_L(lo, 24) < j_of_L(lo, 12)
    assert j_of_L(hi, 24) > j_of_L(hi, 12)


def test_j_of_L_rejects_odd():
    with pytest.raises(ValueError):
        j_of_L(BathSpec(), 7)


NAT = BathSpec()


def test_t_comp_ohmic_value():
    point = CodePoint(L=8, epsilon=0.01, spec=NAT)
    t = t_comp(point, j_L=0.1)
    assert t == pytest.approx(0.01 * math.exp(10.0), rel=1e-12)
    assert t == pytest.approx(220.26, abs=0.01)


def test_t_comp_ohmic_matches_rk45_pole():
    # the closed form's t_K = tau exp(1/j) is the isotropic one-loop pole
    # l* = 1/j, which RK45 finds independently
    point = CodePoint(L=8, epsilon=0.01, spec=NAT)
    for j in (0.05, 0.1):
        terminal = integrate_flow(CouplingVector(j, j, j)).terminal
        assert isinstance(terminal, StrongCoupling)
        assert terminal.l_star == pytest.approx(1.0 / j, rel=0.05)
        t_K = t_comp(point, j_L=j) / point.epsilon
        assert t_K == pytest.approx(NAT.tau_qec * math.exp(terminal.l_star), rel=0.10)


def test_t_comp_is_epsilon_times_t_K():
    for eps in (1e-3, 0.1, 0.999):
        point = CodePoint(L=8, epsilon=eps, spec=NAT)
        assert t_comp(point, j_L=0.2) == pytest.approx(
            eps * math.exp(5.0), rel=1e-12
        )


def test_t_comp_double_exponential_growth():
    spec = unit_weight_spec(0.25)  # below threshold: j(L) shrinks with L
    p8 = CodePoint(L=8, epsilon=0.01, spec=spec)
    p12 = CodePoint(L=12, epsilon=0.01, spec=spec)
    assert t_comp(p12) > t_comp(p8)


def test_t_comp_saturation_warning():
    point = CodePoint(L=8, epsilon=0.01, spec=NAT)
    with pytest.warns(UserWarning):
        t_comp(point, j_L=2e3)


def test_t_mem_fm_frozen_values():
    point = CodePoint(L=8, epsilon=0.01, spec=NAT, jz_star=0.1)
    assert t_mem_fm(point) == pytest.approx(0.99 ** (-50.0), rel=1e-12)
    assert t_mem_fm(point) == pytest.approx(1.652876, abs=1e-5)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_t_mem_fm_exact_vs_approx_gap(eps):
    # the small-budget form tau exp(eps / (2 jz*^2)) trails the exact time by
    # eps**2 / (4 jz*^2) to leading order, below eps while eps <= 2 jz*^2
    for jz in (0.05, 0.1, 0.3):
        if eps > 2 * jz * jz:
            continue
        exact = t_mem_fm(CodePoint(L=8, epsilon=eps, spec=NAT, jz_star=jz))
        approx = NAT.tau_qec * math.exp(eps / (2 * jz * jz))
        assert abs(exact - approx) / exact < eps


def test_t_mem_fm_limits():
    tiny = t_mem_fm(CodePoint(L=8, epsilon=1e-12, spec=NAT, jz_star=0.1))
    assert tiny == pytest.approx(1.0, rel=1e-9)
    assert tiny >= 1.0
    assert t_mem_fm(CodePoint(L=8, epsilon=0.01, spec=NAT, jz_star=0.0)) == math.inf
    with pytest.raises(ValueError):
        t_mem_fm(CodePoint(L=8, epsilon=0.01, spec=NAT))


def test_t_mem_fm_diverges_as_jz_vanishes():
    values = [
        t_mem_fm(CodePoint(L=8, epsilon=0.01, spec=NAT, jz_star=jz))
        for jz in (0.2, 0.1, 0.05)
    ]
    assert values[0] < values[1] < values[2]


def test_thermal_rates_values():
    # kB T / hbar = 1e6 in natural units
    spec = BathSpec(temperature=1e6)
    point = CodePoint(L=8, epsilon=0.01, spec=spec, jz_star=0.1)
    rates = thermal_rates(point, j_L=0.01)
    assert rates.t2_thermal == pytest.approx(1.0 / (2 * math.pi * 1e6 * 0.01), rel=1e-12)
    assert rates.t2_thermal == pytest.approx(1.5915e-5, abs=1e-9)
    assert rates.gamma_korringa == pytest.approx(100.0, rel=1e-12)


def test_korringa_linear_in_temperature_bit_exact():
    for T in (0.5, 1.0, 3.0):
        p1 = CodePoint(L=8, epsilon=0.01, spec=BathSpec(temperature=T))
        p2 = CodePoint(L=8, epsilon=0.01, spec=BathSpec(temperature=2 * T))
        g1 = thermal_rates(p1, j_L=0.37).gamma_korringa
        g2 = thermal_rates(p2, j_L=0.37).gamma_korringa
        assert g2 == 2.0 * g1


@given(T=st.floats(1e-6, 1e6), jz=st.floats(0.01, 1.0))
@settings(max_examples=50, deadline=None)
def test_t2_inverse_in_temperature(T, jz):
    r1 = thermal_rates(CodePoint(L=8, epsilon=0.01, spec=BathSpec(temperature=T), jz_star=jz))
    r2 = thermal_rates(CodePoint(L=8, epsilon=0.01, spec=BathSpec(temperature=2 * T), jz_star=jz))
    assert r2.t2_thermal == pytest.approx(r1.t2_thermal / 2.0, rel=1e-9)


def test_thermal_rates_zero_temperature_sentinel():
    rates = thermal_rates(CodePoint(L=8, epsilon=0.01, spec=NAT, jz_star=0.1))
    assert rates.t2_thermal == math.inf
    assert rates.gamma_korringa == 0.0


def test_closed_forms_saturate_out_of_float_range():
    fm = CodePoint(
        L=4, epsilon=0.01, spec=BathSpec(temperature=1e-300, kB=1e-10), jz_star=1e-200
    )
    assert thermal_rates(fm).t2_thermal == math.inf  # denominator underflows
    assert t_mem_fm(fm) == math.inf
    # 0 * inf in j^2 kB T / hbar: (1e-200)^2 * 1e300 * 1e300 is 1e200
    hot = CodePoint(L=4, epsilon=0.01, spec=BathSpec(temperature=1e300, kB=1e300))
    assert thermal_rates(hot, j_L=1e-200).gamma_korringa == pytest.approx(1e200, rel=1e-9)
    # eps * tau underflows to 0 while exp(1/j) overflows
    tiny = CodePoint(L=4, epsilon=1e-200, spec=BathSpec(tau_qec=1e-200))
    assert t_comp(tiny, j_L=1e-5) == math.inf
    # 1e-200 * 1e-200 * (1 / 1e-200) ** 2 is 1 in exact arithmetic
    tiny_sub = CodePoint(L=4, epsilon=1e-200, spec=BathSpec(tau_qec=1e-200, s=0.5))
    assert t_comp(tiny_sub, j_L=1e-200) == pytest.approx(1.0, rel=1e-9)
    assert critical_coupling(BathSpec(a=1e200, z=2.0), 4) == math.inf
    assert j_of_L(BathSpec(hbar=1e-300, v=1e-300, s=0.5), 4) == math.inf
    assert j_of_L(BathSpec(hbar=1e-300, v=1e-300, lam=0.0), 4) == 0.0


def test_t_comp_subohmic_values():
    point = CodePoint(L=8, epsilon=0.01, spec=BathSpec(s=0.5))
    assert t_comp(point, j_L=0.1) == pytest.approx(1.0, rel=1e-12)
    assert t_comp(point, j_L=1.0) == pytest.approx(0.01, rel=1e-12)
    point = CodePoint(L=8, epsilon=0.01, spec=BathSpec(s=0.9))
    assert t_comp(point, j_L=0.1) == pytest.approx(1e8, rel=1e-9)


def test_threshold_exists_grid():
    for z in (0.25, 0.5, 1.0):
        for s in (0.5, 1.0):
            assert threshold_exists(z, s) == (z > 1.0 / (s + 1.0))
            assert threshold_exists(z, s) == (
                classify_regime(z, s) is RegimeLabel.SHORT_RANGE
            )


def test_critical_coupling_short_range():
    spec = BathSpec(z=1.0, a=2.0, a0=123.0, tau_qec=4.0)
    # a0 drops out at z = 1: lam_c = hbar a / (4 tau)
    assert critical_coupling(spec, 8) == pytest.approx(2.0 / 16.0, rel=1e-12)
    other_a0 = BathSpec(z=1.0, a=2.0, a0=0.5, tau_qec=4.0)
    assert critical_coupling(other_a0, 8) == critical_coupling(spec, 8)
    # L-independent in this branch
    assert critical_coupling(spec, 8) == critical_coupling(spec, 64)


def test_critical_coupling_critical_branch_ratio():
    spec = BathSpec(z=0.5)
    ratio = critical_coupling(spec, 100) / critical_coupling(spec, 10)
    assert ratio == pytest.approx(math.sqrt(math.log(10) / math.log(100)), rel=1e-12)
    assert ratio == pytest.approx(0.7071, abs=1e-4)


def test_critical_coupling_long_range_power():
    spec = BathSpec(z=0.3)
    ratio = critical_coupling(spec, 32) / critical_coupling(spec, 2)
    assert ratio == pytest.approx((2.0 / 32.0) ** 0.2, rel=1e-12)


def test_critical_coupling_inverts_lambda_bar():
    rng = random.Random(3)
    for _ in range(100):
        z = rng.choice([rng.uniform(0.51, 1.0), 0.5, rng.uniform(0.05, 0.49)])
        spec = BathSpec(
            z=z,
            a=rng.uniform(0.5, 2.0),
            a0=rng.uniform(0.1, 1.0),
            tau_qec=rng.uniform(0.5, 2.0),
        )
        L = rng.choice([4, 8, 16, 32])
        lam_c = critical_coupling(spec, L)
        at_critical = BathSpec(
            z=spec.z, lam=lam_c, a=spec.a, a0=spec.a0, tau_qec=spec.tau_qec
        )
        assert lambda_bar_sq(at_critical, L) == pytest.approx(1.0, rel=1e-10)


def test_short_range_a0_scaling_is_the_stated_power():
    rng = random.Random(5)
    for _ in range(100):
        z = rng.uniform(0.51, 1.0)
        a0 = rng.uniform(0.1, 2.0)
        kappa = rng.uniform(1.1, 3.0)
        spec = BathSpec(z=z, a0=a0)
        scaled = BathSpec(z=z, a0=a0 * kappa)
        got = lambda_bar_sq(scaled, 8) / lambda_bar_sq(spec, 8)
        assert got == pytest.approx(kappa ** (-2.0 * (1.0 - z)), rel=1e-10)
        # and no L dependence sneaks in
        assert lambda_bar_sq(scaled, 8) == lambda_bar_sq(scaled, 32)


def test_t_comp_matches_regime_closed_forms():
    # independent route: eps tau exp[(hbar v/lam) sqrt(pi/2L) (base/deflate)^(L/2)]
    def closed_form(spec, L, eps, deflate):
        lead = (spec.hbar * spec.v / spec.lam) * math.sqrt(math.pi / (2 * L))
        base = spec.hbar * spec.a0 ** (1 - spec.z) * spec.a**spec.z / (
            4 * spec.lam * spec.tau_qec
        )
        return eps * spec.tau_qec * math.exp(lead * (base / deflate) ** (L / 2))

    kw = dict(lam=0.3, v=1.3, a=1.7, a0=0.4, tau_qec=0.9)
    for z, L in ((0.8, 8), (1.0, 12)):
        spec = BathSpec(z=z, **kw)
        got = t_comp(CodePoint(L=L, epsilon=0.01, spec=spec))
        assert got == pytest.approx(closed_form(spec, L, 0.01, 1.0), rel=1e-12)
    spec = BathSpec(z=0.5, **kw)
    got = t_comp(CodePoint(L=8, epsilon=0.01, spec=spec))
    assert got == pytest.approx(closed_form(spec, 8, 0.01, math.sqrt(math.log(8))), rel=1e-12)
    # long range: the deflation consistent with the L**(1-2z) contraction
    # weight is L**((1-2z)/2) inside the (.)**(L/2) bracket
    spec = BathSpec(z=0.3, **kw)
    got = t_comp(CodePoint(L=8, epsilon=0.01, spec=spec))
    assert got == pytest.approx(closed_form(spec, 8, 0.01, 8 ** ((1 - 2 * 0.3) / 2)), rel=1e-12)


def test_code_point_validation():
    with pytest.raises(ValueError):
        CodePoint(L=7, epsilon=0.01, spec=NAT)
    with pytest.raises(ValueError):
        CodePoint(L=8, epsilon=0.0, spec=NAT)
    with pytest.raises(ValueError):
        CodePoint(L=8, epsilon=1.0, spec=NAT)
    with pytest.raises(ValueError):
        CodePoint(L=8, epsilon=0.01, spec=NAT, jz_star=math.nan)


def test_build_report_afm():
    point = CodePoint(L=8, epsilon=0.01, spec=unit_weight_spec(0.25))
    rep = build_report(point)
    assert rep.phase is Phase.ANTIFERROMAGNETIC
    assert rep.regime is RegimeLabel.SHORT_RANGE
    assert rep.t_mem_over_tau is None
    assert rep.t_comp_over_tau == pytest.approx(0.01 * rep.t_K_over_tau, rel=1e-12)
    assert rep.t_comp_over_tau <= rep.t_K_over_tau * point.epsilon * (1 + 1e-12)
    assert rep.gamma_korringa == 0.0 and rep.t2_thermal == math.inf  # T = 0 sentinel
    assert rep.threshold_exists


def _flow_index(tmp_path, j_perp, jz):
    """Rows of the index.csv a `codebath flow` run over one start grid writes."""
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({"task": "flow", "axes": {"j_perp": j_perp, "jz": jz}}))
    assert main(["flow", "--config", str(cfg), "--out", str(tmp_path / "flows")]) == 0
    with open(tmp_path / "flows" / "index.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_flow_index_has_no_jz_star_for_runaway_start(tmp_path):
    # an antiferromagnetic start runs away and the flow index gives it no jz*
    (afm,) = _flow_index(tmp_path, [0.1], [0.1])
    assert afm["terminal"] == "StrongCoupling"
    assert afm["jz_star"] == ""


def test_build_report_fm_with_flow_sourced_jz_star(tmp_path):
    # jz* of a localized start is the jz_star column of a flow run's index
    (fm,) = _flow_index(tmp_path, [0.05], [-0.2])
    assert fm["terminal"] == "Localized"
    jz_star = float(fm["jz_star"])
    assert jz_star == pytest.approx(-math.sqrt(0.0375), abs=1e-4)
    point = CodePoint(L=8, epsilon=0.01, spec=NAT, jz_star=jz_star)
    rep = build_report(point)
    assert rep.phase is Phase.FERROMAGNETIC
    assert rep.t_K_over_tau is None and rep.t_comp_over_tau is None
    assert rep.t_mem_over_tau == pytest.approx(
        0.99 ** (-1.0 / (2 * jz_star**2)), rel=1e-12
    )


def test_build_report_subohmic():
    point = CodePoint(L=8, epsilon=0.01, spec=BathSpec(s=0.5, lam=0.01))
    rep = build_report(point)
    j = rep.j_L
    assert rep.t_comp_over_tau == pytest.approx(0.01 * (1.0 / j) ** 2.0, rel=1e-9)
    assert rep.threshold_exists  # z = 1 > 1/(s+1) = 2/3
    sub_long = CodePoint(L=8, epsilon=0.01, spec=BathSpec(z=0.5, s=0.5, lam=0.01))
    assert not build_report(sub_long).threshold_exists


def test_preset_neutral_atom_exact_numbers():
    rep = preset_report("neutral_atom")
    assert rep.check_values["light_cone_sites"] == 1e11
    assert rep.check_values["g_critical"] == 2.5e-12
    assert rep.check_values["light_cone_sites_precise_c"] == pytest.approx(
        C_LIGHT_SI * 1e-3 / 3e-6, rel=1e-12
    )
    assert rep.check_values["lambda_bar_sq_at_critical"] == pytest.approx(1.0, rel=1e-12)
    # lam_c = hbar a / (4 tau) in SI
    assert rep.check_values["lambda_critical_si"] == pytest.approx(
        HBAR_SI * 3e-6 / (4 * 1e-3), rel=1e-12
    )
    assert rep.report is not None
    assert rep.report.phase is Phase.ANTIFERROMAGNETIC
    assert rep.report.t_K_over_tau == math.inf  # threshold coupling, astronomically slow


def test_preset_superconducting_curves():
    rep = preset_report("superconducting")
    assert rep.check_values["lambda_c_ratio_L100_L10_z0.5"] == pytest.approx(
        math.sqrt(math.log(10) / math.log(100)), rel=1e-12
    )
    assert rep.check_values["lambda_c_z1_L_independent"] == 1.0
    zs = {z for z, _, _ in rep.lambda_critical_curve}
    assert zs == {1.0, 0.5, 0.3}
    # long-range curve decays with L
    lr = [(L, lam) for z, L, lam in rep.lambda_critical_curve if z == 0.3]
    assert all(b[1] < a[1] for a, b in zip(lr, lr[1:]))


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        preset_report("ion_trap")

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codebath.bath import (
    BathSpec,
    RegimeLabel,
    spatial_correlator,
    thermal_correlator,
)

NAT = BathSpec()  # natural units, unit parameters


def test_spec_validation():
    with pytest.raises(ValueError):
        BathSpec(z=0.0)
    with pytest.raises(ValueError):
        BathSpec(s=0.0)
    with pytest.raises(ValueError):
        BathSpec(s=1.5)
    with pytest.raises(ValueError):
        BathSpec(v=-1.0)
    with pytest.raises(ValueError):
        BathSpec(temperature=-0.1)
    with pytest.raises(ValueError, match="lam must be a finite number"):
        BathSpec(lam=math.nan)
    with pytest.raises(ValueError, match="a must be a finite number"):
        BathSpec(a=math.inf)


def test_bath_fields_are_its_ten_parameters():
    # the derived values are attributes, not fields: the sweep's bath params
    # are read off fields(BathSpec), so a derived field would become a param
    assert [f.name for f in dataclasses.fields(BathSpec)] == [
        "z", "s", "lam", "v", "a", "a0", "temperature", "tau_qec", "hbar", "kB"
    ]


def test_replace_rederives_regime_zeta_and_bases():
    short, critical, long = RegimeLabel.SHORT_RANGE, RegimeLabel.CRITICAL, RegimeLabel.LONG_RANGE
    spec = BathSpec(z=1.0, s=0.5, a=2.0)
    for z, regime in ((0.3, long), (0.5, long), (0.6, long), (2 / 3, critical), (1.0, short)):
        moved = dataclasses.replace(spec, z=z)
        zeta = 0.75 * z  # (s + 1) / 2 * z at s = 0.5
        assert (moved.regime, moved.zeta) == (regime, zeta)
        assert not hasattr(moved, "branch") and BathSpec(z=z).zeta == z  # exact at s = 1
        assert moved.lambda_bar_sq_base == 16.0 / 2.0 ** (2.0 * zeta)
        assert moved.critical_coupling_base == 2.0**zeta / 4.0
        assert vars(moved) == vars(BathSpec(z=z, s=0.5, a=2.0))


def test_spatial_examples():
    assert spatial_correlator(NAT, 0.0, 2.0) == pytest.approx(0.25)
    assert spatial_correlator(BathSpec(z=0.37), 0.0, 1.0) == pytest.approx(1.0)
    assert spatial_correlator(BathSpec(z=0.5, a0=4.0), 0.0, 1.0) == pytest.approx(0.25)


def test_spatial_coincident_raises():
    with pytest.raises(ValueError):
        spatial_correlator(NAT, 2.0, 2.0)


@pytest.mark.parametrize("z", [0.25, 0.5, 1.0])
def test_spatial_loglog_slope(z):
    spec = BathSpec(z=z, a0=0.7)
    x1, x2 = 1.5, 37.0
    slope = (
        math.log(spatial_correlator(spec, 0.0, x2))
        - math.log(spatial_correlator(spec, 0.0, x1))
    ) / (math.log(x2) - math.log(x1))
    assert slope == pytest.approx(-2.0 * z, abs=1e-9)


def test_thermal_zero_temperature_is_algebraic():
    assert thermal_correlator(NAT, 2.0) == pytest.approx(0.25)
    assert thermal_correlator(NAT, 10.0) == pytest.approx(0.01)


def test_thermal_small_argument_matches_algebraic():
    # w*t = 1e-3 at t = 1
    spec = BathSpec(temperature=1e-3 / math.pi)
    assert thermal_correlator(spec, 1.0) == pytest.approx(1.0, rel=1e-6)


def test_thermal_closed_form_value():
    # w = 1, t = 5: (1/sinh 5)^2
    spec = BathSpec(temperature=1.0 / math.pi)
    expected = (1.0 / math.sinh(5.0)) ** 2
    assert expected == pytest.approx(1.8162e-4, rel=1e-3)
    assert thermal_correlator(spec, 5.0) == pytest.approx(expected, rel=1e-12)


def test_thermal_zero_limit_convergence():
    # T -> 0 recovers 1/t^2 to better than 1e-6 relative while w*t < 1e-3
    for wt in (1e-3, 1e-4, 1e-5):
        spec = BathSpec(temperature=wt / math.pi)  # w = wt at t = 1
        assert thermal_correlator(spec, 1.0) == pytest.approx(1.0, rel=1e-6)


def test_thermal_exponential_tail_rate():
    # d/dt log C -> -2w, within 1e-3 relative on w*t in [5, 20]
    w = 1.0
    spec = BathSpec(temperature=w / math.pi)
    h = 1e-5
    for t in (5.0, 9.0, 14.0, 20.0):
        rate = (
            math.log(thermal_correlator(spec, t + h))
            - math.log(thermal_correlator(spec, t - h))
        ) / (2 * h)
        assert rate == pytest.approx(-2.0 * w, rel=1e-3)


def test_thermal_asymptotic_form():
    w = 1.0
    spec = BathSpec(temperature=w / math.pi)
    t = 15.0
    assert thermal_correlator(spec, t) == pytest.approx(
        4 * w**2 * math.exp(-2 * w * t), rel=1e-12
    )


@given(t=st.floats(0.01, 30), scale=st.floats(1.1, 3.0))
@settings(max_examples=50, deadline=None)
def test_thermal_monotone_decreasing(t, scale):
    spec = BathSpec(temperature=0.4)
    assert thermal_correlator(spec, t * scale) < thermal_correlator(spec, t)


def test_thermal_invalid_time():
    with pytest.raises(ValueError):
        thermal_correlator(NAT, 0.0)
    with pytest.raises(ValueError):
        thermal_correlator(NAT, -1.0)


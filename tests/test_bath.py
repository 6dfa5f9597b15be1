import dataclasses
import decimal
import math
import sys
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codebath import bath
from codebath.bath import BathSpec, RegimeLabel, thermal_correlator

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


def spatial(spec: BathSpec) -> float:
    """The equal-time correlator lam**2 / (a0**(2(1-zeta)) |x|**(2 zeta)) at the
    pitch x = a, read off the contraction base 16 (tau / hbar)**2 times it."""
    return spec.lambda_bar_sq_base * (spec.hbar / spec.tau_qec) ** 2 / 16.0


def test_spatial_examples():
    assert spatial(BathSpec(a=2.0)) == pytest.approx(0.25)
    assert spatial(BathSpec(z=0.37)) == pytest.approx(1.0)
    assert spatial(BathSpec(z=0.5, a0=4.0)) == pytest.approx(0.25)


def test_spatial_coincident_raises():
    # the correlator is singular at zero separation, so the bath refuses a zero pitch
    with pytest.raises(ValueError, match="a must be positive"):
        BathSpec(a=0.0)


@pytest.mark.parametrize("z", [0.25, 0.5, 1.0])
def test_spatial_loglog_slope(z):
    x1, x2 = 1.5, 37.0
    slope = (
        math.log(spatial(BathSpec(z=z, a0=0.7, a=x2)))
        - math.log(spatial(BathSpec(z=z, a0=0.7, a=x1)))
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


@pytest.mark.parametrize("spec,t,expected", [
    (NAT, 1e-170, math.inf),  # t * t underflows: 1/t**2 overflows
    (NAT, 9e-155, 1.2345679012345678e308),  # t * t is subnormal, 1/t**2 finite
    # w t underflows to 0, and is subnormal: 1/t**2, which rounds to 1e20 at t = 1e-10
    (BathSpec(temperature=1e-320), 1e-10, 1e20),
    (BathSpec(temperature=1e-300), 1e-10, 1e20),
    (BathSpec(temperature=1e300, hbar=1e-300), 1.0, 0.0),  # w overflows
    (BathSpec(temperature=5e307), 1.0, 0.0),  # 2 w overflows where e^{-w t} is 0
])
def test_thermal_limits_at_the_edges_of_float_range(spec, t, expected):
    assert thermal_correlator(spec, t) == expected


_EXACT = decimal.Context(prec=50, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.InvalidOperation, decimal.DivisionByZero])
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
_TOP = Decimal(2**1024 - 2**970)  # the least value that rounds to inf
EPS = sys.float_info.epsilon


def _kernel_exact(spec: BathSpec, t: float) -> tuple[Decimal, Decimal]:
    """u = w t and (u / sinh u / t)**2 at 50 digits from the float inputs."""
    with decimal.localcontext(_EXACT):
        u = _PI * Decimal(spec.kB) * Decimal(spec.temperature) / Decimal(spec.hbar) * Decimal(t)
        if u < 1:  # sinh u / u as its series: e^u - e^-u would cancel
            total, term, k = Decimal(1), Decimal(1), 1
            while term > Decimal("1e-55"):
                term *= u * u / ((2 * k) * (2 * k + 1))
                total, k = total + term, k + 1
            f = 1 / total
        else:
            f = 2 * u * (-u).exp() / (1 - (-2 * u).exp())
        return u, (f / Decimal(t)) ** 2


def _kernel_bound(spec: BathSpec, t: float, u: Decimal, log_path: bool) -> float:
    """The kernel's relative error bound, derived to first order in EPS = 2**-52.

    C = (f(u) / t)**2 with f = u / sinh u, so a relative error du in u moves C by
    |d ln C / d ln u| du = 2 |1 - u coth u| du.  du is
    - on the product path, pi's rounding and those of three products and a quotient:
      below 3 EPS;
    - on the log path (``_saturated``), five logs, each within 1 ulp of |ln x|, and
      four sums, each within EPS/2 of a partial sum below S = sum |p ln x|, make the
      log's absolute error below 3 EPS S; exp adds 1 ulp: du < 3 EPS S + EPS.
    (Where u is subnormal its error is absolute, but there f = 1 - u**2/6 rounds to 1.)
    At a given u the evaluation adds 11 EPS: exp(-u/2) (1 ulp) taken twice, u * half
    (EPS/2), expm1 (1 ulp), the divide, half / t and their product (EPS/2 each) are
    5 EPS in f / t, doubled by the square, plus the square's own EPS/2.
    """
    if log_path:
        factors = (math.pi, spec.kB, spec.temperature, spec.hbar, t)
        s = sum(abs(math.log(x)) for x in factors if x)  # T = 0 gives u = 0 exactly
        du = 3 * EPS * s + EPS
    else:
        du = 3 * EPS
    v = min(float(u), 1e300)  # beyond, C is 0 to far below the least subnormal
    amplification = 2 * abs(1 - v / math.tanh(v)) if v else 0.0
    return amplification * du + 11 * EPS


def _thermal_within_bound(kB: float, temperature: float, hbar: float, t: float) -> None:
    """The kernel against its 50-digit value, within ``_kernel_bound`` relative and one
    subnormal absolute; inf stands for any value past the largest float."""
    spec = BathSpec(temperature=temperature, hbar=hbar, kB=kB)
    with mock.patch.object(bath, "_saturated", wraps=bath._saturated) as log_path:
        got = thermal_correlator(spec, t)
    u, exact = _kernel_exact(spec, t)
    bound = _kernel_bound(spec, t, u, log_path.called)
    with decimal.localcontext(_EXACT):
        exact = min(exact, _TOP)
        error = abs((_TOP if got == math.inf else Decimal(got)) - exact)
        assert error <= Decimal(bound) * exact + Decimal(2.0**-1074), (got, float(exact), bound)


_LOG_UNIFORM = st.floats(-300, 300).map(lambda e: 10.0**e)


@given(kB=_LOG_UNIFORM, temperature=_LOG_UNIFORM, hbar=_LOG_UNIFORM, t=_LOG_UNIFORM)
@example(kB=1e200, temperature=1e200, hbar=1e300, t=1e-120)  # w overflows: 1.0e240
@example(kB=1e-200, temperature=1e-200, hbar=1e-300, t=1e101)  # kB T underflows: 2.0e-226
@example(kB=1e-200, temperature=1e-120, hbar=1e-300, t=1e20)  # pi kB T subnormal, w normal
@example(kB=1.0, temperature=2.3e202, hbar=1.0, t=1e-200)  # u = 723: e^-u is subnormal
@example(kB=1.0, temperature=0.0, hbar=1.0, t=1e-170)  # the six edge cases above
@example(kB=1.0, temperature=0.0, hbar=1.0, t=9e-155)
@example(kB=1.0, temperature=1e-320, hbar=1.0, t=1e-10)
@example(kB=1.0, temperature=1e-300, hbar=1.0, t=1e-10)
@example(kB=1.0, temperature=1e300, hbar=1e-300, t=1.0)
@example(kB=1.0, temperature=5e307, hbar=1.0, t=1.0)
@settings(max_examples=400, deadline=None)
def test_thermal_kernel_within_its_bound_of_the_exact_value(kB, temperature, hbar, t):
    _thermal_within_bound(kB, temperature, hbar, t)


@given(temperature=st.floats(0, 100), t=st.floats(-6, 6).map(lambda e: 10.0**e))
@settings(max_examples=200, deadline=None)
def test_thermal_kernel_within_its_bound_in_natural_units(temperature, t):
    _thermal_within_bound(1.0, temperature, 1.0, t)


def test_thermal_invalid_time():
    with pytest.raises(ValueError):
        thermal_correlator(NAT, 0.0)
    with pytest.raises(ValueError):
        thermal_correlator(NAT, -1.0)
    with pytest.raises(ValueError, match="t must be positive"):
        thermal_correlator(NAT, math.nan)


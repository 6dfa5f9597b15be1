import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codebath.bath import BathSpec, RegimeLabel, classify_regime
from codebath.errors import ResourceLimitError
from codebath.lifetimes import j_of_L, lambda_bar_sq
from codebath.surface_code import TieBreak, failure_census
from codebath.wick import MatchingProblem, check_matching_ceiling, matching_sum


# brute-force oracle: the (n-1)!! recursion pairs the smallest unmatched site
# with every partner, so each matching is visited exactly once
def oracle_sum(positions, z):
    n = len(positions)
    expo = -2.0 * z
    w = [
        [abs(positions[i] - positions[j]) ** expo if i != j else 0.0 for j in range(n)]
        for i in range(n)
    ]
    used = [False] * n

    def rec(remaining, acc, lo):
        if remaining == 0:
            return acc
        i = lo
        while used[i]:
            i += 1
        used[i] = True
        total = 0.0
        for j in range(i + 1, n):
            if not used[j]:
                used[j] = True
                total += rec(remaining - 2, acc * w[i][j], i + 1)
                used[j] = False
        used[i] = False
        return total

    return rec(n, 1.0, 0)


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_matching_sum_single_pair():
    for z in (0.0, 0.5, 1.0, 2.0):
        assert matching_sum(MatchingProblem((0, 1), z)) == 1.0


def test_matching_sum_frozen_examples():
    # three pairings of [0,1,2,3]: weights 1, (2*2)^-2z, (3*1)^-2z
    s1 = matching_sum(MatchingProblem((0, 1, 2, 3), 1.0))
    assert s1 == pytest.approx(1 + 1 / 16 + 1 / 9, abs=1e-12)
    assert s1 == pytest.approx(1.173611, abs=1e-6)
    s2 = matching_sum(MatchingProblem((0, 1, 2, 3), 0.5))
    assert s2 == pytest.approx(1 + 1 / 4 + 1 / 3, abs=1e-12)
    assert s2 == pytest.approx(1.583333, abs=1e-6)


def test_matching_sum_z0_is_double_factorial():
    for n in range(2, 25, 2):
        got = matching_sum(MatchingProblem(tuple(range(n)), 0.0))
        assert got == float(double_factorial(n - 1))


@given(
    n_half=st.integers(1, 4),
    z=st.sampled_from([0.25, 0.5, 1.0]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_matching_sum_matches_oracle(n_half, z, data):
    gaps = data.draw(st.lists(st.integers(1, 5), min_size=2 * n_half, max_size=2 * n_half))
    positions = [0]
    for g in gaps[1:]:
        positions.append(positions[-1] + g)
    got = matching_sum(MatchingProblem(tuple(positions), z))
    assert got == pytest.approx(oracle_sum(positions, z), rel=1e-12)


def _spaced(n, seed):
    if seed is None:
        return tuple(range(n))
    rng = random.Random(seed)
    positions = [0]
    for _ in range(n - 1):
        positions.append(positions[-1] + rng.randint(1, 5))
    return tuple(positions)


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("z", [0.25, 0.5, 1.0, 1.5])
def test_matching_sum_equals_enumeration(z, seed):
    # unit spacing (seed None) and random integer gaps, every even n <= 14
    for n in range(2, 15, 2):
        positions = _spaced(n, seed)
        got = matching_sum(MatchingProblem(positions, z))
        assert got == pytest.approx(oracle_sum(positions, z), rel=1e-12)


def absolute_mask_sum(positions, z):
    """The pairing-sum DP over absolute masks with one table per call, as
    ``matching_sum`` keeps it for sites not equally spaced.  Its offset masks
    on equally spaced sites do the same float operations in the same order."""
    expo = -2.0 * z
    table = {0: 1.0}

    def rest(mask):
        if mask not in table:
            i = (mask & -mask).bit_length() - 1
            others = m = mask ^ (1 << i)
            total = 0.0
            while m:
                bit = m & -m
                j = bit.bit_length() - 1
                total += abs(positions[i] - positions[j]) ** expo * rest(others ^ bit)
                m ^= bit
            table[mask] = total
        return table[mask]

    return rest((1 << len(positions)) - 1)


def test_one_memo_serves_every_problem_exactly():
    """One dict filled by equally spaced problems at several z, spacings and
    offsets, in shuffled and repeated order: each sum is the memo-free sum and
    the absolute-mask DP's, to the bit.  Gapped sites given the same dict
    still match the enumeration and leave the dict as it was."""
    memo = {}
    problems = [MatchingProblem(tuple(range(start, start + n * step, step)), z)
                for z in (0.0, 0.37, 1.0, 1.5) for step in (1, 2, 3)
                for start in (-4, 0, 5) for n in (2, 6, 10, 14)]
    random.Random(1).shuffle(problems)
    for problem in problems + problems[::3]:
        got = matching_sum(problem, memo)
        assert got == matching_sum(problem) == absolute_mask_sum(problem.positions, problem.z)
    assert set(memo) == {(-2.0 * z, step) for z in (0.0, 0.37, 1.0, 1.5) for step in (1, 2, 3)}
    kept = {key: dict(table) for key, table in memo.items()}
    for seed in (1, 2):
        positions = _spaced(12, seed)
        for z in (0.37, 1.0):
            got = matching_sum(MatchingProblem(positions, z), memo)
            assert got == absolute_mask_sum(positions, z)
            assert got == pytest.approx(oracle_sum(positions, z), rel=1e-12)
    assert memo == kept


@given(offset=st.integers(-1000, 1000))
@settings(max_examples=30, deadline=None)
def test_matching_sum_translation_invariant(offset):
    base = (0, 1, 3, 7, 8, 12)
    shifted = tuple(p + offset for p in base)
    assert matching_sum(MatchingProblem(base, 0.7)) == matching_sum(
        MatchingProblem(shifted, 0.7)
    )


def test_matching_sum_decreases_with_z():
    positions = (0, 1, 2, 5)
    values = [matching_sum(MatchingProblem(positions, z)) for z in (0.2, 0.5, 0.8, 1.2)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_matching_problem_validation():
    with pytest.raises(ValueError):
        MatchingProblem((0, 1, 2), 1.0)  # odd
    with pytest.raises(ValueError):
        MatchingProblem((3, 1), 1.0)  # not increasing
    with pytest.raises(ValueError):
        MatchingProblem((), 1.0)
    with pytest.raises(ValueError, match="positions must be integers"):
        MatchingProblem((0, 1.5), 1.0)
    for z in (-1e-300, -1.0, math.nan):
        with pytest.raises(ValueError, match="z must be >= 0"):
            MatchingProblem((0, 1), z)
    check_matching_ceiling(24)
    with pytest.raises(ResourceLimitError, match="n = 26 above pairing-sum ceiling 24"):
        matching_sum(MatchingProblem(tuple(range(26)), 1.0))


def weight_trend(ns, z):
    """Per-pair weights w(n) = S(n)**(2/n) of unit-spaced strings (the ``matching``
    task's ``per_pair_weight``), their increments and their log-log slope in n."""
    weights = [matching_sum(MatchingProblem(tuple(range(n)), z)) ** (2.0 / n) for n in ns]
    increments = [b - a for a, b in zip(weights, weights[1:])]
    lx = [math.log(n) for n in ns]
    ly = [math.log(w) for w in weights]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    slope = sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sum((x - mx) ** 2 for x in lx)
    return weights, increments, slope


def test_probe_bounded_trend_z1():
    assert classify_regime(1.0, 1.0) is RegimeLabel.SHORT_RANGE
    _, incs, _ = weight_trend(range(4, 13, 2), 1.0)
    assert all(inc > 0 for inc in incs)
    assert all(b < a for a, b in zip(incs, incs[1:]))


def test_probe_power_trend_z025():
    assert classify_regime(0.25, 1.0) is RegimeLabel.LONG_RANGE
    _, incs, slope = weight_trend(range(4, 13, 2), 0.25)
    assert all(inc > 0 for inc in incs)
    assert slope > 0.3


def test_probe_log_trend_z05():
    assert classify_regime(0.5, 1.0) is RegimeLabel.CRITICAL
    _, incs, _ = weight_trend(range(4, 13, 2), 0.5)
    assert all(inc > 0 for inc in incs)
    assert all(b < a for a, b in zip(incs, incs[1:]))


def test_probe_trends_hold_to_n20():
    # the C07 trend properties, checked out to n = 20
    ns = range(4, 21, 2)
    weights, incs, _ = weight_trend(ns, 1.0)
    assert all(b < a for a, b in zip(incs, incs[1:]))
    w = dict(zip(ns, weights))
    assert w[20] - w[16] < w[8] - w[4]

    _, incs, slope = weight_trend(ns, 0.25)
    assert all(i > 0 for i in incs)
    assert slope > 0

    weights, incs, _ = weight_trend(ns, 0.5)
    assert all(i > 0 for i in incs)
    assert all(b < a for a, b in zip(incs, incs[1:]))
    lw = [math.log(v) for v in weights]
    ln = [math.log(n) for n in ns]
    local = [(lw[i + 1] - lw[i]) / (ln[i + 1] - ln[i]) for i in range(len(lw) - 1)]
    assert all(b < a for a, b in zip(local, local[1:]))


def test_probe_trend_flips_at_zeta_one_half_for_a_subohmic_bath():
    """At s = 0.5 the threshold z = 1/(s+1) = 2/3 is zeta = 1/2: the pairing
    sum run at a sub-Ohmic bath's zeta falls in the regime its bath names, and
    grows more slowly (a smaller log-log slope) the larger zeta is."""
    slopes = []
    for z in (0.4, 2 / 3, 1.0):
        spec = BathSpec(z=z, s=0.5)
        _, incs, slope = weight_trend(range(4, 17, 2), spec.zeta)
        assert classify_regime(spec.zeta, 1.0) is spec.regime
        assert all(i > 0 for i in incs)
        slopes.append(slope)
    assert slopes == sorted(slopes, reverse=True) and len(set(slopes)) == 3


def test_lambda_bar_sq_in_each_regime():
    # natural units with lam*tau/hbar = 1, a = a0 = 1
    assert lambda_bar_sq(BathSpec(z=1.0), 8) == pytest.approx(16.0)
    assert lambda_bar_sq(BathSpec(z=0.5), 8) == pytest.approx(16.0 * math.log(8), rel=1e-12)
    assert lambda_bar_sq(BathSpec(z=0.5), 8) == pytest.approx(33.27, abs=0.01)
    assert lambda_bar_sq(BathSpec(z=0.25), 16) == pytest.approx(64.0)


def test_lambda_bar_sq_prefactors():
    # base = 16 (lam tau / hbar)^2 / (a0^(2(1-z)) a^(2z)) evaluated directly
    spec = BathSpec(z=0.8, lam=0.3, tau_qec=2.0, a=1.5, a0=0.25, hbar=2.0)
    expected = (
        16 * (0.3 * 2.0) ** 2 / (2.0**2 * 0.25 ** (2 * (1 - 0.8)) * 1.5 ** (2 * 0.8))
    )
    assert lambda_bar_sq(spec, 10) == pytest.approx(expected, rel=1e-12)


def test_lambda_bar_sq_saturates_out_of_float_range():
    assert lambda_bar_sq(BathSpec(a=1e200), 4) == 0.0  # denominator overflows
    assert lambda_bar_sq(BathSpec(hbar=1e-300), 4) == math.inf  # denominator underflows
    assert lambda_bar_sq(BathSpec(a0=1e-300, z=0.25), 16) == math.inf
    assert lambda_bar_sq(BathSpec(hbar=1e-300, lam=0.0), 4) == 0.0
    assert lambda_bar_sq(BathSpec(lam=1e308), 4) == math.inf  # coupling overflows
    # inf * 0 inside the denominator: 16 / (1e200 * 1e200 * 1e-800) is 1.6e401
    assert lambda_bar_sq(BathSpec(hbar=1e100, a0=1e-100, a=1e-200, z=2.0), 4) == math.inf
    # back in range through the log form: 16 * 1e-300 / (1e-200 * 1e-200) = 1.6e101
    spec = BathSpec(lam=1e-150, hbar=1e-100, a=1e-100, z=1.0)
    assert lambda_bar_sq(spec, 4) == pytest.approx(1.6e101, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.0, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(0.6, 3.0),
)
# (lam tau)**2 underflows to 0.0, yet 16 lam**2 a0**4 rounds to the least subnormal, 5e-324
@example(lam=2.0163727310224186e-164, a=1.0, a0=5.0, z=3.0)
def test_lambda_bar_sq_in_range_is_the_plain_expression(lam, a, a0, z):
    spec = BathSpec(lam=lam, a=a, a0=a0, z=z)
    plain = 16.0 * (lam * 1.0) ** 2 / (1.0**2 * a0 ** (2.0 * (1.0 - z)) * a ** (2.0 * z))
    if plain == 0.0 < lam:  # the plain expression underflowed: the value is its log sum
        plain = math.exp(sum(p * math.log(x) for x, p in (
            (16.0, 1), (lam, 2), (a0, -2.0 * (1.0 - z)), (a, -2.0 * z))))
    assert lambda_bar_sq(spec, 4) == plain


def test_lambda_bar_sq_guards():
    with pytest.raises(ValueError):
        lambda_bar_sq(BathSpec(), 7)
    with pytest.raises(ValueError):
        lambda_bar_sq(BathSpec(), 0)


def test_lambda_bar_sq_L_independence_iff_short_range():
    for z in (0.25, 0.4, 0.5, 0.6, 1.0):
        spec = BathSpec(z=z)
        same = lambda_bar_sq(spec, 8) == lambda_bar_sq(spec, 32)
        assert same == (classify_regime(z, 1.0) is RegimeLabel.SHORT_RANGE)


SHORT, CRITICAL, LONG = RegimeLabel.SHORT_RANGE, RegimeLabel.CRITICAL, RegimeLabel.LONG_RANGE


@pytest.mark.parametrize("z, s, regime", [
    (1.0, 1.0, SHORT), (0.5, 1.0, CRITICAL), (0.3, 1.0, LONG),
    (1.0, 0.5, SHORT), (2 / 3, 0.5, CRITICAL), (0.3, 0.5, LONG),
    (0.51, 0.5, LONG),  # between 1/2 and 1/(s+1)
])
def test_lambda_bar_sq_follows_the_summed_correlator(z, s, regime):
    # sum the equal-time correlator lam**2 / (a0**(2(1-zeta)) |x|**(2 zeta)) over
    # the separations 1..L directly: it is bounded, grows like ln L or like
    # L**(1-2 zeta), and its ratio to the contraction weight must level off in L
    spec = BathSpec(z=z, s=s, a=2.0)
    assert spec.regime is regime
    lam, a0, zeta = spec.lam, spec.a0, spec.zeta
    total, ratios = 0.0, []
    for x in range(1, 2**14 + 1):
        total += lam**2 / (a0 ** (2.0 * (1.0 - zeta)) * x ** (2.0 * zeta))
        if x >= 2 and not x & (x - 1):
            ratios.append(total / lambda_bar_sq(spec, x))
    steps = [abs(b / a - 1.0) for a, b in zip(ratios, ratios[1:])]
    assert steps[-5:] == sorted(steps[-5:], reverse=True)
    assert steps[-1] < 0.025


def stirling_over_exact(L):
    # at the default bath lbar^2 = 16, so (lbar^2)**(L/4) = 2**L and j(L) is the Stirling
    # form sqrt(2L/pi) 2**L of the L C(L, L/2) failure paths: L times the census's ties
    return j_of_L(BathSpec(), L) / (L * failure_census(L, L // 2, TieBreak.REPORT).n_tie)


def test_n_paths_small_values():
    assert [L * failure_census(L, L // 2, TieBreak.REPORT).n_tie for L in (2, 4)] == [4, 24]


def test_stirling_ratio():
    ratio = stirling_over_exact(100)
    assert ratio == pytest.approx(1.0025, abs=5e-4)
    assert 0.997 <= ratio <= 1.005
    # convergence toward 1 with growing L
    assert abs(stirling_over_exact(400) - 1) < abs(ratio - 1)


def test_classify_regime_examples():
    assert classify_regime(1.0, 1.0) is RegimeLabel.SHORT_RANGE
    assert classify_regime(0.5, 1.0) is RegimeLabel.CRITICAL
    assert classify_regime(0.3, 1.0) is RegimeLabel.LONG_RANGE


def test_classify_regime_compares_rationals_as_floats():
    assert classify_regime(Fraction(1, 3), Fraction(1, 1)) is RegimeLabel.LONG_RANGE
    assert classify_regime(Fraction(2, 3), Fraction(1, 2)) is RegimeLabel.CRITICAL
    assert classify_regime(Fraction(3, 4), Fraction(1, 2)) is RegimeLabel.SHORT_RANGE
    # within _CRITICAL_TOL of 1/(s+1) is critical, for a Fraction as for a float
    assert classify_regime(Fraction(1, 2) + Fraction(1, 10**15), 1) is RegimeLabel.CRITICAL


def test_classify_regime_float_tolerance():
    assert classify_regime(0.5 + 1e-13, 1.0) is RegimeLabel.CRITICAL
    assert classify_regime(0.5 + 1e-9, 1.0) is RegimeLabel.SHORT_RANGE
    assert classify_regime(0.5 - 1e-9, 1.0) is RegimeLabel.LONG_RANGE

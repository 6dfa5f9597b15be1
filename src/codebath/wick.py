"""Exact pairing sums along an error string and the scaling laws they feed.

The pairing sum is computed by an exact DP, independent of the asymptotic
formulas: it is the desk-scale oracle they are checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .bath import BathSpec
from .errors import ResourceLimitError

MATCHING_HARD_LIMIT = 24   # 75025 memoized subsets, ~0.3 s: the pairing-sum ceiling
_CRITICAL_TOL = 1e-12      # floats this close to the regime boundary count as critical
_EXP_ARG_MAX = 709.0
_RANGE_ERRORS = (OverflowError, ZeroDivisionError)  # a float expression leaving float range


def _exp(x: float) -> float:
    return math.inf if x > _EXP_ARG_MAX else math.exp(x)


def _saturated(powers) -> float:
    """prod(x ** p for x, p in ``powers``), all x >= 0, summed in logs: the value
    of a closed form whose float expression left float range (raised, or gave
    nan from inf * 0), saturated to 0 or inf (0 if x = 0, p > 0)."""
    log = sum(p * (math.log(x) if x else -math.inf) for x, p in powers)
    return 0.0 if math.isnan(log) else _exp(log)


class RegimeLabel(Enum):
    """Spatial-correlation regime of the environment."""

    SHORT_RANGE = "ShortRange"
    CRITICAL = "Critical"
    LONG_RANGE = "LongRange"


def classify_regime(z, s=1.0) -> RegimeLabel:
    """Compare z against 1/(s+1) as floats: above is short range, within
    ``_CRITICAL_TOL`` of it is critical, below is long range."""
    if z <= 0:
        raise ValueError("z must be positive")
    if not 0 < s <= 1:
        raise ValueError("s must lie in (0, 1]")
    gap = z - 1.0 / (s + 1.0)  # a float for float, int or Fraction z and s
    if abs(gap) <= _CRITICAL_TOL:
        return RegimeLabel.CRITICAL
    return RegimeLabel.SHORT_RANGE if gap > 0 else RegimeLabel.LONG_RANGE


@dataclass(frozen=True)
class MatchingProblem:
    """An even number of distinct integer sites plus the decay exponent z >= 0."""

    positions: tuple[int, ...]
    z: float

    def __post_init__(self):
        pos = tuple(self.positions)
        object.__setattr__(self, "positions", pos)
        if len(pos) < 2 or len(pos) % 2:
            raise ValueError("need an even number (>= 2) of positions")
        if any(not isinstance(p, int) or isinstance(p, bool) for p in pos):
            raise ValueError("positions must be integers")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("positions must be strictly increasing")
        if not self.z >= 0:  # also refuses NaN; a negative z overflows the weights
            raise ValueError("z must be >= 0")


def matching_sum(problem: MatchingProblem) -> float:
    """Sum over all (n-1)!! perfect matchings of prod |x_i - x_j|**(-2z).

    This is the hafnian of the weight matrix, computed by a DP over the set
    of unmatched sites: the lowest unmatched site pairs with every other
    one, and each subset's sum is memoized for the duration of the call.
    Only Fibonacci(n + 1) subsets are reachable that way, so the cost is
    O(n * 1.62**n) (within the O(n * 2**n) bound of the general DP).
    """
    pos = problem.positions
    n = len(pos)
    check_probe_ceiling(n)
    expo = -2.0 * problem.z
    w = [
        [abs(pos[i] - pos[j]) ** expo if i != j else 0.0 for j in range(n)]
        for i in range(n)
    ]
    memo = {0: 1.0}

    def rest(mask: int) -> float:
        # sum over the perfect matchings of the sites whose bits are set
        total = memo.get(mask)
        if total is not None:
            return total
        lowest = mask & -mask
        wi = w[lowest.bit_length() - 1]
        others = mask ^ lowest
        total = 0.0
        m = others
        while m:
            bit = m & -m
            total += wi[bit.bit_length() - 1] * rest(others ^ bit)
            m ^= bit
        memo[mask] = total
        return total

    return rest((1 << n) - 1)


def check_probe_ceiling(n: int) -> None:
    """Raise ResourceLimitError when n sites are more than the pairing sum takes."""
    if n > MATCHING_HARD_LIMIT:
        raise ResourceLimitError(f"n = {n} above probe ceiling {MATCHING_HARD_LIMIT}")


@dataclass(frozen=True)
class ProbeResult:
    """Per-pair effective weights w(n) = S(n)**(2/n) over a ladder of sizes."""

    z: float
    regime: RegimeLabel
    n_values: tuple[int, ...]
    sums: tuple[float, ...]
    weights: tuple[float, ...]
    increments: tuple[float, ...]
    loglog_slope: float

    @property
    def trend_label(self) -> str:
        return {
            RegimeLabel.SHORT_RANGE: "bounded",
            RegimeLabel.CRITICAL: "logarithmic",
            RegimeLabel.LONG_RANGE: "power_law",
        }[self.regime]


def matching_scaling_probe(n_values, z) -> ProbeResult:
    """Evaluate the pairing sum on unit-spaced strings and report its trend.

    The label comes from comparing z against 1/2 (the s = 1 criterion); the
    raw weights let callers verify the trend class directly.  Sizes above
    ``MATCHING_HARD_LIMIT`` and a z <= 0 are refused before any sum is computed.
    """
    ns = tuple(int(n) for n in n_values)
    if len(ns) < 3:
        raise ValueError("need at least 3 sample sizes to read off a trend")
    if any(n < 2 or n % 2 for n in ns):
        raise ValueError("sample sizes must be even and >= 2")
    check_probe_ceiling(max(ns))
    regime = classify_regime(float(z), 1.0)
    ns = tuple(sorted(ns))
    sums = tuple(matching_sum(MatchingProblem(tuple(range(n)), z)) for n in ns)
    weights = tuple(s ** (2.0 / n) for s, n in zip(sums, ns))
    increments = tuple(b - a for a, b in zip(weights, weights[1:]))
    lx = [math.log(n) for n in ns]
    ly = [math.log(wt) for wt in weights]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    slope = sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sum(
        (x - mx) ** 2 for x in lx
    )
    return ProbeResult(
        z=float(z),
        regime=regime,
        n_values=ns,
        sums=sums,
        weights=weights,
        increments=increments,
        loglog_slope=slope,
    )


def check_even_L(L) -> None:
    """Raise ValueError unless L is an even integer >= 2 (a code distance)."""
    if not isinstance(L, int) or isinstance(L, bool) or L < 2 or L % 2:
        raise ValueError("L must be an even integer >= 2")


def lambda_bar_sq(spec: BathSpec, L: int) -> float:
    """Effective per-segment contraction weight entering the macroscopic coupling.

    Base value 16 (lam tau / hbar)**2 / (a0**(2(1-z)) a**(2z)); multiplied by
    ln L at z = 1/2 and by L**(1-2z) below it.  Branches on z against 1/2
    (the s = 1 spatial criterion); ln L > 0 is guaranteed by L >= 2.  Out of
    float range the base saturates: to inf for an overflowing coupling or an
    underflowing denominator, to 0 for an overflowing denominator.
    """
    check_even_L(L)
    return _lambda_bar_sq(spec, L, classify_regime(spec.z, 1.0))


def _lambda_bar_sq(spec: BathSpec, L: int, branch: RegimeLabel) -> float:
    """``lambda_bar_sq`` on the ``branch`` given, for an L already checked."""
    try:
        base = 16.0 * (spec.lam * spec.tau_qec) ** 2 / (
            spec.hbar**2 * spec.a0 ** (2.0 * (1.0 - spec.z)) * spec.a ** (2.0 * spec.z))
    except _RANGE_ERRORS:
        base = math.nan
    if base != base:
        base = _saturated(((16.0, 1), (spec.lam, 2), (spec.tau_qec, 2), (spec.hbar, -2),
                           (spec.a0, -2.0 * (1.0 - spec.z)), (spec.a, -2.0 * spec.z)))
    if branch is RegimeLabel.SHORT_RANGE:
        return base
    if branch is RegimeLabel.CRITICAL:
        return base * math.log(L)
    return base * L ** (1.0 - 2.0 * spec.z)


def n_paths(L: int) -> int:
    """Exact number of degenerate failure pathways, L * C(L, L/2)."""
    check_even_L(L)
    if L > 512:
        raise ResourceLimitError("exact path count is guarded at L <= 512")
    return L * math.comb(L, L // 2)


def n_paths_stirling(L: int) -> float:
    """Stirling form sqrt(2L/pi) * 2**L of the exact path count."""
    check_even_L(L)
    return _exp(0.5 * math.log(2.0 * L / math.pi) + L * math.log(2.0))

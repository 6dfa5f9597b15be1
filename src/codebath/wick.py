"""Exact combinatorics of an error string: pairing sums, path counts, the distance check.

The pairing sum is computed by an exact DP, independent of the asymptotic
formulas of :mod:`codebath.lifetimes`: it is the desk-scale oracle they are
checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bath import RegimeLabel, _exp, classify_regime
from .errors import ResourceLimitError

MATCHING_HARD_LIMIT = 24   # 75025 memoized subsets, ~0.3 s: the pairing-sum ceiling


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

    ``z`` is a bath's per-coupling exponent zeta (its z at s = 1), so the label
    compares it with 1/2; the raw weights let callers verify the trend.  Sizes
    above ``MATCHING_HARD_LIMIT`` and a z <= 0 are refused before any sum.
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

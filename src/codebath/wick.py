"""Exact combinatorics of an error string: the pairing sum.

The pairing sum is computed by an exact DP, independent of the asymptotic
formulas of :mod:`codebath.lifetimes`: it is the desk-scale oracle they are
checked against.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    check_matching_ceiling(n)
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


def check_matching_ceiling(n: int) -> None:
    """Raise ResourceLimitError when n sites are more than the pairing sum takes."""
    if n > MATCHING_HARD_LIMIT:
        raise ResourceLimitError(f"n = {n} above pairing-sum ceiling {MATCHING_HARD_LIMIT}")

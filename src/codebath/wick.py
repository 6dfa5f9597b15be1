"""Exact combinatorics of an error string: the pairing sum.

The pairing sum is computed by an exact DP, independent of the asymptotic
formulas of :mod:`codebath.lifetimes`: it is the desk-scale oracle they are
checked against.  Its sites are equally spaced, so it keys each subset by its
offsets from its lowest site, in a memo that a ``matching`` run shares across
its n axis and drops when it ends.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimitError

MATCHING_HARD_LIMIT = 24   # 46369 memoized subsets, ~0.2 s: the pairing-sum ceiling


@dataclass(frozen=True)
class MatchingProblem:
    """An even number of equally spaced, increasing integer sites and the exponent z >= 0."""

    positions: tuple[int, ...]
    z: float

    def __post_init__(self):
        pos = tuple(self.positions)
        object.__setattr__(self, "positions", pos)
        if len(pos) < 2 or len(pos) % 2:
            raise ValueError("need an even number (>= 2) of positions")
        if any(not isinstance(p, int) or isinstance(p, bool) for p in pos):
            raise ValueError("positions must be integers")
        step = pos[1] - pos[0]
        if step <= 0 or any(b - a != step for a, b in zip(pos, pos[1:])):
            raise ValueError("positions must be equally spaced and increasing")
        if not self.z >= 0:  # also refuses NaN; a negative z overflows the weights
            raise ValueError("z must be >= 0")


def matching_sum(problem: MatchingProblem, memo: dict | None = None) -> float:
    """Sum over all (n-1)!! perfect matchings of prod |x_i - x_j|**(-2z).

    This is the hafnian of the weight matrix, computed by a DP over the set
    of unmatched sites: the lowest unmatched site pairs with every other
    one, and each subset's sum is memoized.  Only Fibonacci(n + 1) subsets
    are reachable that way, so the cost is O(n * 1.62**n) (within the
    O(n * 2**n) bound of the general DP).

    A subset's sum depends only on its sites' offsets from its lowest one, so
    its mask is shifted down to that site: the weights are one row of distance
    powers, and the last m sites are the m-site problem.  That table lives in
    ``memo`` under (-2z, spacing), so one dict shared by several calls keeps
    every smaller problem's sums and never mixes two problems'.
    """
    pos = problem.positions
    n = len(pos)
    check_matching_ceiling(n)
    expo = -2.0 * problem.z
    w = [abs(pos[0] - b) ** expo if b != pos[0] else 0.0 for b in pos]
    table = {0: 1.0} if memo is None else memo.setdefault((expo, pos[1] - pos[0]), {0: 1.0})

    def rest(mask: int) -> float:
        # sum over the perfect matchings of the set bits, not yet in table; bit 0 is lowest
        others = m = mask ^ 1
        total = 0.0
        while m:
            bit = m & -m
            child = others ^ bit
            if child:
                child //= child & -child
            sub = table.get(child)
            total += w[bit.bit_length() - 1] * (rest(child) if sub is None else sub)
            m ^= bit
        table[mask] = total
        return total

    full = (1 << n) - 1
    return table[full] if full in table else rest(full)


def check_matching_ceiling(n: int) -> None:
    """Raise ResourceLimitError when n sites are more than the pairing sum takes."""
    if n > MATCHING_HARD_LIMIT:
        raise ResourceLimitError(f"n = {n} above pairing-sum ceiling {MATCHING_HARD_LIMIT}")

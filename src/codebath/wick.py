"""Exact combinatorics of an error string: the pairing sum.

The pairing sum is computed by an exact DP, independent of the asymptotic
formulas of :mod:`codebath.lifetimes`: it is the desk-scale oracle they are
checked against.  On equally spaced sites it keys each subset by its offsets
from its lowest site, in a memo that a ``matching`` run shares across its n axis
and drops when it ends.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimitError

MATCHING_HARD_LIMIT = 24   # 46369 memoized subsets, ~0.2 s: the pairing-sum ceiling


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


def matching_sum(problem: MatchingProblem, memo: dict | None = None) -> float:
    """Sum over all (n-1)!! perfect matchings of prod |x_i - x_j|**(-2z).

    This is the hafnian of the weight matrix, computed by a DP over the set
    of unmatched sites: the lowest unmatched site pairs with every other
    one, and each subset's sum is memoized.  Only Fibonacci(n + 1) subsets
    are reachable that way, so the cost is O(n * 1.62**n) (within the
    O(n * 2**n) bound of the general DP).

    On equally spaced sites a subset's sum depends only on its sites' offsets
    from its lowest one, so its mask is shifted down to that site: the weights
    are one row of distance powers, and the last m sites are the m-site
    problem.  That table lives in ``memo`` under (-2z, spacing), so one dict
    shared by several calls keeps every smaller problem's sums and never mixes
    two problems'.  Other sites keep absolute masks in a table of the call's own.
    """
    pos = problem.positions
    n = len(pos)
    check_matching_ceiling(n)
    expo = -2.0 * problem.z
    step = pos[1] - pos[0]
    shift = pos == tuple(range(pos[0], pos[-1] + 1, step))
    rows = pos[:1] if shift else pos  # a shifted mask's lowest site is site 0
    w = [[abs(a - b) ** expo if a != b else 0.0 for b in pos] for a in rows]
    table = {0: 1.0}
    if shift and memo is not None:
        table = memo.setdefault((expo, step), table)

    def rest(mask: int) -> float:
        # sum over the perfect matchings of the sites whose bits are set, not yet in table
        lowest = mask & -mask
        wi = w[lowest.bit_length() - 1]
        others = mask ^ lowest
        total = 0.0
        m = others
        while m:
            bit = m & -m
            child = others ^ bit
            if shift and child:
                child //= child & -child
            sub = table.get(child)
            total += wi[bit.bit_length() - 1] * (rest(child) if sub is None else sub)
            m ^= bit
        table[mask] = total
        return total

    full = (1 << n) - 1
    return table[full] if full in table else rest(full)


def check_matching_ceiling(n: int) -> None:
    """Raise ResourceLimitError when n sites are more than the pairing sum takes."""
    if n > MATCHING_HARD_LIMIT:
        raise ResourceLimitError(f"n = {n} above pairing-sum ceiling {MATCHING_HARD_LIMIT}")

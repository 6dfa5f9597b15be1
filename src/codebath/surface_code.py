"""The failure census of a minimum-weight decoder on one row, and its tie rules.

The decoder works in "contour mode": a single length-L row with open ends,
junctions 0..L-2 between neighbouring positions.  Any junction defect set is
consistent with exactly two corrections (a set and its complement), so
minimum-weight decoding is exact here.  A weight-w chain is therefore
corrected when w < L/2, completed to a logical string when w > L/2, and
ties with its complement when w = L/2, which gives the failure census in
closed form.  The tests decode every chain as the oracle of that form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ResourceLimitError

CENSUS_MAX_L = 10_000  # C(10000, 5000) has 3009 digits, within str(int)'s 4300


class TieBreak(Enum):
    """How to resolve a syndrome with two minimum-weight corrections."""

    REPORT = "report"
    BENIGN = "benign"
    ADVERSARIAL = "adversarial"


@dataclass(frozen=True)
class CensusRecord:
    L: int
    weight: int
    rule: TieBreak
    n_success: int
    n_logical: int
    n_tie: int


def check_census(L: int, weight: int) -> None:
    """Raise ValueError unless weight-``weight`` chains fit a length-L contour,
    and ResourceLimitError for L above ``CENSUS_MAX_L``."""
    if not isinstance(L, int) or not isinstance(weight, int):
        raise ValueError("contour length and weight must be integers")
    if L < 2:
        raise ValueError("contour length must be >= 2")
    if L > CENSUS_MAX_L:
        raise ResourceLimitError(f"L = {L} above census ceiling {CENSUS_MAX_L}")
    if not 0 <= weight <= L:
        raise ValueError("weight must lie in 0..L")


def failure_census(L: int, weight: int, tie_break: TieBreak = TieBreak.REPORT) -> CensusRecord:
    """Tally the decoder outcomes over all C(L, weight) contour chains of that weight.

    The other correction consistent with a chain's syndrome is its
    complement, of weight L - weight.  Lighter chains are all corrected,
    heavier ones all complete the logical string, and at weight L/2 every
    chain is a tie that ``tie_break`` reports, resolves to success (benign)
    or to a logical error (adversarial).
    """
    check_census(L, weight)
    count = math.comb(L, weight)
    n_success = n_logical = n_tie = 0
    if 2 * weight < L or 2 * weight == L and tie_break is TieBreak.BENIGN:
        n_success = count
    elif 2 * weight > L or tie_break is TieBreak.ADVERSARIAL:
        n_logical = count
    else:
        n_tie = count
    return CensusRecord(L, weight, tie_break, n_success, n_logical, n_tie)

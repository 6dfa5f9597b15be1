"""The failure census against its oracle, a contour decoder run on every chain.

The decoder lives here, not in the package: no task decodes a chain, since
the census has a closed form.  It works on a single length-L row with open
ends, junctions 0..L-2 between neighbouring positions; chains, corrections
and syndromes are frozensets of positions and junctions.
"""
import itertools
import math

import pytest

from codebath.errors import ResourceLimitError
from codebath.surface_code import CENSUS_MAX_L, TieBreak, check_census, failure_census


def contour_syndrome(L, support):
    """Junction parity of a chain; the open ends absorb string endpoints."""
    return frozenset(j for j in range(L - 1) if (j in support) != (j + 1 in support))


def _contour_candidates(L, defects):
    # Walk the row toggling membership at each defect junction.  The two
    # candidates differ by which open end the correction terminates at.
    first = set()
    inside = False
    for p in range(L):
        if p > 0 and (p - 1) in defects:
            inside = not inside
        if inside:
            first.add(p)
    return frozenset(first), frozenset(range(L)) - first


def decode_contour(L, defects, tie_break, truth):
    """(correction, outcome) for a syndrome whose true chain is ``truth``.

    Exactly two corrections are consistent with any defect set; the lighter
    one wins, and equal weights are a tie resolved by ``tie_break``.  The
    outcome is "tie" for a reported tie, else "success" when the correction
    is the truth and "logical" when it completes the row: the residue is
    either empty or the full row, which spans both boundaries and flips the
    stored bit.
    """
    cand_a, cand_b = _contour_candidates(L, defects)
    if len(cand_a) != len(cand_b):
        chosen = min(cand_a, cand_b, key=len)
    elif tie_break is TieBreak.REPORT:
        return min(cand_a, cand_b, key=sorted), "tie"
    elif tie_break is TieBreak.BENIGN:
        chosen = truth
    else:  # ADVERSARIAL: complete the spanning chain
        chosen = cand_b if truth == cand_a else cand_a
    return chosen, "success" if chosen == truth else "logical"


# --- contour decoding -------------------------------------------------------


def oracle_boundary(L, support):
    """Junction parity computed independently of ``contour_syndrome``."""
    out = set()
    for j in range(L - 1):
        hits = (1 if j in support else 0) + (1 if j + 1 in support else 0)
        if hits == 1:
            out.add(j)
    return frozenset(out)


def oracle_min_corrections(L, defects):
    """Exhaustive search over all 2^L candidate corrections."""
    best, best_w = [], None
    for r in range(L + 1):
        for combo in itertools.combinations(range(L), r):
            if oracle_boundary(L, set(combo)) == defects:
                if best_w is None or r < best_w:
                    best, best_w = [frozenset(combo)], r
                elif r == best_w:
                    best.append(frozenset(combo))
    return best


def test_decode_unique_minimum():
    err = frozenset({0})
    syn = contour_syndrome(4, err)
    assert decode_contour(4, syn, TieBreak.REPORT, err) == (frozenset({0}), "success")
    assert oracle_min_corrections(4, syn) == [frozenset({0})]


def test_decode_tie_reported():
    err = frozenset({0, 1})
    syn = contour_syndrome(4, err)
    correction, outcome = decode_contour(4, syn, TieBreak.REPORT, err)
    assert outcome == "tie"
    assert set(oracle_min_corrections(4, syn)) == {frozenset({0, 1}), frozenset({2, 3})}
    assert correction in {frozenset({0, 1}), frozenset({2, 3})}


def test_decode_tie_adversarial_completes_logical():
    err = frozenset({0, 2})
    syn = contour_syndrome(4, err)
    assert set(oracle_min_corrections(4, syn)) == {frozenset({0, 2}), frozenset({1, 3})}
    assert decode_contour(4, syn, TieBreak.ADVERSARIAL, err) == (frozenset({1, 3}), "logical")


def test_decode_tie_benign_matches_truth():
    err = frozenset({0, 2})
    assert decode_contour(4, contour_syndrome(4, err), TieBreak.BENIGN, err) == (err, "success")


@pytest.mark.parametrize("L", [2, 4, 6, 8])
def test_decoder_soundness_and_classification(L):
    # every error: the correction clears the syndrome, and the residue is
    # either empty (success) or the full row crossing the dual string once
    for r in range(L + 1):
        for combo in itertools.combinations(range(L), r):
            err = frozenset(combo)
            syn = contour_syndrome(L, err)
            assert syn == oracle_boundary(L, err)
            rule = TieBreak.BENIGN if 2 * r == L else TieBreak.REPORT
            correction, outcome = decode_contour(L, syn, rule, err)
            residue = correction ^ err
            assert contour_syndrome(L, residue) == frozenset()
            assert residue in (frozenset(), frozenset(range(L)))
            crossing_parity = len(residue & {L // 2}) % 2
            assert (outcome == "logical") == (crossing_parity == 1)


@pytest.mark.parametrize("L", [4, 6, 8])
def test_every_half_weight_configuration_ties(L):
    rec = failure_census(L, L // 2, TieBreak.REPORT)
    assert rec.n_tie == math.comb(L, L // 2)
    assert rec.n_success == 0
    assert rec.n_logical == 0


def test_census_examples():
    rec = failure_census(4, 2, TieBreak.REPORT)
    assert (rec.n_success, rec.n_logical, rec.n_tie) == (0, 0, 6)
    rec = failure_census(4, 1, TieBreak.REPORT)
    assert rec.n_success == 4
    rec = failure_census(4, 2, TieBreak.ADVERSARIAL)
    assert rec.n_logical == 6
    rec = failure_census(4, 2, TieBreak.BENIGN)
    assert rec.n_success == 6


def test_census_totals():
    for weight in range(0, 7):
        rec = failure_census(6, weight, TieBreak.REPORT)
        assert rec.n_success + rec.n_logical + rec.n_tie == math.comb(6, weight)


def oracle_census(L, weight, rule):
    """(success, logical, tie) from decoding every weight-``weight`` chain."""
    counts = {"success": 0, "logical": 0, "tie": 0}
    for support in itertools.combinations(range(L), weight):
        err = frozenset(support)
        _, outcome = decode_contour(L, contour_syndrome(L, err), rule, err)
        counts[outcome] += 1
    return counts["success"], counts["logical"], counts["tie"]


@pytest.mark.parametrize("L", range(2, 13))
def test_census_equals_exhaustive_decoding(L):
    for weight in range(L + 1):
        for rule in TieBreak:
            rec = failure_census(L, weight, rule)
            assert (rec.L, rec.weight, rec.rule) == (L, weight, rule)
            assert (rec.n_success, rec.n_logical, rec.n_tie) == oracle_census(L, weight, rule)


def test_census_guards():
    rec = failure_census(22, 2, TieBreak.REPORT)
    assert (rec.n_success, rec.n_logical, rec.n_tie) == (231, 0, 0)
    rec = failure_census(22, 11, TieBreak.REPORT)
    assert (rec.n_success, rec.n_logical, rec.n_tie) == (0, 0, math.comb(22, 11))
    with pytest.raises(ValueError):
        failure_census(4, 5, TieBreak.REPORT)
    with pytest.raises(ValueError):
        failure_census(1, 0, TieBreak.REPORT)
    # the largest census still writes: its count has 3009 of str(int)'s 4300 digits
    half = CENSUS_MAX_L // 2
    assert len(str(failure_census(CENSUS_MAX_L, half, TieBreak.REPORT).n_tie)) == 3009
    with pytest.raises(ResourceLimitError, match="census ceiling"):
        check_census(CENSUS_MAX_L + 2, 0)


@pytest.mark.parametrize("L, weight", [(4, 2.5), (4.0, 2)])
def test_census_refuses_non_integer_sizes(L, weight):
    with pytest.raises(ValueError, match="must be integers"):
        check_census(L, weight)
    with pytest.raises(ValueError, match="must be integers"):
        failure_census(L, weight, TieBreak.REPORT)

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codebath.surface_code import (
    DecodeStatus,
    ErrorChain,
    Syndrome,
    TieBreak,
    build_code,
    check_census,
    contour_syndrome,
    decode_contour,
    failure_census,
    syndrome_of,
    vacuum_profile,
)


# --- lattice construction ---------------------------------------------------


def enumerate_layout(L):
    """Independent count of the edge layout: L rows of L horizontal edges,
    (L-1) gap rows of (L-1) vertical edges, stars on interior vertex columns,
    plaquettes on faces."""
    n_h = sum(1 for _ in itertools.product(range(L), range(L)))
    n_v = sum(1 for _ in itertools.product(range(L - 1), range(L - 1)))
    n_stars = sum(1 for _ in itertools.product(range(1, L), range(L)))
    n_plaq = sum(1 for _ in itertools.product(range(L), range(L - 1)))
    return n_h + n_v, n_stars, n_plaq


@pytest.mark.parametrize("L", [2, 4, 6])
def test_counts_match_independent_enumeration(L):
    code = build_code(L)
    n_qubits, n_stars, n_plaq = enumerate_layout(L)
    assert len(code.qubits) == n_qubits == L**2 + (L - 1) ** 2
    assert len(code.stars) == n_stars == L * (L - 1)
    assert len(code.plaquettes) == n_plaq == L * (L - 1)


@pytest.mark.parametrize("L", [2, 4, 6])
def test_all_star_plaquette_overlaps_even(L):
    code = build_code(L)
    for star in code.stars:
        for plaq in code.plaquettes:
            assert len(star & plaq) % 2 == 0


@pytest.mark.parametrize("L", [2, 4, 6])
def test_logical_operators(L):
    code = build_code(L)
    lx, lz = set(code.logical_x), set(code.logical_z)
    assert len(code.logical_x) == len(code.logical_z) == L
    assert len(lx & lz) % 2 == 1
    # Z string commutes with every X check and trivially with Z checks
    for star in code.stars:
        assert len(star & lz) % 2 == 0
    # X string commutes with every Z check
    for plaq in code.plaquettes:
        assert len(plaq & lx) % 2 == 0


@pytest.mark.parametrize("L", [4, 6])
def test_stabilizer_weights(L):
    code = build_code(L)
    assert {len(s) for s in code.stars} <= {3, 4}
    assert {len(p) for p in code.plaquettes} <= {3, 4}
    n_bulk_stars = sum(1 for s in code.stars if len(s) == 4)
    n_bulk_plaq = sum(1 for p in code.plaquettes if len(p) == 4)
    assert n_bulk_stars == (L - 1) * (L - 2)
    assert n_bulk_plaq == (L - 2) * (L - 1)


def test_build_code_rejects_bad_L():
    for bad in (3, 0, -2, 1):
        with pytest.raises(ValueError):
            build_code(bad)


# --- syndrome extraction ----------------------------------------------------


def test_single_bulk_z_flips_two_stars():
    code = build_code(4)
    # a horizontal qubit in the interior of the Z-string row touches two stars
    bulk_qubit = code.logical_z[1]
    syn = syndrome_of(code, ErrorChain("Z", frozenset({bulk_qubit})))
    assert len(syn.defects) == 2


def test_single_bulk_x_flips_two_plaquettes():
    code = build_code(4)
    bulk_qubit = code.logical_x[1]
    syn = syndrome_of(code, ErrorChain("X", frozenset({bulk_qubit})))
    assert len(syn.defects) == 2


def test_empty_chain_empty_syndrome():
    code = build_code(4)
    assert syndrome_of(code, ErrorChain("Z", frozenset())).defects == frozenset()


def test_logical_z_has_empty_syndrome():
    code = build_code(4)
    syn = syndrome_of(code, ErrorChain("Z", frozenset(code.logical_z)))
    assert syn.defects == frozenset()


def test_logical_x_has_empty_syndrome():
    code = build_code(4)
    syn = syndrome_of(code, ErrorChain("X", frozenset(code.logical_x)))
    assert syn.defects == frozenset()


def test_syndrome_rejects_out_of_range():
    code = build_code(2)
    with pytest.raises(ValueError):
        syndrome_of(code, ErrorChain("Z", frozenset({999})))


# --- contour decoding -------------------------------------------------------


def oracle_boundary(L, support):
    """Junction parity computed independently of the package."""
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
    err = ErrorChain("Z", frozenset({0}))
    syn = contour_syndrome(4, err)
    out = decode_contour(4, syn, TieBreak.REPORT, true_error=err)
    assert out.correction.support == frozenset({0})
    assert out.status is DecodeStatus.SUCCESS
    assert oracle_min_corrections(4, syn.defects) == [frozenset({0})]


def test_decode_tie_reported():
    err = ErrorChain("Z", frozenset({0, 1}))
    syn = contour_syndrome(4, err)
    out = decode_contour(4, syn, TieBreak.REPORT, true_error=err)
    assert out.status is DecodeStatus.TIE
    assert set(oracle_min_corrections(4, syn.defects)) == {
        frozenset({0, 1}),
        frozenset({2, 3}),
    }
    assert out.correction.support in {frozenset({0, 1}), frozenset({2, 3})}


def test_decode_tie_adversarial_completes_logical():
    err = ErrorChain("Z", frozenset({0, 2}))
    syn = contour_syndrome(4, err)
    assert set(oracle_min_corrections(4, syn.defects)) == {
        frozenset({0, 2}),
        frozenset({1, 3}),
    }
    out = decode_contour(4, syn, TieBreak.ADVERSARIAL, true_error=err)
    assert out.correction.support == frozenset({1, 3})
    assert out.status is DecodeStatus.LOGICAL_ERROR


def test_decode_tie_benign_matches_truth():
    err = ErrorChain("Z", frozenset({0, 2}))
    out = decode_contour(4, contour_syndrome(4, err), TieBreak.BENIGN, true_error=err)
    assert out.correction.support == frozenset({0, 2})
    assert out.status is DecodeStatus.SUCCESS


def test_decode_needs_truth_for_error_dependent_rules():
    err = ErrorChain("Z", frozenset({0, 1}))
    syn = contour_syndrome(4, err)
    with pytest.raises(ValueError):
        decode_contour(4, syn, TieBreak.ADVERSARIAL)


def test_decode_rejects_bad_defects():
    with pytest.raises(ValueError):
        decode_contour(4, Syndrome(frozenset({3})))  # junctions are 0..2
    with pytest.raises(ValueError):
        decode_contour(4, Syndrome(frozenset({-1})))


def test_decode_rejects_inconsistent_truth():
    err = ErrorChain("Z", frozenset({0}))
    with pytest.raises(ValueError):
        decode_contour(4, Syndrome(frozenset()), TieBreak.REPORT, true_error=err)


@pytest.mark.parametrize("L", [2, 4, 6, 8])
def test_decoder_soundness_and_classification(L):
    # every error: the correction clears the syndrome, and the residue is
    # either empty (success) or the full row crossing the dual string once
    for r in range(L + 1):
        for combo in itertools.combinations(range(L), r):
            err = ErrorChain("Z", frozenset(combo))
            syn = contour_syndrome(L, err)
            assert syn.defects == oracle_boundary(L, set(combo))
            out = decode_contour(L, syn, TieBreak.BENIGN if 2 * r == L else TieBreak.REPORT,
                                 true_error=err)
            residue = out.correction.support ^ err.support
            cleared = contour_syndrome(L, ErrorChain("Z", residue))
            assert cleared.defects == frozenset()
            assert residue in (frozenset(), frozenset(range(L)))
            crossing_parity = len(residue & {L // 2}) % 2
            if out.status is not DecodeStatus.TIE:
                assert (out.status is DecodeStatus.LOGICAL_ERROR) == (crossing_parity == 1)


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
    counts = {DecodeStatus.SUCCESS: 0, DecodeStatus.LOGICAL_ERROR: 0, DecodeStatus.TIE: 0}
    for support in itertools.combinations(range(L), weight):
        err = ErrorChain("Z", frozenset(support))
        out = decode_contour(L, contour_syndrome(L, err), rule, true_error=err)
        counts[out.status] += 1
    return counts[DecodeStatus.SUCCESS], counts[DecodeStatus.LOGICAL_ERROR], counts[DecodeStatus.TIE]


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


@pytest.mark.parametrize("L, weight", [(4, 2.5), (4.0, 2)])
def test_census_refuses_non_integer_sizes(L, weight):
    with pytest.raises(ValueError, match="must be integers"):
        check_census(L, weight)
    with pytest.raises(ValueError, match="must be integers"):
        failure_census(L, weight, TieBreak.REPORT)


# --- static field profile ---------------------------------------------------


def test_vacuum_profile_examples():
    assert vacuum_profile(1.0, 2.0, 1.0, +1) == pytest.approx(-1.0)
    assert vacuum_profile(-1.0, 2.0, 1.0, +1) == pytest.approx(1.0)
    assert vacuum_profile(5.0, 0.4, 2.0, -1) == pytest.approx(0.1)


def test_vacuum_profile_guards():
    with pytest.raises(ValueError):
        vacuum_profile(0.0, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        vacuum_profile(1.0, 1.0, -1.0, 1)
    with pytest.raises(ValueError):
        vacuum_profile(1.0, 1.0, 1.0, 2)


@given(
    x=st.floats(0.01, 100),
    jz=st.floats(-5, 5),
    v=st.floats(0.1, 10),
    zbar=st.sampled_from([1, -1]),
)
@settings(max_examples=50, deadline=None)
def test_vacuum_profile_odd_symmetries(x, jz, v, zbar):
    base = vacuum_profile(x, jz, v, zbar)
    assert vacuum_profile(-x, jz, v, zbar) == -base
    assert vacuum_profile(x, jz, v, -zbar) == -base

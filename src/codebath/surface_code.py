"""Planar-code lattice bookkeeping and a one-row minimum-weight decoder.

Lattice layout (distance L, even): an L x L grid of horizontal edges h(x, y)
stacked in L rows, interleaved with an (L-1) x (L-1) grid of vertical edges
v(x, y) connecting neighbouring rows, for L**2 + (L-1)**2 qubits total.
Vertex (x, y) with x in 1..L-1 hosts a star acting on h(x-1, y), h(x, y) and
the vertical edges above/below; the face between rows y and y+1 at column x
hosts a plaquette acting on h(x, y), h(x, y+1) and the vertical edges at its
sides.  Interior stabilizers touch four qubits, boundary ones three.  The
horizontal row y = L/2 carries the Z string, the column x = L/2 the X string;
they cross in a single qubit.

The decoder works in "contour mode": a single length-L row with open ends,
junctions 0..L-2 between neighbouring positions.  Any junction defect set is
consistent with exactly two corrections (a set and its complement), so
minimum-weight decoding is exact here.  A weight-w chain is therefore
corrected when w < L/2, completed to a logical string when w > L/2, and
ties with its complement when w = L/2, which gives the failure census in
closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .wick import check_even_L

Coord = tuple[str, int, int]


class TieBreak(Enum):
    """How to resolve a syndrome with two minimum-weight corrections."""

    REPORT = "report"
    BENIGN = "benign"
    ADVERSARIAL = "adversarial"


class DecodeStatus(Enum):
    SUCCESS = "success"
    LOGICAL_ERROR = "logical_error"
    TIE = "tie"


@dataclass(frozen=True)
class SurfaceCode:
    L: int
    qubits: tuple[Coord, ...]
    stars: tuple[frozenset[int], ...]
    plaquettes: tuple[frozenset[int], ...]
    logical_x: tuple[int, ...]
    logical_z: tuple[int, ...]


@dataclass(frozen=True)
class ErrorChain:
    """A set of same-type Pauli flips; ``support`` holds qubit indices, or
    contour positions 0..L-1 in contour mode."""

    kind: str
    support: frozenset[int]

    def __post_init__(self):
        if self.kind not in ("X", "Z"):
            raise ValueError("kind must be 'X' or 'Z'")
        object.__setattr__(self, "support", frozenset(self.support))


@dataclass(frozen=True)
class Syndrome:
    """Flipped stabilizer identifiers; junction indices in contour mode."""

    defects: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "defects", frozenset(self.defects))


@dataclass(frozen=True)
class DecodeOutcome:
    correction: ErrorChain
    status: DecodeStatus


@dataclass(frozen=True)
class CensusRecord:
    L: int
    weight: int
    rule: TieBreak
    n_success: int
    n_logical: int
    n_tie: int


def build_code(L: int) -> SurfaceCode:
    """Construct the distance-L planar code described in the module docstring."""
    check_even_L(L)

    index: dict[Coord, int] = {}
    qubits: list[Coord] = []
    for y in range(L):
        for x in range(L):
            index[("h", x, y)] = len(qubits)
            qubits.append(("h", x, y))
    for y in range(L - 1):
        for x in range(L - 1):
            index[("v", x, y)] = len(qubits)
            qubits.append(("v", x, y))

    stars = []
    for x in range(1, L):
        for y in range(L):
            members = {index[("h", x - 1, y)], index[("h", x, y)]}
            if y <= L - 2:
                members.add(index[("v", x - 1, y)])
            if y >= 1:
                members.add(index[("v", x - 1, y - 1)])
            stars.append(frozenset(members))

    plaquettes = []
    for x in range(L):
        for y in range(L - 1):
            members = {index[("h", x, y)], index[("h", x, y + 1)]}
            if x >= 1:
                members.add(index[("v", x - 1, y)])
            if x <= L - 2:
                members.add(index[("v", x, y)])
            plaquettes.append(frozenset(members))

    row = L // 2
    logical_z = tuple(index[("h", x, row)] for x in range(L))
    logical_x = tuple(index[("h", row, y)] for y in range(L))
    return SurfaceCode(
        L=L,
        qubits=tuple(qubits),
        stars=tuple(stars),
        plaquettes=tuple(plaquettes),
        logical_x=logical_x,
        logical_z=logical_z,
    )


def syndrome_of(code: SurfaceCode, error: ErrorChain) -> Syndrome:
    """Stabilizers anticommuting with the chain: stars see Z flips, plaquettes X."""
    n = len(code.qubits)
    if any(q < 0 or q >= n for q in error.support):
        raise ValueError("error support contains out-of-range qubit indices")
    stabs = code.stars if error.kind == "Z" else code.plaquettes
    defects = frozenset(
        i for i, members in enumerate(stabs) if len(members & error.support) % 2
    )
    return Syndrome(defects)


def contour_syndrome(L: int, error: ErrorChain) -> Syndrome:
    """Junction parity of a contour chain; open ends absorb string endpoints."""
    if any(p < 0 or p >= L for p in error.support):
        raise ValueError("contour support out of range")
    sup = error.support
    defects = frozenset(j for j in range(L - 1) if (j in sup) != (j + 1 in sup))
    return Syndrome(defects)


def _contour_candidates(L: int, defects: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    # Walk the row toggling membership at each defect junction.  The two
    # candidates differ by which open end the correction terminates at.
    first: set[int] = set()
    inside = False
    for p in range(L):
        if p > 0 and (p - 1) in defects:
            inside = not inside
        if inside:
            first.add(p)
    second = set(range(L)) - first
    return frozenset(first), frozenset(second)


def decode_contour(
    L: int,
    syndrome: Syndrome,
    tie_break: TieBreak = TieBreak.REPORT,
    true_error: ErrorChain | None = None,
) -> DecodeOutcome:
    """Minimum-weight correction for a contour syndrome.

    Exactly two corrections are consistent with any defect set; the lighter
    one wins, and equal weights are a tie resolved by ``tie_break``.  The
    benign/adversarial rules and the success/logical classification compare
    against ``true_error``; without it, ties must use ``REPORT`` and unique
    minima are reported as SUCCESS (the decoder's own shortest-chain belief).
    """
    if L < 2:
        raise ValueError("contour length must be >= 2")
    defects = syndrome.defects
    if any(j < 0 or j >= L - 1 for j in defects):
        raise ValueError("defect index out of range")
    if true_error is not None and contour_syndrome(L, true_error).defects != defects:
        raise ValueError("true_error is inconsistent with the syndrome")

    cand_a, cand_b = _contour_candidates(L, defects)
    if len(cand_a) != len(cand_b):
        chosen = cand_a if len(cand_a) < len(cand_b) else cand_b
        status = _classify(L, chosen, true_error)
    elif tie_break is TieBreak.REPORT:
        chosen = min((cand_a, cand_b), key=lambda c: tuple(sorted(c)))
        status = DecodeStatus.TIE
    else:
        if true_error is None:
            raise ValueError(f"tie_break={tie_break.value} needs the true error")
        truth = true_error.support
        if tie_break is TieBreak.BENIGN:
            chosen = truth
        else:  # ADVERSARIAL: complete the spanning chain
            chosen = cand_b if truth == cand_a else cand_a
        status = _classify(L, chosen, true_error)
    correction = ErrorChain(kind="Z", support=frozenset(chosen))
    return DecodeOutcome(correction=correction, status=status)


def _classify(L: int, correction: frozenset[int], true_error: ErrorChain | None) -> DecodeStatus:
    if true_error is None:
        return DecodeStatus.SUCCESS
    residue = correction ^ true_error.support
    # the residue is either empty or the full row; a full row spans both
    # boundaries and flips the stored bit
    return DecodeStatus.SUCCESS if not residue else DecodeStatus.LOGICAL_ERROR


def check_census(L: int, weight: int) -> None:
    """Raise ValueError unless weight-``weight`` chains fit a length-L contour."""
    if L < 2:
        raise ValueError("contour length must be >= 2")
    if not 0 <= weight <= L:
        raise ValueError("weight must lie in 0..L")


def failure_census(L: int, weight: int, tie_break: TieBreak = TieBreak.REPORT) -> CensusRecord:
    """Tally the decoder outcomes over all C(L, weight) contour chains of that weight.

    Closed form of ``decode_contour``: the other correction consistent with a
    chain's syndrome is its complement, of weight L - weight.  Lighter chains
    are all corrected, heavier ones all complete the logical string, and at
    weight L/2 every chain is a tie that ``tie_break`` reports, resolves to
    success (benign) or to a logical error (adversarial).
    """
    check_census(L, weight)
    count = math.comb(L, weight)
    if 2 * weight < L or 2 * weight == L and tie_break is TieBreak.BENIGN:
        outcome = DecodeStatus.SUCCESS
    elif 2 * weight > L or tie_break is TieBreak.ADVERSARIAL:
        outcome = DecodeStatus.LOGICAL_ERROR
    else:
        outcome = DecodeStatus.TIE
    return CensusRecord(
        L=L,
        weight=weight,
        rule=tie_break,
        n_success=count if outcome is DecodeStatus.SUCCESS else 0,
        n_logical=count if outcome is DecodeStatus.LOGICAL_ERROR else 0,
        n_tie=count if outcome is DecodeStatus.TIE else 0,
    )


def vacuum_profile(x: float, J_z: float, v: float, zbar: int) -> float:
    """Static step profile -(J_z / 2v) * zbar * sgn(x) pinned by the stored bit."""
    if v <= 0:
        raise ValueError("v must be positive")
    if zbar not in (1, -1):
        raise ValueError("zbar must be +1 or -1")
    if x == 0:
        raise ValueError("profile is undefined at the origin")
    return -(J_z / (2.0 * v)) * zbar * math.copysign(1.0, x)

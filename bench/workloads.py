"""Seeded workload configs for the codebath sweep benchmark, and the checks
that decide whether the program's outputs are correct.

A workload is a list of :class:`Call` objects.  Each holds one sweep config
(without its ``output_path``, which ``run_bench.py`` fills in per pass),
the name of the output it writes, and a check that returns ``None`` for a
correct output or a one-line description of what is wrong.

The seed varies grid values inside their valid domains and never the point
counts, so every seed costs about the same.  The checks use oracles kept in
this file (a bitmask-DP pairing sum, the census closed form, the symmetric
phase rule and the constants of motion) rather than stored hashes, so an
intended change of last digits in the program does not read as a failure.
The one exception is the lifetime sample check, which compares the sweep
glue against a direct ``lifetimes.build_report`` on the same point.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import math
import os
import random
import warnings
from dataclasses import dataclass, replace
from typing import Callable

WORKLOADS = {
    "combinatorics": "matching and census sweeps: the brute-force pairing sum "
    "and decoder census dominate; CSV and pool do almost nothing",
    "flow_portrait": "phase_diagram grid plus per-start flow traces: RK45 "
    "dominates, with thousands of sampled rows and a file per start",
    "lifetime_grid": "lifetime sweeps of microsecond closed forms in both "
    "channels: grid glue, formatting and CSV writing dominate",
    "pool_dispatch": "lifetime_grid and the portrait at parallelism 2: the "
    "only workload that goes through the process pool",
}

POOL_WORKERS = 2
MATCHING_MAX_N = 14
CENSUS_MAX_L = 12
MATCHING_REL_TOL = 1e-12
DRIFT_FACTOR = 100.0  # trace invariants stay within 100 * abs_tol
LIFETIME_SAMPLE = 16  # rows per lifetime output compared with build_report
LIFETIME_FIELDS = (
    "regime", "phase", "L", "j_L", "t_K_over_tau", "t_comp_over_tau",
    "t_mem_over_tau", "gamma_korringa", "t2_thermal", "lambda_critical",
)


@dataclass(frozen=True)
class Call:
    """One CLI call of a pass: ``codebath sweep --config <name>.json``."""

    name: str
    config: dict
    out: str
    check: Callable[[str], str | None]


# --- seeded value generation -------------------------------------------------


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One value from the middle half of each of k equal bins of [lo, hi]:
    spread over the domain, never closer than half a bin to each other."""
    width = (hi - lo) / k
    return [round(lo + width * (i + 0.25 + 0.5 * rng.random()), 4) for i in range(k)]


def _even_strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    return [2 * round(v / 2) for v in _strata(rng, lo, hi, k)]


def _bins(rng: random.Random, lo: float, hi: float, k: int) -> tuple[list[float], list[float]]:
    """k values from the middle halves of k equal bins of [lo, hi], and the
    k - 1 points within an eighth of a bin of the edges between them.

    No two values come closer than an eighth of a bin, so a start at
    jz = -edge localizes for exactly the j_perp values below that edge and
    every seed has the same mix of terminals."""
    width = (hi - lo) / k
    mids = [round(lo + width * (i + 0.25 + 0.5 * rng.random()), 4) for i in range(k)]
    edges = [round(lo + width * (i + 0.875 + 0.25 * rng.random()), 4) for i in range(k - 1)]
    return mids, edges


# --- oracles -----------------------------------------------------------------


def pairing_sum(n: int, z: float) -> float:
    """Sum over perfect matchings of sites 0..n-1 of prod |i-j|**(-2z), by a
    memoized DP over the bitmask of unmatched sites (lowest site pairs first).
    Independent of ``wick.matching_sum``, which enumerates every matching."""
    expo = -2.0 * z
    w = [[abs(i - j) ** expo if i != j else 0.0 for j in range(n)] for i in range(n)]

    @functools.lru_cache(maxsize=None)
    def rest(mask: int) -> float:
        if not mask:
            return 1.0
        i = (mask & -mask).bit_length() - 1
        others = mask ^ (1 << i)
        total = 0.0
        m = others
        while m:
            bit = m & -m
            total += w[i][bit.bit_length() - 1] * rest(others ^ bit)
            m ^= bit
        return total

    return rest((1 << n) - 1)


def census_expected(L: int, weight: int, rule: str) -> tuple[int, int, int]:
    """(success, logical, tie) for every weight-w chain on a length-L contour.

    The syndrome fixes a chain up to its complement, so w < L/2 is always
    corrected, w > L/2 always completes a logical string, and w = L/2 is a
    tie that only the rule decides."""
    count = math.comb(L, weight)
    if 2 * weight < L:
        return count, 0, 0
    if 2 * weight > L:
        return 0, count, 0
    return {"report": (0, 0, count), "benign": (count, 0, 0), "adversarial": (0, count, 0)}[rule]


def runs_away(j_perp: float, jz: float) -> bool:
    """Symmetric one-loop rule: jz <= -j_perp never reaches strong coupling."""
    return not jz <= -j_perp


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- checks ------------------------------------------------------------------


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_matching(expected: dict[int, float], path: str) -> str | None:
    header, rows = _read(path)
    if header != ["n", "matching_sum", "per_pair_weight"]:
        return f"matching header {header}"
    if [int(r[0]) for r in rows] != list(expected):
        return "matching rows do not follow the n axis"
    for n_cell, total, per_pair in rows:
        n = int(n_cell)
        want = expected[n]
        if not math.isclose(float(total), want, rel_tol=MATCHING_REL_TOL):
            return f"matching_sum(n={n}) = {total}, oracle {want!r}"
        if not math.isclose(float(per_pair), want ** (2.0 / n), rel_tol=MATCHING_REL_TOL):
            return f"per_pair_weight(n={n}) = {per_pair}"
    return None


def check_census(L: int, weights: list[int], rule: str, path: str) -> str | None:
    header, rows = _read(path)
    if header != ["L", "weight", "rule", "n_success", "n_logical", "n_tie"]:
        return f"census header {header}"
    if [int(r[1]) for r in rows] != weights:
        return "census rows do not follow the weight axis"
    for row in rows:
        w = int(row[1])
        if int(row[0]) != L or row[2] != rule:
            return f"census row {row} is not L={L} rule={rule}"
        if tuple(int(c) for c in row[3:]) != census_expected(L, w, rule):
            return f"census L={L} w={w} {rule}: {row[3:]} != {census_expected(L, w, rule)}"
    return None


def _starts(axes: dict) -> list[tuple[float, float]]:
    """(j_perp, jz) starts in sweep order: alphabetical axes, first slowest."""
    return list(itertools.product(axes["j_perp"], axes["jz"]))


def _terminal_ok(j_perp: float, jz: float, terminal: str) -> bool:
    return (terminal == "StrongCoupling") == runs_away(j_perp, jz)


def check_portrait(axes: dict, path: str) -> str | None:
    header, rows = _read(path)
    if header != ["trajectory_id", "l", "j_perp", "j_z", "terminal_label", "separatrix"]:
        return f"phase_diagram header {header}"
    starts = _starts(axes)
    seen = {}
    for tid, l, j_perp, jz, terminal, _ in rows:
        tid = int(tid)
        if tid not in seen:
            if tid != len(seen) or tid >= len(starts) or float(l) != 0.0:
                return f"trajectory {tid} out of order"
            if (float(j_perp), float(jz)) != starts[tid]:
                return f"trajectory {tid} starts at ({j_perp}, {jz}), not {starts[tid]}"
            seen[tid] = terminal
        elif seen[tid] != terminal:
            return f"trajectory {tid} changes terminal label"
    if len(seen) != len(starts):
        return f"{len(seen)} trajectories for {len(starts)} starts"
    for tid, terminal in seen.items():
        if not _terminal_ok(*starts[tid], terminal):
            return f"start {starts[tid]} ends {terminal}"
    return None


def check_flow(axes: dict, abs_tol: float, path: str) -> str | None:
    header, rows = _read(os.path.join(path, "index.csv"))
    if header != ["trajectory_id", "jx0", "jy0", "jz0", "terminal", "l_star", "jz_star", "file"]:
        return f"flow index header {header}"
    starts = _starts(axes)
    if len(rows) != len(starts) or len(os.listdir(path)) != len(starts) + 1:
        return f"flow wrote {len(rows)} index rows for {len(starts)} starts"
    for (tid, jx0, jy0, jz0, terminal, _, _, fname), start in zip(rows, starts):
        if (float(jx0), float(jz0)) != start or jx0 != jy0:
            return f"trajectory {tid} starts at ({jx0}, {jy0}, {jz0}), not {start}"
        if not _terminal_ok(*start, terminal):
            return f"start {start} ends {terminal}"
        trace_header, trace = _read(os.path.join(path, fname))
        if trace_header != ["l", "jx", "jy", "jz", "c1", "c2"] or not trace:
            return f"{fname}: header {trace_header}, {len(trace)} rows"
        c1_0, c2_0 = float(trace[0][4]), float(trace[0][5])
        drift = max(max(abs(float(r[4]) - c1_0), abs(float(r[5]) - c2_0)) for r in trace)
        if drift > DRIFT_FACTOR * abs_tol:
            return f"{fname}: invariant drift {drift:.3g} > {DRIFT_FACTOR} * abs_tol"
    return None


def _cell_matches(cell: str, value) -> bool:
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if hasattr(value, "value"):  # Enum
        return cell == str(value.value)
    if isinstance(value, int):
        return cell == str(value)
    return float(cell) == value


def _direct_report(point: dict):
    from codebath import lifetimes
    from codebath.bath import BathSpec

    spec = BathSpec(
        z=point["z"], s=point.get("s", 1.0), lam=point["lambda"],
        temperature=point["temperature"],
    )
    code_point = lifetimes.CodePoint(
        L=point["L"], epsilon=point["epsilon"], spec=spec, jz_star=point.get("jz_star")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the saturation warning; counted in traced passes
        return lifetimes.build_report(code_point)


def check_lifetime(axes: dict, sample_seed: int, path: str) -> str | None:
    with open(path) as fh:
        if "nan" in fh.read().lower():
            return "lifetime output contains nan"
    header, rows = _read(path)
    extra = sorted(name for name in axes if name != "L")
    if header != extra + list(LIFETIME_FIELDS):
        return f"lifetime header {header}"
    names = sorted(axes)
    points = [dict(zip(names, combo)) for combo in itertools.product(*(axes[n] for n in names))]
    if len(rows) != len(points):
        return f"lifetime wrote {len(rows)} rows for {len(points)} grid points"
    L_col = len(extra) + LIFETIME_FIELDS.index("L")
    for i, (row, point) in enumerate(zip(rows, points)):
        if int(row[L_col]) != point["L"] or any(
            float(row[k]) != point[name] for k, name in enumerate(extra)
        ):
            return f"lifetime row {i} is not grid point {point}"
    for i in random.Random(sample_seed).sample(range(len(rows)), LIFETIME_SAMPLE):
        report = _direct_report(points[i])
        for name, cell in zip(LIFETIME_FIELDS, rows[i][len(extra):]):
            if not _cell_matches(cell, getattr(report, name)):
                return f"lifetime row {i} {name} = {cell}, build_report {getattr(report, name)!r}"
    return None


def check_same_bytes(want: str, path: str) -> str | None:
    got = digest(path)
    return None if got == want else f"pool output differs from the serial output ({got[:12]})"


# --- workloads ---------------------------------------------------------------


def _combinatorics(rng: random.Random) -> list[Call]:
    calls = []
    # The largest size costs 13x the next; only the first z goes up to it.
    for k, z in enumerate(_strata(rng, 0.25, 1.5, 3)):
        ns = list(range(2, MATCHING_MAX_N + 1 - 2 * min(k, 1), 2))
        rng.shuffle(ns)
        expected = {n: pairing_sum(n, z) for n in ns}
        calls.append(Call(
            f"matching_{k}",
            {"task": "matching", "axes": {"n": ns}, "params": {"z": z}},
            f"matching_{k}.csv",
            functools.partial(check_matching, expected),
        ))
    for L in range(4, CENSUS_MAX_L + 1, 2):
        for rule in ("report", "adversarial"):
            weights = list(range(L + 1))
            rng.shuffle(weights)
            calls.append(Call(
                f"census_{L}_{rule}",
                {"task": "census", "axes": {"L": [L], "weight": weights}, "params": {"rule": rule}},
                f"census_{L}_{rule}.csv",
                functools.partial(check_census, L, weights, rule),
            ))
    return calls


def _portrait_call(rng: random.Random) -> Call:
    # Two starts on jz = -j_perp and one on jz = +j_perp; the others sit
    # between j_perp bins, clear of every separatrix, so their terminal is
    # decided well before l_max.
    j_perps, edges = _bins(rng, 0.2, 3.4, 5)
    jzs = sorted([-j_perps[1], -j_perps[3], j_perps[2], -edges[2], edges[0]])
    axes = {"j_perp": j_perps, "jz": jzs}
    return Call(
        "phase_diagram",
        {"task": "phase_diagram", "axes": axes, "params": {}},
        "phase_diagram.csv",
        functools.partial(check_portrait, axes),
    )


def _flow_portrait(rng: random.Random) -> list[Call]:
    portrait = _portrait_call(rng)
    j_perps, edges = _bins(rng, 0.1, 0.6, 4)
    jzs = sorted([-j_perps[2], -edges[0], -edges[2], edges[1]])
    axes = {"j_perp": j_perps, "jz": jzs}
    abs_tol = 1e-10
    flow = Call(
        "flow",
        {"task": "flow", "axes": axes, "params": {"abs_tol": abs_tol, "rel_tol": 1e-10}},
        "flow_traces",
        functools.partial(check_flow, axes, abs_tol),
    )
    return [portrait, flow]


def _lifetime_grid(rng: random.Random) -> list[Call]:
    # Runaway channel: s = 1 takes the Ohmic branch (and its saturation
    # warning at large L and lambda), the drawn s < 1 the sub-Ohmic one.
    # Domains keep j(L) finite and (1/j)**(1/(1-s)) above underflow.
    runaway = {
        "L": _even_strata(rng, 2, 48, 4),
        "z": _strata(rng, 0.2, 1.6, 4),
        "lambda": _strata(rng, 0.02, 0.5, 4),
        "temperature": [0.0] + _strata(rng, 0.05, 1.0, 1),
        "epsilon": _strata(rng, 0.005, 0.2, 2),
        "s": [1.0] + _strata(rng, 0.3, 0.7, 1),
    }
    localized = {
        "L": _even_strata(rng, 2, 48, 4),
        "z": _strata(rng, 0.2, 1.6, 4),
        "lambda": _strata(rng, 0.02, 0.5, 2),
        "temperature": [0.0] + _strata(rng, 0.05, 1.0, 1),
        "epsilon": _strata(rng, 0.005, 0.2, 2),
        "jz_star": _strata(rng, -0.9, -0.1, 2),
    }
    calls = []
    for name, axes in (("lifetime_runaway", runaway), ("lifetime_localized", localized)):
        sample_seed = rng.randrange(1 << 30)
        calls.append(Call(
            name,
            {"task": "lifetime", "axes": axes, "params": {}},
            f"{name}.csv",
            functools.partial(check_lifetime, axes, sample_seed),
        ))
    return calls


def build(name: str, seed: int) -> list[Call]:
    """The calls of one pass of workload ``name`` for ``seed``.

    ``pool_dispatch`` returns its serial twins: the caller runs them once,
    checks them, and turns them into parallel calls with
    :func:`parallel_twin`, whose check is byte identity with the serial run.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "combinatorics":
        return _combinatorics(rng)
    if name == "flow_portrait":
        return _flow_portrait(rng)
    if name == "lifetime_grid":
        return _lifetime_grid(rng)
    if name == "pool_dispatch":
        return _lifetime_grid(random.Random(f"lifetime_grid:{seed}")) + [
            _flow_portrait(random.Random(f"flow_portrait:{seed}"))[0]
        ]
    raise KeyError(name)


def parallel_twin(call: Call, serial_digest: str) -> Call:
    return replace(
        call,
        config={**call.config, "parallelism": POOL_WORKERS},
        check=functools.partial(check_same_bytes, serial_digest),
    )

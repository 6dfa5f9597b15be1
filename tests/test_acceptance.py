"""Acceptance gate: one check per criterion, each printing a PASS/FAIL line.

Run under pytest (``pytest tests/test_acceptance.py -v``) or directly
(``python tests/test_acceptance.py``) for the line-per-criterion report.
"""
import hashlib
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np

from codebath.bath import BathSpec, thermal_correlator
from codebath.rg_flow import (
    CouplingVector,
    FlowOptions,
    Localized,
    StrongCoupling,
    integrate_flow,
)
from codebath.surface_code import TieBreak, failure_census
from codebath.sweeps import run as run_sweep
from codebath.sweeps import validate_config
from codebath.wick import MatchingProblem, matching_sum

_REGISTRY = []
NEUTRAL_ATOM = Path(__file__).resolve().parent.parent / "examples" / "neutral_atom.json"


def criterion(cid, limit_s, title):
    def wrap(fn):
        _REGISTRY.append((cid, limit_s, title, fn))
        return fn

    return wrap


def _run(cid):
    entry = next(e for e in _REGISTRY if e[0] == cid)
    cid, limit_s, title, fn = entry
    start = time.perf_counter()
    try:
        detail = fn()
    except AssertionError as exc:
        print(f"[C{cid:02d}] FAIL  {title}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[C{cid:02d}] PASS  {title}  ({elapsed:.2f}s < {limit_s}s)  {detail}")
    assert elapsed < limit_s, f"criterion {cid} took {elapsed:.1f}s, limit {limit_s}s"


def _task_rows(obj):
    """The rows a sweep run of config ``obj`` writes, each as {column: cell}."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        run_sweep(validate_config({**obj, "output_path": str(out)}))
        header, *rows = out.read_text().splitlines()
    return [dict(zip(header.split(","), row.split(","), strict=True)) for row in rows]


@criterion(1, 1.0, "neutral-atom preset reproduces the headline numbers exactly")
def c01_neutral_atom():
    # the example's lifetime run at L = 100: lambda_c over hbar c is g_c = 1/(4 c tau/a)
    obj = json.loads(NEUTRAL_ATOM.read_text())
    params = obj["params"]
    sites = params["v"] * params["tau_qec"] / params["a"]
    assert sites == 1e11, f"light-cone sites {sites!r} != 1e11"
    (row,) = _task_rows(obj)
    lam_c = float(row["lambda_critical"])
    g_c = lam_c / (params["hbar"] * params["v"])
    assert g_c == 2.5e-12, f"g_c {g_c!r} != 2.5e-12"
    return f"c*tau/a = {sites:g}, g_c = {g_c:g}"


@criterion(2, 1.0, "Stirling path count within [0.997, 1.005] of the exact one at L=100")
def c02_stirling():
    # at the default bath lbar^2 = 16, so j(L) is the Stirling count sqrt(2L/pi) 2**L; the
    # exact count is L times the census's ties at weight L/2.  jz_star keeps the lifetime
    # run in the localized channel, clear of the j(L) >= 1e3 warning
    (life,) = _task_rows({"task": "lifetime", "axes": {"L": [100]}, "params": {"jz_star": -0.5}})
    (census,) = _task_rows({"task": "census", "axes": {"L": [100], "weight": [50]}})
    ratio = float(life["j_L"]) / (100 * int(census["n_tie"]))
    assert 0.997 <= ratio <= 1.005, f"ratio {ratio}"
    return f"ratio = {ratio:.6f}"


@criterion(3, 5.0, "isotropic flow matches j0/(1 - j0 l) and the extrapolated pole")
def c03_rg_analytic():
    j0 = 0.05
    trace = integrate_flow(CouplingVector(j0, j0, j0))
    assert isinstance(trace.terminal, StrongCoupling)
    worst = 0.0
    for l, j in trace.samples:
        if l <= 18.0:
            worst = max(worst, abs(j.jx - j0 / (1.0 - j0 * l)))
    assert worst < 1e-6, f"max deviation {worst}"
    l_star = trace.terminal.l_star
    assert abs(l_star - 20.0) / 20.0 < 0.05, f"l_star {l_star}"
    return f"max|dj| = {worst:.2e}, l_star = {l_star:.4f}"


@criterion(4, 30.0, "constants of motion drift below 1e-8 on 100 random traces")
def c04_constants_of_motion():
    rng = np.random.default_rng(20250810)
    worst = 0.0
    for _ in range(100):
        j0 = CouplingVector(*rng.uniform(-0.5, 0.5, 3))
        worst = max(worst, integrate_flow(j0).invariant_drift)
    assert worst < 1e-8, f"worst drift {worst}"
    return f"worst drift = {worst:.2e}"


@criterion(5, 5.0, "ferromagnetic terminal coupling matches the conserved-quantity value")
def c05_fm_terminal():
    trace = integrate_flow(CouplingVector(0.05, 0.05, -0.2))
    assert isinstance(trace.terminal, Localized), f"terminal {trace.terminal}"
    jz_star = trace.terminal.j_star.jz
    assert abs(jz_star - (-0.193649)) <= 1e-4, f"jz* = {jz_star}"
    return f"jz* = {jz_star:.6f}"


@criterion(6, 10.0, "pairing-sum oracle: frozen values and the z=0 double factorial")
def c06_matching_oracle():
    s1 = matching_sum(MatchingProblem((0, 1, 2, 3), 1.0))
    s2 = matching_sum(MatchingProblem((0, 1, 2, 3), 0.5))
    assert abs(s1 - 1.173611) < 1e-6, f"z=1 sum {s1}"
    assert abs(s2 - 1.583333) < 1e-6, f"z=0.5 sum {s2}"
    dfac = 1
    for n in range(2, 13, 2):
        dfac *= n - 1
        got = matching_sum(MatchingProblem(tuple(range(n)), 0.0))
        assert got == float(dfac), f"(n-1)!! mismatch at n={n}: {got} != {dfac}"
    return f"s(z=1) = {s1:.6f}, s(z=0.5) = {s2:.6f}, (n-1)!! exact to n=12"


def _per_pair_weights(ns, z):
    """The ``per_pair_weight`` column of a ``matching`` run over ``ns`` at ``z``."""
    rows = _task_rows({"task": "matching", "axes": {"n": list(ns)}, "params": {"z": z}})
    assert list(rows[0]) == ["n", "matching_sum", "per_pair_weight"], list(rows[0])
    assert [int(row["n"]) for row in rows] == list(ns), "rows not in n order"
    return [float(row["per_pair_weight"]) for row in rows]


@criterion(7, 60.0, "per-pair weight trends split the three regimes at n <= 16")
def c07_regime_trends():
    ns = list(range(4, 17, 2))
    bounded = _per_pair_weights(ns, 1.0)
    incs = [b - a for a, b in zip(bounded, bounded[1:])]
    assert all(b < a for a, b in zip(incs, incs[1:])), "z=1 increments not shrinking"
    w = dict(zip(ns, bounded))
    assert w[16] - w[12] < w[8] - w[4], "z=1 late increments not smaller"

    power = _per_pair_weights(ns, 0.25)
    assert all(b - a > 0 for a, b in zip(power, power[1:])), "z=0.25 weights not growing"
    lx = [math.log(n) for n in ns]
    ly = [math.log(v) for v in power]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    slope = sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sum((x - mx) ** 2 for x in lx)
    assert slope > 0, f"z=0.25 log-log slope {slope}"

    log = _per_pair_weights(ns, 0.5)
    log_incs = [b - a for a, b in zip(log, log[1:])]
    assert all(i > 0 for i in log_incs), "z=0.5 weights not growing"
    assert all(b < a for a, b in zip(log_incs, log_incs[1:])), "z=0.5 increments not shrinking"
    # sub-power: the local log-log slope keeps falling, unlike a power law
    lw = [math.log(v) for v in log]
    local = [(lw[i + 1] - lw[i]) / (lx[i + 1] - lx[i]) for i in range(len(lw) - 1)]
    assert all(b < a for a, b in zip(local, local[1:])), "z=0.5 local slope not falling"
    return (
        f"z=1 w(16)={w[16]:.4f}; z=0.25 slope={slope:.3f}; "
        f"z=0.5 local slopes {local[0]:.3f}->{local[-1]:.3f}"
    )


@criterion(8, 10.0, "every weight-L/2 contour configuration decodes to a tie")
def c08_decoder_ambiguity():
    counts = []
    for L in (4, 6, 8):
        rec = failure_census(L, L // 2, TieBreak.REPORT)
        expected = math.comb(L, L // 2)
        assert rec.n_tie == expected, f"L={L}: {rec.n_tie} ties != {expected}"
        assert rec.n_success == 0 and rec.n_logical == 0, f"L={L}: unambiguous outcomes"
        counts.append(f"L={L}:{rec.n_tie}")
    return "ties " + ", ".join(counts)


@criterion(9, 1.0, "thermal correlator recovers both asymptotic limits")
def c09_thermal_limits():
    for wt in (1e-3, 1e-4):
        spec = BathSpec(temperature=wt / math.pi)  # w = wt at t = 1
        val = thermal_correlator(spec, 1.0)
        assert abs(val - 1.0) < 1e-6, f"w*t={wt}: {val}"
    w = 1.0
    spec = BathSpec(temperature=w / math.pi)
    h = 1e-5
    worst = 0.0
    for t in (5.0, 10.0, 20.0):
        rate = (
            math.log(thermal_correlator(spec, t + h))
            - math.log(thermal_correlator(spec, t - h))
        ) / (2 * h)
        worst = max(worst, abs(rate + 2.0 * w) / (2.0 * w))
    assert worst < 1e-3, f"log-derivative deviation {worst}"
    return f"T->0 limit ok; tail rate deviation {worst:.2e}"


@criterion(10, 1.0, "threshold criterion table matches z > 1/(s+1) exactly")
def c10_threshold_table():
    # a threshold exists exactly on ShortRange rows; jz_star keeps the run clear of the
    # j(L) >= 1e3 warning
    rows = _task_rows({"task": "lifetime", "axes": {"z": [0.25, 0.5, 1.0], "s": [0.5, 1.0],
                                                     "L": [8, 64]}, "params": {"jz_star": -0.5}})
    by_bath = {}
    for row in rows:
        by_bath.setdefault((float(row["z"]), float(row["s"])), {})[int(row["L"])] = row
    cells = []
    for z in (0.25, 0.5, 1.0):
        for s in (0.5, 1.0):
            expected = z > 1.0 / (s + 1.0)
            at = by_bath[(z, s)]
            got = at[8]["regime"] == "ShortRange"
            assert got == expected, f"(z={z}, s={s}): {got} != {expected}"
            indep = float(at[8]["lambda_critical"]) == float(at[64]["lambda_critical"])
            assert indep == got, f"(z={z}, s={s}): lam_c L-dependence mismatch"
            cells.append(f"({z},{s})={'T' if got else 'F'}")
    return " ".join(cells)


@criterion(11, 30.0, "sweep outputs byte-identical across reruns and worker counts")
def c11_determinism():
    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        hashes = []
        for name, workers in (("a", 1), ("b", 1), ("c", 8)):
            out = tmp / f"{name}.csv"
            cfg = validate_config(
                {
                    "task": "lifetime",
                    "axes": {"L": [4, 6, 8, 10], "z": [1.0, 0.5, 0.25]},
                    "params": {"lambda": 0.02, "epsilon": 0.01},
                    "output_path": str(out),
                    "parallelism": workers,
                }
            )
            run_sweep(cfg)
            hashes.append(digest(out))
        assert hashes[0] == hashes[1], "rerun changed bytes"
        assert hashes[0] == hashes[2], "worker count changed bytes"
        portrait_hashes = []
        for name, workers in (("p1", 1), ("p8", 8)):
            out = tmp / f"{name}.csv"
            cfg = validate_config(
                {
                    "task": "phase_diagram",
                    "axes": {"j_perp": [0.1, 0.2], "jz": [-0.3, 0.1]},
                    "params": {"l_max": 40.0},
                    "output_path": str(out),
                    "parallelism": workers,
                }
            )
            run_sweep(cfg)
            portrait_hashes.append(digest(out))
        assert portrait_hashes[0] == portrait_hashes[1], "portrait bytes differ by workers"
    return f"sha256 {hashes[0][:12]} (table) and {portrait_hashes[0][:12]} (portrait) stable"


def test_c01_neutral_atom_preset():
    _run(1)


def test_c02_stirling_path_count():
    _run(2)


def test_c03_rg_analytic_equivalence():
    _run(3)


def test_c04_constants_of_motion():
    _run(4)


def test_c05_fm_terminal_coupling():
    _run(5)


def test_c06_matching_sum_oracle():
    _run(6)


def test_c07_regime_trend_probe():
    _run(7)


def test_c08_decoder_ambiguity_census():
    _run(8)


def test_c09_thermal_correlator_limits():
    _run(9)


def test_c10_threshold_criterion_table():
    _run(10)


def test_c11_sweep_determinism():
    _run(11)


if __name__ == "__main__":
    failures = 0
    for cid, *_ in _REGISTRY:
        try:
            _run(cid)
        except AssertionError:
            failures += 1
    raise SystemExit(1 if failures else 0)

"""Tests of the benchmark's own oracles and output checks.

    python3 -m pytest -q bench/test_checks.py

They show that each check accepts the program's real outputs and rejects a
tampered copy, and that the DP pairing oracle agrees with the brute-force
``wick.matching_sum`` it checks.
"""
from __future__ import annotations

import csv
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from codebath import cli, wick  # noqa: E402


def run_call(call, workdir: Path) -> str:
    config = workdir / f"{call.name}.json"
    out = str(workdir / call.out)
    config.write_text(json.dumps({**call.config, "output_path": out}))
    assert cli.main(["sweep", "--config", str(config)]) == 0
    return out


def rewrite(path: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def scale_cell(row: int, col: int, factor: float):
    def edit(rows):
        rows[row][col] = repr(float(rows[row][col]) * factor)
    return edit


def shift_cell(row: int, col: int, delta: float):
    def edit(rows):
        rows[row][col] = repr(float(rows[row][col]) + delta)
    return edit


def first_call(workload: str, prefix: str, seed: int = 3):
    return next(c for c in workloads.build(workload, seed) if c.name.startswith(prefix))


@pytest.mark.parametrize("n", range(2, 13, 2))
@pytest.mark.parametrize("z", [0.25, 0.5, 1.0, 1.37])
def test_pairing_oracle_matches_matching_sum(n, z):
    brute = wick.matching_sum(wick.MatchingProblem(tuple(range(n)), z))
    assert workloads.pairing_sum(n, z) == pytest.approx(brute, rel=1e-12, abs=0)


def test_census_expected_sums_to_all_chains():
    for L in range(2, 13, 2):
        for rule in ("report", "benign", "adversarial"):
            assert sum(sum(workloads.census_expected(L, w, rule)) for w in range(L + 1)) == 2**L


def _break_census(rows):
    for row in rows[1:]:
        if int(row[1]) * 2 < int(row[0]):  # an always-corrected weight
            row[3], row[4] = row[4], row[3]
            return


def _flip_terminal(rows):
    first = rows[1][4]
    other = "Localized" if first == "StrongCoupling" else "StrongCoupling"
    for row in rows[1:]:
        if row[0] == rows[1][0]:
            row[4] = other


TAMPERS = [
    ("combinatorics", "matching", scale_cell(1, 1, 1 + 1e-9), None),
    ("combinatorics", "census_12_report", _break_census, None),
    ("combinatorics", "census_8_adversarial", lambda rows: rows.pop(), None),
    ("flow_portrait", "phase_diagram", _flip_terminal, None),
    ("flow_portrait", "flow", shift_cell(3, 5, 1e-6), "trace_0005.csv"),
    ("flow_portrait", "flow", lambda rows: rows.pop(), "index.csv"),
    ("lifetime_grid", "lifetime_runaway", lambda rows: rows.pop(), None),
]


@pytest.mark.parametrize("workload,prefix,edit,member", TAMPERS)
def test_check_accepts_output_and_catches_tampering(tmp_path, workload, prefix, edit, member):
    call = first_call(workload, prefix)
    out = run_call(call, tmp_path)
    assert call.check(out) is None
    rewrite(os.path.join(out, member) if member else out, edit)
    assert call.check(out) is not None


@pytest.mark.parametrize("field", ["j_L", "t_mem_over_tau", "lambda_critical"])
def test_lifetime_sample_catches_a_wrong_column(tmp_path, field):
    call = first_call("lifetime_grid", "lifetime_localized")
    out = run_call(call, tmp_path)
    with open(out) as fh:
        col = next(csv.reader(fh)).index(field)

    def edit(rows):
        for row in rows[1:]:
            row[col] = repr(float(row[col]) * (1 + 1e-12))

    rewrite(out, edit)
    assert call.check(out) is not None


def test_lifetime_check_rejects_nan(tmp_path):
    call = first_call("lifetime_grid", "lifetime_runaway")
    out = run_call(call, tmp_path)
    rewrite(out, lambda rows: rows[5].__setitem__(-1, "nan"))
    assert "nan" in call.check(out)


def test_pool_output_must_match_serial_bytes(tmp_path):
    serial = first_call("pool_dispatch", "phase_diagram")
    for sub in ("serial", "pool"):
        (tmp_path / sub).mkdir()
    reference = run_call(serial, tmp_path / "serial")
    twin = workloads.parallel_twin(serial, workloads.digest(reference))
    out = run_call(twin, tmp_path / "pool")
    assert twin.check(out) is None
    with open(out, "r+b") as fh:
        fh.seek(40)
        byte = fh.read(1)
        fh.seek(40)
        fh.write(b"7" if byte != b"7" else b"8")
    assert twin.check(out) is not None


def test_seed_changes_values_but_not_point_counts():
    def shape(calls):
        return [(c.name, {k: len(v) for k, v in c.config["axes"].items()}) for c in calls]

    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 1), workloads.build(name, 2)
        assert shape(a) == shape(b)
        assert [c.config for c in a] != [c.config for c in b]
        assert [c.config for c in a] == [c.config for c in workloads.build(name, 1)]

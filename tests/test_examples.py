"""Smoke runs of what the repository ships beside the package: every example
config through the CLI, and the trajectories of the phase-portrait example."""
import csv
import json
import pathlib
import re

import pytest

from codebath.bath import BathSpec
from codebath.cli import main
from codebath.lifetimes import lambda_bar_sq

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.json"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("config", EXAMPLES, ids=lambda p: p.name)
def test_example_config_runs(tmp_path, config):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    files = sorted(out.iterdir()) if out.is_dir() else [out]
    for path in files:
        assert not re.search(r"\bnan\b", path.read_text()), path


def test_kt_portrait_example(tmp_path):
    config = ROOT / "examples" / "kt_portrait.json"
    out = tmp_path / "portrait.csv"
    assert main(["phase-diagram", "--config", str(config), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    axes = json.loads(config.read_text())["axes"]
    labels = {row["trajectory_id"]: row["terminal_label"] for row in rows}
    assert len(labels) == len(axes["j_perp"]) * len(axes["jz"]) == 40
    assert sorted(set(labels.values())) == ["CutoffReached", "Localized", "StrongCoupling"]
    assert {row["separatrix"] for row in rows} == {"", "jz=-jperp", "jz=+jperp"}


def test_subohmic_threshold_example(tmp_path):
    # at s = 0.5 the threshold sits at z = 1/(s+1) = 2/3: lambda_critical is
    # the same at every L exactly on the ShortRange rows, the band between
    # 1/2 and 2/3 included on the other side
    out = tmp_path / "subohmic.csv"
    assert main(["sweep", "--config", str(ROOT / "examples" / "subohmic_threshold.json"),
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    curves = {}
    for row in rows:
        curves.setdefault((row["z"], row["regime"]), []).append(row["lambda_critical"])
    assert sorted(regime for _, regime in curves) == [
        "Critical", "LongRange", "LongRange", "LongRange", "ShortRange"
    ]
    for (z, regime), column in curves.items():
        assert len(column) == 3
        assert (len(set(column)) == 1) == (regime == "ShortRange"), z


def test_neutral_atom_example(tmp_path):
    # a 1 ms cycle, 3 um pitch, z = 1 vacuum and c = 3e8 m/s at the threshold
    # coupling g_c = 1/(4 c tau/a), evaluated at L = 100 and eps = 0.01
    config = ROOT / "examples" / "neutral_atom.json"
    out = tmp_path / "neutral_atom.csv"
    assert main(["lifetime", "--config", str(config), "--out", str(out)]) == 0
    _, row = out.read_text().splitlines()
    assert row == ("ShortRange,AFM,100,1.9947114020071577e-11,inf,inf,,0,inf,"
                   "7.9092886274999993e-38")
    params = json.loads(config.read_text())["params"]
    spec = BathSpec(**{"lam" if name == "lambda" else name: value
                       for name, value in params.items() if name != "epsilon"})
    assert lambda_bar_sq(spec, 100) == pytest.approx(1.0, rel=1e-12)

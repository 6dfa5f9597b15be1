"""Smoke runs of what the repository ships beside the package: every example
config through the command README gives for it, and the trajectories of the
phase-portrait example."""
import csv
import json
import pathlib
import re
import shutil

import pytest

from codebath.bath import BathSpec
from codebath.cli import main
from codebath.lifetimes import lambda_bar_sq

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.json"))


def command(config):
    """The argv README's Examples section gives for ``config``."""
    return ["sweep", "--config", f"examples/{config.name}"]


def run_example(tmp_path, monkeypatch, config):
    """Run ``config`` through its README command from a scratch working
    directory holding a copy of it; return the output path it names."""
    (tmp_path / "examples").mkdir()
    shutil.copy(config, tmp_path / "examples")
    monkeypatch.chdir(tmp_path)
    assert main(command(config)) == 0
    return tmp_path / json.loads(config.read_text())["output_path"]


def test_examples_exist():
    assert EXAMPLES


def test_readme_gives_every_example_its_command():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Examples\n", 1)[1].split("\n## ", 1)[0]
    given = [cmd.split() for cmd in re.findall(r"`codebath ([^`]*examples/[^`]*)`", section)]
    assert sorted(given) == [command(config) for config in EXAMPLES]


@pytest.mark.parametrize("config", EXAMPLES, ids=lambda p: p.name)
def test_example_config_runs(tmp_path, monkeypatch, config):
    out = run_example(tmp_path, monkeypatch, config)
    files = sorted(out.iterdir()) if out.is_dir() else [out]
    for path in files:
        assert not re.search(r"\bnan\b", path.read_text()), path


def test_kt_portrait_example(tmp_path, monkeypatch):
    config = ROOT / "examples" / "kt_portrait.json"
    with open(run_example(tmp_path, monkeypatch, config), newline="") as fh:
        rows = list(csv.DictReader(fh))
    axes = json.loads(config.read_text())["axes"]
    labels = {row["trajectory_id"]: row["terminal_label"] for row in rows}
    assert len(labels) == len(axes["j_perp"]) * len(axes["jz"]) == 40
    assert sorted(set(labels.values())) == ["CutoffReached", "Localized", "StrongCoupling"]
    assert {row["separatrix"] for row in rows} == {"", "jz=-jperp", "jz=+jperp"}


def test_subohmic_threshold_example(tmp_path, monkeypatch):
    # at s = 0.5 the threshold sits at z = 1/(s+1) = 2/3: lambda_critical is
    # the same at every L exactly on the ShortRange rows, the band between
    # 1/2 and 2/3 included on the other side
    out = run_example(tmp_path, monkeypatch, ROOT / "examples" / "subohmic_threshold.json")
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


def test_neutral_atom_example(tmp_path, monkeypatch):
    # a 1 ms cycle, 3 um pitch, z = 1 vacuum and c = 3e8 m/s at the threshold
    # coupling g_c = 1/(4 c tau/a), evaluated at L = 100 and eps = 0.01
    config = ROOT / "examples" / "neutral_atom.json"
    _, row = run_example(tmp_path, monkeypatch, config).read_text().splitlines()
    assert row == ("ShortRange,AFM,100,1.9947114020071577e-11,inf,inf,,0,inf,"
                   "7.9092886274999993e-38")
    params = json.loads(config.read_text())["params"]
    spec = BathSpec(**{"lam" if name == "lambda" else name: value
                       for name, value in params.items() if name != "epsilon"})
    assert lambda_bar_sq(spec, 100) == pytest.approx(1.0, rel=1e-12)

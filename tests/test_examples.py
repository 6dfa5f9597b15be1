"""Smoke runs of what the repository ships beside the package: every example
config through the CLI, and the phase-portrait script at a short l_max."""
import pathlib
import re
import runpy
import sys

import pytest

from codebath.cli import main

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


def test_phase_portrait_script(tmp_path, monkeypatch, capsys):
    out = tmp_path / "portrait.csv"
    script = ROOT / "scripts" / "kt_phase_portrait.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(out), "--l-max", "5"])
    runpy.run_path(str(script), run_name="__main__")
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith(f"wrote {out}: 46 trajectories, ")
    assert [line.split(":")[0].strip() for line in printed[1:]] == [
        "StrongCoupling", "Localized", "CutoffReached"
    ]
    assert sum(int(line.split(":")[1]) for line in printed[1:]) == 46

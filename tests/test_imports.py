"""Start-up cost: the CLI and every task, the flow integrations included, run
without numpy or scipy (about 0.8 s to import), which only the tests use as
oracles, and without the ``csv`` module, which only the tests use as the byte
oracle of every task's rows; importing one submodule loads only the
submodules it uses.  Each case runs in a fresh interpreter, since the rest of
the suite has long loaded both."""
import json
import os
import subprocess
import sys
from pathlib import Path

import codebath

SRC = str(Path(codebath.__file__).resolve().parent.parent)

# Prints, after each step, the numpy, scipy and csv modules loaded so far.
SCRIPT = """
import json, sys
def oracle_only():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy", "csv", "_csv"))
print(json.dumps(["import", 0, oracle_only()]))
from codebath.cli import main
print(json.dumps(["import codebath.cli", 0, oracle_only()]))
for step, argv in json.loads(sys.argv[1]):
    code = main(argv)
    print(json.dumps([step, code, oracle_only()]))
"""


def run_steps(steps):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(steps)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]


def config(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**cfg, "output_path": str(tmp_path / f"{name}.out")}))
    return ["sweep", "--config", str(path)]


def test_closed_form_tasks_load_no_numpy_or_scipy(tmp_path):
    steps = [
        ["lifetime", config(tmp_path, "lifetime", {
            "task": "lifetime", "axes": {"L": [4, 64], "z": [1.0, 0.5], "jz_star": [-0.5]},
            "params": {"lambda": 0.05, "temperature": 0.1}})],
        ["matching", config(tmp_path, "matching", {"task": "matching", "axes": {"n": [2, 8]}})],
        ["census", config(tmp_path, "census", {
            "task": "census", "axes": {"L": [6], "weight": [0, 3, 6]}})],
        ["flow", config(tmp_path, "flow", {
            "task": "flow", "axes": {"j_perp": [0.1], "jz": [0.2]}, "params": {"l_max": 5.0}})],
        ["phase_diagram", config(tmp_path, "phase_diagram", {
            "task": "phase_diagram", "axes": {"j_perp": [0.1, 0.3], "jz": [-0.2, 0.2]}})],
    ]
    results = run_steps(steps)
    assert [step for step, _, _ in results] == [
        "import", "import codebath.cli", *(step for step, _ in steps)
    ]
    for step, code, loaded in results:
        assert (code, loaded) == (0, []), step


# Prints the codebath submodules loaded after each import, in one interpreter.
SUBMODULES_SCRIPT = """
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
    print(json.dumps([name, sorted(m for m in sys.modules if m.startswith("codebath."))]))
"""


def loaded_after(*names):
    """{name: codebath submodules loaded once ``name`` is imported}, in one
    fresh interpreter that imports ``names`` in order."""
    proc = subprocess.run(
        [sys.executable, "-c", SUBMODULES_SCRIPT, *names],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return dict(json.loads(line) for line in proc.stdout.splitlines())


def test_submodule_imports_load_only_their_dependencies():
    loaded = loaded_after("codebath", "codebath.bath")
    assert loaded["codebath"] == []
    assert loaded["codebath.bath"] == ["codebath.bath"]  # the leaf: the regime rule lives here
    # the code-distance check lives with its one user, so lifetimes needs only the bath
    lifetimes = loaded_after("codebath.lifetimes")["codebath.lifetimes"]
    assert lifetimes == ["codebath.bath", "codebath.lifetimes"]
    wick = loaded_after("codebath.wick")["codebath.wick"]
    assert wick == ["codebath.errors", "codebath.wick"]
    census = loaded_after("codebath.surface_code")["codebath.surface_code"]
    assert census == ["codebath.errors", "codebath.surface_code"]


def test_cli_start_loads_no_fractions_or_decimal():
    # exact rationals would cost every start the decimal and numbers modules
    script = (f"import sys; sys.path.insert(0, {SRC!r}); import codebath.cli; "
              "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

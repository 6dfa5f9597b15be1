"""The benchmark's outside-in tracer (``bench/tracing.py``, imported as is)
still sees every layer of the sweep pipeline: it patches module bindings, so a
table that captured them at import time would hide the calls it counts."""
import json
import os
import subprocess
import sys
from pathlib import Path

import codebath
from codebath.cli import main

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, BENCH)
import tracing  # noqa: E402

CONFIGS = {
    "lifetime": {"task": "lifetime", "axes": {"L": [4, 8], "z": [1.0, 0.5]},
                 "params": {"lambda": 0.05}},
    # jx != jy: starts that reach sweeps.integrate_flow
    "flow": {"task": "flow", "axes": {"jx": [0.1], "jy": [0.09], "jz": [-0.2, 0.2]},
             "params": {"l_max": 20.0}},
    "matching": {"task": "matching", "axes": {"n": [4, 6]}},
    "census": {"task": "census", "axes": {"L": [4], "weight": [1, 2]}},
}


def test_tracer_sees_every_layer(tmp_path):
    tracer = tracing.Tracer()
    tracer.pass_no = 0
    with tracer.installed():
        for name, cfg in CONFIGS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**cfg, "output_path": str(tmp_path / name)}))
            assert main(["sweep", "--config", str(path)]) == 0
    counts = tracer.counts[0]
    for key in (
        "sweeps.rows_written", "rg_flow.integrate_flow.calls", "lifetimes.build_report.calls",
        "wick.matching_sum.calls", "surface_code.decodes",
    ):
        assert counts[key] > 0, key
    spans = {span[0] for span in tracer.spans}
    assert {
        "sweeps.validate", "sweeps.grid", "sweeps.evaluate", "sweeps.write",
        "rg_flow.integrate_flow",
    } <= spans


# The tracer installed before any flow has run, as in a fresh benchmark run of
# a workload whose first configs never integrate.
FRESH_SCRIPT = """
import json, sys
import tracing
from codebath import rg_flow
from codebath.cli import main
solve_ivp = rg_flow.solve_ivp
tracer = tracing.Tracer()
tracer.pass_no = 0
with tracer.installed():
    codes = [main(["sweep", "--config", path]) for path in sys.argv[1:]]
print(json.dumps({
    "codes": codes,
    "integrate_flow_calls": tracer.counts[0]["rg_flow.integrate_flow.calls"],
    "samples": tracer.counts[0]["rg_flow.samples"],
    "restored": rg_flow.solve_ivp is solve_ivp,
}))
"""


def test_tracer_installed_in_a_fresh_interpreter(tmp_path):
    paths = []
    for name in ("lifetime", "flow"):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({**CONFIGS[name], "output_path": str(tmp_path / name)}))
    src = str(Path(codebath.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, BENCH])}
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_SCRIPT, *map(str, paths)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["integrate_flow_calls"] > 0
    assert result["samples"] > 0
    assert result["restored"]

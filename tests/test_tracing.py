"""The benchmark's outside-in tracer (``bench/tracing.py``, imported as is)
still sees every layer of the sweep pipeline: it patches module bindings, so a
table that captured them at import time would hide the calls it counts."""
import json
import sys
from pathlib import Path

from codebath.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402

CONFIGS = {
    "lifetime": {"task": "lifetime", "axes": {"L": [4, 8], "z": [1.0, 0.5]},
                 "params": {"lambda": 0.05}},
    "flow": {"task": "flow", "axes": {"j_perp": [0.1], "jz": [-0.2, 0.2]},
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
        "sweeps.rows_written", "rg_flow.solve_ivp_calls", "lifetimes.build_report.calls",
        "wick.matching_sum.calls", "surface_code.decodes",
    ):
        assert counts[key] > 0, key
    spans = {span[0] for span in tracer.spans}
    assert {
        "sweeps.validate", "sweeps.grid", "sweeps.evaluate", "sweeps.write",
        "rg_flow.integrate_flow",
    } <= spans

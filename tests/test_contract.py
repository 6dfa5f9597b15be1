"""The CLI contract: any config ends in exit 0, 2, 3 or 4, never in a
traceback, and no output holds ``nan``; an exit 2 names the offending field.

Configs are drawn for all six tasks, mostly valid so that evaluation runs,
with out-of-domain values mixed in and lifetime magnitudes out to the ends of
float range.  Sizes are bounded only for time: flow ``l_max`` <= 50,
matching n <= 20 (or 26, which the pairing-sum ceiling refuses at once), census
L <= 30 (or 20000, which the census ceiling refuses at once), at most two
values per axis.
"""
import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from codebath.cli import main

EXTREMES = [1e-300, 1e-200, 1e-10, 1e10, 1e200, 1e300, 1.7e308]
INVALID = [0.0, -1.0, math.nan, math.inf, 10**400]
# ``$`` (the whole config), a key, or a key's entry: task, params.z, axes.L[1]
FIELD_PATH = re.compile(r"config error: (\$|\w+(\.\w+(\[\d+\])?)?): \S")


def positive():
    """Positive magnitudes spread over float range in exponent."""
    spread = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 300))
    return st.one_of(spread, st.sampled_from(EXTREMES), st.floats(0.01, 10.0))


def sometimes_invalid(valid):
    return st.one_of(valid, valid, valid, st.sampled_from(INVALID))


def axis(values):
    return st.lists(values, min_size=1, max_size=2)


def config(task, axes, params):
    return st.builds(
        lambda a, p: {"task": task, "axes": a, "params": p},
        st.fixed_dictionaries({}, optional=axes) if isinstance(axes, dict) else axes,
        st.fixed_dictionaries({}, optional=params),
    )


_lifetime_values = {
    "z": sometimes_invalid(st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), positive())),
    "lambda": st.one_of(st.just(0.0), sometimes_invalid(positive())),
    "temperature": st.one_of(st.just(0.0), sometimes_invalid(positive())),
    "epsilon": sometimes_invalid(st.one_of(st.floats(1e-300, 0.999), st.sampled_from([1e-200]))),
    "s": sometimes_invalid(st.sampled_from([1.0, 0.5, 0.3, 1e-300])),
    "jz_star": st.one_of(st.just(0.0), positive(), positive().map(lambda v: -v)),
}
_spec_params = {
    name: sometimes_invalid(positive()) for name in ("v", "a", "a0", "tau_qec", "hbar", "kB")
}
_L = st.one_of(st.sampled_from([2, 4, 8, 64, 1000]), st.sampled_from([3, 0, 4.0, 10**400]))
lifetime = st.builds(
    lambda L, rest, params: {"task": "lifetime", "axes": {"L": L, **rest}, "params": params},
    axis(_L),
    st.fixed_dictionaries({}, optional={k: axis(v) for k, v in _lifetime_values.items()}),
    st.fixed_dictionaries({}, optional=_spec_params),
).map(lambda c: {**c, "params": {k: v for k, v in c["params"].items() if k not in c["axes"]}})

_couplings = st.one_of(st.floats(-3.5, 3.5), st.sampled_from([1e150, -1e160, 1e300]))
_flow_params = {
    "l_max": sometimes_invalid(st.floats(0.1, 50.0)),
    "j_max": st.one_of(st.floats(0.5, 10.0), st.sampled_from([0.0, 1e10, 1e200])),
    "j_min": st.one_of(st.floats(1e-10, 0.1), st.just(2.0)),
    "abs_tol": st.floats(1e-12, 1e-6),
    "rel_tol": st.floats(1e-12, 1e-6),
}
flow = config("flow", {name: axis(_couplings) for name in ("jx", "jy", "jz", "j_perp")},
              _flow_params)
phase_diagram = config("phase_diagram", {"j_perp": axis(st.floats(-4, 4)),
                                         "jz": axis(st.floats(-4, 4))},
                       {name: _flow_params[name] for name in ("l_max", "j_max", "j_min")})
matching = config(
    "matching",
    {"n": axis(st.one_of(st.integers(-2, 20), st.just(26)))},
    {"z": st.one_of(st.floats(-1.0, 3.0), st.sampled_from(EXTREMES),
                    st.sampled_from([-v for v in EXTREMES]))},
)
census = config(
    "census",
    {"L": axis(st.one_of(st.integers(-1, 30), st.just(20000))),
     "weight": axis(st.one_of(st.integers(-1, 32), st.just(10000)))},
    {"rule": st.sampled_from(["report", "benign", "adversarial", "hope"])},
)
preset = config(
    "preset", st.just({}),
    {"name": st.sampled_from(["neutral_atom", "superconducting", "mainframe"])},
)


@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(st.one_of(lifetime, flow, phase_diagram, matching, census, preset))
# values that once ended in a traceback or a late, pathless refusal
@example({"task": "matching", "axes": {"n": [2, 4, 6]}, "params": {"z": -1e300}})
@example({"task": "preset", "axes": {}, "params": {"name": "neutral_atom", "L_grid": [10**400]}})
@example({"task": "lifetime", "axes": {"L": [4]}, "params": {}, "output_path": "out\0.csv"})
@example({"task": "census", "axes": {"L": [20000], "weight": [10000]}, "params": {}})
@example({"task": "lifetime", "axes": {"L": [200, 2000]}, "params": {"s": 0.5, "lambda": 0.5}})
# a pair whose square underflows, and a ceiling the closed form meets at its pole
@example({"task": "phase_diagram", "axes": {"j_perp": [5e-324], "jz": [1.0]}, "params": {}})
@example({"task": "phase_diagram", "axes": {"j_perp": [5e-324], "jz": [5e-324]},
          "params": {"j_max": 0.5}})
@example({"task": "phase_diagram", "axes": {"j_perp": [-3.5], "jz": [3.5]},
          "params": {"j_max": 1e200}})
# a ceiling near float max whose scale overflowed, a cutoff within rounding of
# the pole, and an RK45 first step that underflowed to 0
@example({"task": "flow", "axes": {"j_perp": [1e-8], "jz": [1.3e154]},
          "params": {"j_max": 1.34e154}})
@example({"task": "phase_diagram", "axes": {"j_perp": [-1.0], "jz": [0.9999999999999999]},
          "params": {"j_max": 1e100, "l_max": 1.0}})
@example({"task": "flow", "axes": {"jx": [0.5], "jy": [-0.1], "jz": [1e150]},
          "params": {"j_max": 1.34e154}})
def test_any_config_exits_with_a_documented_code_and_no_nan(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, cfg.get("output_path", "out"))
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump({**cfg, "output_path": out}, fh)
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("ignore")
            code = main(["sweep", "--config", path])
        assert code in (0, 2, 3, 4)
        if code == 2:
            assert FIELD_PATH.match(stderr.getvalue()), stderr.getvalue()
        files = [os.path.join(out, f) for f in os.listdir(out)] if os.path.isdir(out) else [out]
        for file in files:
            if os.path.exists(file):
                with open(file) as fh:
                    assert not re.search(r"\bnan\b", fh.read()), file

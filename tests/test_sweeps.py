import csv
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codebath import cli, sweeps
from codebath.bath import BathSpec, RegimeLabel
from codebath.cli import main
from codebath.errors import ConfigError, ResourceLimitError
from codebath.lifetimes import CodePoint, LifetimeReport, Phase, build_report, critical_coupling
from codebath.rg_flow import (
    PORTRAIT_SAMPLES,
    CouplingVector,
    CutoffReached,
    FlowTrace,
    Localized,
    StrongCoupling,
    constants_of_motion,
)
from codebath.surface_code import CensusRecord, TieBreak
from codebath.sweeps import (
    LIFETIME_FIELDS,
    SweepConfig,
    format_cell,
    grid_points,
    read_config,
    run,
    validate_config,
)


def lifetime_config(out, axes=None, params=None, **extra):
    cfg = {
        "task": "lifetime",
        "axes": axes or {"L": [4, 8], "z": [1.0]},
        "params": params or {"lambda": 0.05},
        "output_path": str(out),
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- config validation ------------------------------------------------------

MALFORMED = [
    ({"axes": {"L": [4]}, "output_path": "x.csv"}, "task"),
    ({"task": "teleport", "axes": {"L": [4]}, "output_path": "x.csv"}, "task"),
    ({"task": "lifetime", "axes": {"L": [4]}}, "output_path"),
    ({"task": "lifetime", "axes": "L", "output_path": "x.csv"}, "axes"),
    ({"task": "lifetime", "axes": {}, "output_path": "x.csv"}, "axes"),
    ({"task": "lifetime", "axes": {"L": []}, "output_path": "x.csv"}, "axes.L"),
    ({"task": "lifetime", "axes": {"L": [4, "six"]}, "output_path": "x.csv"}, "axes.L[1]"),
    ({"task": "lifetime", "axes": {"L": [3]}, "output_path": "x.csv"}, "axes.L[0]"),
    ({"task": "census", "axes": {"bogus": [1]}, "output_path": "x.csv"}, "axes.bogus"),
    (
        {"task": "lifetime", "axes": {"L": [4]}, "output_path": "x.csv", "parallelism": 0},
        "parallelism",
    ),
    (
        {"task": "census", "axes": {"L": [4]}, "params": {"rule": "hope"}, "output_path": "x.csv"},
        "params.rule",
    ),
    (
        {"task": "lifetime", "axes": {"z": [1.0]}, "params": {"z": 0.5}, "output_path": "x.csv"},
        "params.z",
    ),
    # a hardware point is a lifetime config's params: no task takes a preset name
    (
        {"task": "lifetime", "axes": {"L": [100]}, "params": {"name": "neutral_atom"},
         "output_path": "x.csv"},
        "params.name",
    ),
    ({"task": "flow", "axes": {"jz": [0.1]}, "params": {"name": "neutral_atom"},
      "output_path": "x"}, "params.name"),
    (
        {"task": "lifetime", "axes": {"L": [4]}, "output_path": "x.csv", "seed": "abc"},
        "seed",
    ),
    (
        {"task": "lifetime", "axes": {"L": [4]}, "params": {"lambda": math.nan},
         "output_path": "x.csv"},
        "params.lambda",
    ),
    (
        {"task": "lifetime", "axes": {"L": [4], "z": [1.0, math.inf]}, "output_path": "x.csv"},
        "axes.z[1]",
    ),
    (
        {"task": "flow", "axes": {"jz": [0.1]}, "params": {"l_max": -math.inf},
         "output_path": "x"},
        "params.l_max",
    ),
    ({"task": "lifetime", "axes": {"L": [0]}, "output_path": "x.csv"}, "axes.L[0]"),
    (
        {"task": "lifetime", "axes": {"z": [1.0]}, "params": {"L": 3}, "output_path": "x.csv"},
        "params.L",
    ),
    (
        {"task": "census", "axes": {"L": [4], "weight": [2]}, "params": {"L_grid": [4, 5]},
         "output_path": "x.csv"},
        "params.L_grid",
    ),
    # domain rules of the object each value becomes
    ({"task": "lifetime", "axes": {"L": [4]}, "params": {"z": -1}, "output_path": "x.csv"},
     "params.z"),
    ({"task": "lifetime", "axes": {"L": [4]}, "params": {"epsilon": 1.5}, "output_path": "x.csv"},
     "params.epsilon"),
    ({"task": "matching", "axes": {"n": [0]}, "output_path": "x.csv"}, "axes.n[0]"),
    ({"task": "lifetime", "axes": {"L": [4], "s": [1.5]}, "output_path": "x.csv"}, "axes.s[0]"),
    # the bath's dimension and momentum exponent enter no formula, so no config names them
    ({"task": "lifetime", "axes": {"L": [4]}, "params": {"D_dim": 2}, "output_path": "x.csv"},
     "params.D_dim"),
    ({"task": "census", "axes": {"L": [4], "weight": [9]}, "output_path": "x.csv"},
     "axes.weight[0]"),
    ({"task": "flow", "axes": {"jz": [0.1]}, "params": {"sample_stride": 0}, "output_path": "x"},
     "params.sample_stride"),
    (
        {"task": "phase_diagram", "axes": {"j_perp": [0.1], "jz": [0.1]}, "params": {"l_max": 0},
         "output_path": "x.csv"},
        "params.l_max",
    ),
    ({"task": "flow", "axes": {"jz": [0.1]}, "params": {"j_min": 2.0}, "output_path": "x"},
     "params.j_min"),
    ({"task": "lifetime", "axes": {"L": [10**400]}, "output_path": "x.csv"}, "axes.L[0]"),
    ({"task": "census", "axes": {"L": [4]}, "output_path": "x.csv"}, "axes.weight"),
    ({"task": "phase_diagram", "axes": {"jz": [0.1]}, "output_path": "x.csv"}, "axes.j_perp"),
    ({"task": "census", "axes": {"L": [1], "weight": [0]}, "output_path": "x.csv"}, "axes.L[0]"),
    ({"task": "flow", "axes": {"jz": [1e160]}, "output_path": "x"}, "axes.jz[0]"),
    (
        {"task": "lifetime", "axes": {"L": [4]}, "output_path": "x.csv", "seed": 0},
        "seed",
    ),
    (
        {"task": "flow", "axes": {"jz": [0.1]}, "params": {"rel_tol": 1e-20}, "output_path": "x"},
        "params.rel_tol",
    ),
    ({"task": "lifetime", "axes": {"L": [4]}, "params": {"alpha": 0.5}, "output_path": "x.csv"},
     "params.alpha"),
    ({"task": "flow", "axes": {"jz": [0.1]}, "params": {"sample_stride": 2.5}, "output_path": "x"},
     "params.sample_stride"),
    # the portrait samples closed forms at fixed points: no integrator knob applies
    *(({"task": "phase_diagram", "axes": {"j_perp": [0.1], "jz": [0.1]}, "params": {name: value},
        "output_path": "x.csv"}, f"params.{name}")
      for name, value in (("rel_tol", 1e-8), ("abs_tol", 1e-12), ("sample_stride", 1))),
    # a trace keeps every accepted step, and a lifetime sweep gives lambda_c over any L grid
    ({"task": "flow", "axes": {"jz": [0.1]}, "params": {"sample_stride": 3}, "output_path": "x"},
     "params.sample_stride"),
    ({"task": "lifetime", "axes": {"L": [4]}, "params": {"L_grid": [4, 8, 64]},
      "output_path": "x.csv"}, "params.L_grid"),
    ({"task": "lifetime", "axes": {"L": [4]}, "output_path": ""}, "output_path"),
    ({"task": "lifetime", "axes": {"L": [4]}, "params": [], "output_path": "x.csv"}, "params"),
    ([], "$"),
    # the hardware presets are example configs of the lifetime task
    ({"task": "preset", "params": {"name": "neutral_atom"}, "output_path": "x.txt"}, "task"),
    ({"task": "preset", "output_path": "x.txt"}, "task"),
]


@pytest.mark.parametrize("obj,path", MALFORMED)
def test_malformed_configs_fail_with_field_path(obj, path):
    with pytest.raises(ConfigError) as err:
        validate_config(obj)
    assert err.value.path == path


def test_flow_options_are_checked_together():
    flow = {"task": "flow", "axes": {"jz": [0.1]}, "output_path": "x"}
    validate_config({**flow, "params": {"j_min": 2.0, "j_max": 5.0}})
    # the portrait's default ceiling j_max = 4 admits j_min = 2
    validate_config(
        {**flow, "task": "phase_diagram", "axes": {"j_perp": [0.1], "jz": [0.1]},
         "params": {"j_min": 2.0}}
    )
    with pytest.raises(ConfigError) as err:
        validate_config({**flow, "params": {"j_min": 0.5, "j_max": 0.4}})
    assert err.value.path == "params.j_max"


def test_flow_config_refuses_rel_tol_below_solver_floor():
    # no closed form reads the tolerances, yet a flow config keeps their rules
    flow, floor = {"task": "flow", "axes": {"jz": [0.1]}, "output_path": "x"}, 2.220446049250313e-14
    assert floor == 100 * sys.float_info.epsilon
    assert validate_config({**flow, "params": {"rel_tol": floor}}).params == {"rel_tol": floor}
    for params, message in (
        ({"rel_tol": math.nextafter(floor, 0.0)},
         "params.rel_tol: rel_tol must be >= 2.220446049250313e-14 (100 float epsilons)"),
        ({"rel_tol": 1e-20}, "params.rel_tol: rel_tol must be >= 2.220446049250313e-14"),
        ({"rel_tol": 0}, "params.rel_tol: tolerances must be positive"),
        ({"abs_tol": 1e-10, "rel_tol": 1e-10, "j_min": 2.0}, "params.j_min: need 0 < j_min"),
        ({"abs_tol": 0.0, "rel_tol": 1e-10}, "params.abs_tol: tolerances must be positive"),
    ):
        with pytest.raises(ConfigError) as err:
            validate_config({**flow, "params": params})
        assert str(err.value).startswith(message)


def test_distinct_paths_across_canonical_malformed_set():
    paths = set()
    for obj, _ in MALFORMED:
        with pytest.raises(ConfigError) as err:
            validate_config(obj)
        paths.add(err.value.path)
    assert len(paths) >= 10


def test_validate_accepts_good_config(tmp_path):
    cfg = validate_config(lifetime_config(tmp_path / "o.csv"))
    assert isinstance(cfg, SweepConfig)


def test_unknown_top_level_key():
    with pytest.raises(ConfigError) as err:
        validate_config({"task": "lifetime", "axes": {"L": [4]}, "output_path": "x", "frob": 1})
    assert err.value.path == "frob"


def test_flow_axis_exclusivity():
    with pytest.raises(ConfigError) as err:
        validate_config(
            {
                "task": "flow",
                "axes": {"j_perp": [0.1], "jx": [0.1], "jz": [0.1]},
                "output_path": "x",
            }
        )
    assert err.value.path == "axes.j_perp"


@pytest.mark.parametrize("task,axes,path,message", [
    ("lifetime", {"L": [4.0]}, "axes.L[0]", "L must be an even integer >= 2"),
    ("census", {"L": [4.0], "weight": [1]}, "axes.L[0]",
     "contour length and weight must be integers"),
    ("census", {"L": [4], "weight": [1.0]}, "axes.weight[0]",
     "contour length and weight must be integers"),
    ("matching", {"n": [4.0]}, "axes.n[0]", "n must be an integer"),
], ids=["lifetime-L", "census-L", "census-weight", "matching-n"])
def test_non_integer_axis_is_refused_by_its_object(tmp_path, capsys, task, axes, path, message):
    out = tmp_path / "out.csv"
    cfg = {"task": task, "axes": axes, "output_path": str(out)}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"
    assert not out.exists()


# --- grid and formatting ----------------------------------------------------


def test_grid_points_lexicographic():
    points = grid_points({"z": (1.0, 2.0), "L": (4, 8)})
    # axes sorted alphabetically: L varies slowest
    assert points == [
        {"L": 4, "z": 1.0},
        {"L": 4, "z": 2.0},
        {"L": 8, "z": 1.0},
        {"L": 8, "z": 2.0},
    ]


class _Float(float):
    pass


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(7) == "7"
    assert format_cell(-12) == "-12"
    assert format_cell(10**20) == "100000000000000000000"
    assert format_cell(0.1) == "0.10000000000000001"
    assert format_cell(math.inf) == "inf"
    assert format_cell(-math.inf) == "-inf"
    assert format_cell(math.nan) == "nan"
    assert format_cell(-0.0) == "-0"
    assert format_cell(1e-300) == "1e-300"
    assert len(format_cell(1.0 / 3.0).replace("0.", "")) == 17
    assert format_cell(_Float(0.1)) == format_cell(0.1) == "0.10000000000000001"


def test_failed_write_leaves_no_file(tmp_path):
    """A write that fails halfway through the lines, after the lines before
    it reached the temporary file, leaves neither it nor the output."""
    out = tmp_path / "rows.csv"

    class DiskFullHalfway(list):
        def __iter__(self):
            yield from itertools.islice(list.__iter__(self), 5000)
            [tmp] = tmp_path.iterdir()
            assert tmp.suffix == ".tmp" and tmp.stat().st_size > 0
            raise OSError(errno.ENOSPC, "disk full")

    with pytest.raises(OSError, match="disk full"):
        sweeps._write_rows(str(out), ["a", "b"], DiskFullHalfway(["ok,2\n"] * 10001))
    assert list(tmp_path.iterdir()) == []


# --- rows: csv.writer with the oracle's own cell rules is their oracle ---------

TRACE_HEADER = ("l", "jx", "jy", "jz", "c1", "c2")
PORTRAIT, FLOW = sweeps.TASKS["phase_diagram"], sweeps.TASKS["flow"]
MATCHING, CENSUS, LIFETIME = (sweeps.TASKS[t] for t in ("matching", "census", "lifetime"))
EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e17,
    -1e17, 1.7976931348623157e308, 0.1, -1 / 3, 4.0, _Float(0.1),
]
EDGE_INTS = [0, 2, -12, 10**20]


def oracle_cell(v) -> str:
    """A cell as the oracle writes it: None empty, an enum by value, an int in
    full, a float as ``%.17g``, a label or file name as itself."""
    if v is None:
        return ""
    if isinstance(v, Enum):
        return str(v.value)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return "%.17g" % v
    assert isinstance(v, str)
    return v


def oracle_csv(header, rows) -> bytes:
    """The bytes ``csv.writer`` writes for ``header`` and ``rows``, each cell
    through ``oracle_cell``: the writer every task's lines are held to."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([oracle_cell(v) for v in row] for row in rows)
    return buf.getvalue().encode()


def assert_rows_match_oracle(path: Path, header, rows):
    """The file at ``path`` holds the bytes the oracle gives for ``header``
    and ``rows``, the cells as evaluated (config values, enums and None)."""
    assert path.read_bytes() == oracle_csv(header, rows)


def lifetime_oracle(cfg: SweepConfig, reports):
    """The header and rows of a lifetime config whose grid points, in order,
    gave ``reports``: the swept axes but L as configured, then the record."""
    names = [name for name in sorted(cfg.axes) if name != "L"]
    points = grid_points(cfg.axes)
    rows = [[*(p[name] for name in names), *rep] for p, rep in zip(points, reports)]
    assert len(rows) == len(points)
    return [*names, *LIFETIME_FIELDS], rows


def assert_lifetime_rows_per_point(cfg: SweepConfig):
    """The lifetime file of ``cfg`` holds, per grid point, the report of a
    point that ``_code_point`` builds, its bath with it, from that point alone."""
    reports = (build_report(sweeps._code_point({**cfg.params, **p})) for p in grid_points(cfg.axes))
    assert_rows_match_oracle(Path(cfg.output_path), *lifetime_oracle(cfg, reports))


@given(st.floats())
def test_float_template_equals_format_cell(v):
    # the evaluators' f-string cells, format_cell and the oracle's rule agree
    assert f"{v:.17g}" == format_cell(v) == oracle_cell(v) == "%.17g" % v


def flow_index_oracle(flows):
    """The index rows of flows that gave (start, terminal, trace), in order,
    with each l_star and jz_star as evaluated (None if it has none)."""
    rows = []
    for tid, (start, terminal, _) in enumerate(flows):
        l_star = terminal.l_star if isinstance(terminal, StrongCoupling) else None
        jz_star = terminal.j_star.jz if isinstance(terminal, Localized) else None
        rows.append((tid, start.jx, start.jy, start.jz, type(terminal).__name__, l_star,
                     jz_star, f"trace_{tid:04d}.csv"))
    return rows


def assert_flow_matches_oracle(out: Path, flows):
    """Each trace file and the index of a ``flow`` run whose starts, in order,
    gave ``flows``: (start, terminal, trace rows as evaluated)."""
    for tid, (_, _, trace) in enumerate(flows):
        assert_rows_match_oracle(out / f"trace_{tid:04d}.csv", TRACE_HEADER, trace)
    assert_rows_match_oracle(out / "index.csv", FLOW.header, flow_index_oracle(flows))


def portrait_oracle(flows, tag):
    """The rows of a portrait whose starts, in order, gave ``flows``; ``tag``
    gives each start's separatrix cell."""
    return [(tid, l, p, z, type(terminal).__name__, tag(start))
            for tid, (start, terminal, trace) in enumerate(flows) for l, p, _, z, _, _ in trace]


def record_flows(monkeypatch, integrate, closed) -> list:
    """Route ``sweeps``' two flow calls through ``integrate`` and ``closed``;
    returns the list that each call appends its start, terminal and (l, jx, jy,
    jz, c1, c2) trace rows to."""
    flows = []

    def traced(start, options):
        trace = integrate(start, options)
        rows = [(l, j.jx, j.jy, j.jz, *constants_of_motion(j)) for l, j in trace.samples]
        flows.append((start, trace.terminal, rows))
        return trace

    def traced_closed(j_perp, jz, options):  # a jx = jy start, or a portrait's
        samples, terminal = closed(j_perp, jz, options)
        rows = [(l, p, p, z, 0.0, z * z - p * p) for l, p, z in samples]
        flows.append((CouplingVector(j_perp, j_perp, jz), terminal, rows))
        return samples, terminal

    monkeypatch.setattr(sweeps, "integrate_flow", traced)
    monkeypatch.setattr(sweeps, "symmetric_flow", traced_closed)
    return flows


def record_values(monkeypatch, matching_sum, failure_census) -> list:
    """Route the pairing sum and the census through the given functions;
    returns the list that each call appends its row, as evaluated, to."""
    values = []

    def summed(problem, *memo):
        n, total = len(problem.positions), matching_sum(problem, *memo)
        values.append((n, total, total ** (2.0 / n)))
        return total

    def counted(L, weight, rule):
        rec = failure_census(L, weight, rule)
        values.append((rec.L, rec.weight, rec.rule, rec.n_success, rec.n_logical, rec.n_tie))
        return rec

    monkeypatch.setattr(sweeps.wick, "matching_sum", summed)
    monkeypatch.setattr(sweeps.surface_code, "failure_census", counted)
    return values


def test_templated_rows_on_edge_values(tmp_path, monkeypatch):
    """Every task but ``lifetime`` (see below) through full runs, each physics
    call patched to give edge values: nan, +-inf, -0.0, 5e-324, 10**20 among
    them, every terminal kind with and without an l_star or jz_star cell."""
    floats = itertools.cycle(EDGE_FLOATS)
    kinds = itertools.cycle((StrongCoupling, Localized, CutoffReached))

    def terminal():
        kind = next(kinds)
        if kind is Localized:
            return Localized(CouplingVector(next(floats), next(floats), next(floats)))
        return kind(next(floats))

    def edge_closed(j_perp, jz, options):
        return tuple((next(floats), next(floats), next(floats)) for _ in range(4)), terminal()

    squarable = itertools.cycle([v for v in EDGE_FLOATS if not 1e154 < abs(v) < math.inf])

    def edge_integrate(start, options):  # as its own: no finite coupling whose square overflows
        samples = tuple((next(floats), CouplingVector(*(next(squarable) for _ in range(3))))
                        for _ in range(4))
        return FlowTrace(samples, terminal(), 0.0)

    sums = itertools.cycle([v for v in EDGE_FLOATS if not v < 0])  # a sum of positive weights
    census = itertools.product(EDGE_INTS, repeat=2)
    rules = itertools.cycle(TieBreak)

    def edge_census(L, weight, rule):
        L, w = next(census)
        return CensusRecord(L, w, next(rules), L, w, -w)

    flows = record_flows(monkeypatch, edge_integrate, edge_closed)
    values = record_values(monkeypatch, lambda problem, *memo: next(sums), edge_census)

    def run_task(name, axes, params=None):
        flows.clear()
        values.clear()
        cfg = validate_config({"task": name, "axes": axes, "params": params or {},
                               "output_path": str(tmp_path / name)})
        run(cfg)
        return tmp_path / name

    tags = {(0.1, -0.1): "jz=-jperp", (0.1, 0.1): "jz=+jperp"}
    out = run_task("phase_diagram", {"j_perp": [0.0, -0.0, 5e-324, 0.1], "jz": [-0.1, 0.1, 3.5]})
    assert_rows_match_oracle(out, PORTRAIT.header, portrait_oracle(
        flows, lambda start: tags.get((start.jx, start.jz), "")))
    assert ",StrongCoupling,\n" in out.read_text()  # empty tag
    # jx = jy starts take the closed form, the others integrate_flow
    out = run_task("flow", {"jx": [0.0, -0.0, 1e17, 5e-324], "jy": [0.0, 1e-300, 1e17],
                            "jz": [-0.0, -1e17]})
    assert len(flows) == 24 and 0 < sum(s.jx == s.jy for s, _, _ in flows) < 24
    assert_flow_matches_oracle(out, flows)
    assert ",CutoffReached,,,trace_" in (out / "index.csv").read_text()  # no l*, jz*
    out = run_task("matching", {"n": [2, 4, 24, 2, 4, 24, 2, 4, 24, 2, 4, 24]})
    assert_rows_match_oracle(out, MATCHING.header, values)
    out = run_task("census", {"L": [4, 6, 8, 10], "weight": [0, 1, 2, 3]})
    assert_rows_match_oracle(out, CENSUS.header, values)
    assert "\n0,-12,adversarial,0,-12,12\n" in out.read_text()
    assert ",100000000000000000000,report,100000000000000000000," in out.read_text()


def test_lifetime_rows_on_edge_values(tmp_path, monkeypatch):
    """Axis cells formatted once per run (an int as itself, -0.0 as -0) ahead
    of records of every enum, None and edge float, through full runs in both
    channels: the bath cells from ``build_report``, the pair and row cells from
    the helpers that compute them, each patched to give edge values."""
    floats, optional = itertools.cycle(EDGE_FLOATS), itertools.cycle([None, *EDGE_FLOATS])
    labels = itertools.cycle(itertools.product(RegimeLabel, Phase))
    drawn = {}  # per patched function, the value given for each argument list

    def edge(name, draw, key=lambda *args: repr(args)):
        table = drawn[name] = {}

        def cell(*args):
            k = key(*args)
            if k not in table:
                table[k] = draw(*args)
            return table[k]
        return cell

    monkeypatch.setattr(sweeps.lifetimes, "build_report", edge(
        "build_report", lambda point: LifetimeReport(
            *next(labels), point.L, next(floats), *(next(optional) for _ in range(5)),
            next(floats)),
        key=lambda point: (point.L, repr(point.spec))))  # one per (L, bath)
    for name in ("t_comp_over_tau", "t_mem_over_tau", "t2_thermal"):
        monkeypatch.setattr(sweeps.lifetimes, name, edge(name, lambda *_: next(optional)))

    def edge_rows(cfg):
        """Per grid point, the report the patched functions give its cells."""
        for p in grid_points(cfg.axes):
            values = {**cfg.params, **p}
            spec, (epsilon, jz_star) = sweeps._bath(values), sweeps._code_values(values)
            rep = drawn["build_report"][(p["L"], repr(spec))]
            if jz_star is None:
                args, t_mem = (epsilon, rep.t_K_over_tau, spec.s, rep.j_L), None
                t_comp = drawn["t_comp_over_tau"][repr(args)]
            else:
                t_comp, t_mem = None, drawn["t_mem_over_tau"][repr((epsilon, jz_star))]
            t2 = drawn["t2_thermal"][repr((spec, jz_star))]
            yield rep._replace(t_comp_over_tau=t_comp, t_mem_over_tau=t_mem, t2_thermal=t2)

    axes = {"L": [2, 10**20], "lambda": [0, -0.0, 5e-324, 10**20, _Float(0.1)],
            "jz_star": [-12, 1e17], "temperature": [0.0, 1.7976931348623157e308]}
    cfg = validate_config(lifetime_config(tmp_path / "life.csv", axes=axes, params={"z": 1}))
    run(cfg)
    assert_rows_match_oracle(Path(cfg.output_path), *lifetime_oracle(cfg, edge_rows(cfg)))
    text = (tmp_path / "life.csv").read_text()
    assert text.count("\n-12,-0,0,") == 2  # one row per L
    assert text.count("\n1e+17,100000000000000000000,1.7976931348623157e+308,") == 2
    axes = {"L": [4, 10**20], "epsilon": [0.5, 5e-324], "lambda": [0, -0.0], "s": [1, 0.5]}
    cfg = validate_config(lifetime_config(tmp_path / "runaway.csv", axes=axes, params={"z": 1}))
    run(cfg)
    assert_rows_match_oracle(Path(cfg.output_path), *lifetime_oracle(cfg, edge_rows(cfg)))


sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402
from test_rg_flow import scipy_flow  # noqa: E402

HEADERS = {"trace": TRACE_HEADER, **{name: task.header for name, task in sweeps.TASKS.items()}}


def header_task(header) -> str:
    """The task whose header ``header`` ends with ("trace" for a flow's trace
    file); a lifetime header leads with its swept axes."""
    [name] = [n for n, h in HEADERS.items() if tuple(header)[-len(h):] == h]
    return name


def run_workload_checked(tmp_path, monkeypatch, workload: str, seed: int) -> Counter:
    """Run the benchmark's ``workload`` configs for ``seed``, holding every
    file written byte-equal to the oracle of the values its physics calls
    gave; returns the files written per header, named by ``header_task``."""
    write_rows, files = sweeps._write_rows, Counter()

    def checked(*args):  # the benchmark's tracer unpacks three positional arguments
        path, header, rows = args
        assert isinstance(rows, list)  # and takes their len
        write_rows(*args)
        files[header_task(header)] += 1

    monkeypatch.setattr(sweeps, "_write_rows", checked)
    flows = record_flows(monkeypatch, sweeps.integrate_flow, sweeps.symmetric_flow)
    values = record_values(monkeypatch, sweeps.wick.matching_sum,
                           sweeps.surface_code.failure_census)
    for call in workloads.build(workload, seed):
        cfg = validate_config({**call.config, "output_path": str(tmp_path / call.out)})
        flows.clear()
        values.clear()
        out = Path(cfg.output_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the j(L) >= 1e3 caution
            run(cfg)
            if cfg.task == "lifetime":
                assert_lifetime_rows_per_point(cfg)
        if cfg.task == "flow":
            assert_flow_matches_oracle(out, flows)
        elif cfg.task == "phase_diagram":
            assert_rows_match_oracle(out, PORTRAIT.header, portrait_oracle(
                flows, lambda start: sweeps._separatrix_tag(start.jx, start.jz)))
        elif cfg.task != "lifetime":
            assert_rows_match_oracle(out, sweeps.TASKS[cfg.task].header, values)
    return files


@pytest.mark.parametrize("seed", [1, 7, 123])
def test_templated_rows_on_portrait_workload(tmp_path, monkeypatch, seed):
    """Every file of the benchmark's flow_portrait configs."""
    files = run_workload_checked(tmp_path, monkeypatch, "flow_portrait", seed)
    # one trace per flow start
    assert files == {"trace": 16, "phase_diagram": 1, "flow": 1}


@pytest.mark.parametrize("seed", [1, 7, 123])
@pytest.mark.parametrize(
    "workload, files",
    [("lifetime_grid", {"lifetime": 2}), ("combinatorics", {"matching": 3, "census": 10})],
)
def test_templated_rows_on_workload(tmp_path, monkeypatch, workload, files, seed):
    """Every file of the benchmark's lifetime_grid and combinatorics configs."""
    assert run_workload_checked(tmp_path, monkeypatch, workload, seed) == files


def test_written_files_keep_the_default_mode(tmp_path):
    out = tmp_path / "life.csv"
    run(validate_config(lifetime_config(out)))
    reference = tmp_path / "plain.txt"
    reference.write_text("")
    assert out.stat().st_mode == reference.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["life.csv", "plain.txt"]


# --- tasks ------------------------------------------------------------------


def test_lifetime_task_two_rows(tmp_path):
    out = tmp_path / "life.csv"
    run(validate_config(lifetime_config(out)))
    rows = read_rows(out)
    assert rows[0] == ["z"] + list(LIFETIME_FIELDS)
    assert len(rows) == 3
    assert [r[rows[0].index("L")] for r in rows[1:]] == ["4", "8"]
    assert all(r[0] == "1" for r in rows[1:])  # z axis column


def test_load_config(tmp_path):
    cfg_path = write_config(tmp_path, lifetime_config(tmp_path / "o.csv"))
    assert isinstance(validate_config(read_config(cfg_path)), SweepConfig)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    with pytest.raises(ConfigError):
        read_config(str(bad))
    with pytest.raises(ConfigError):
        read_config(str(tmp_path / "absent.json"))


def test_lifetime_task_fm_row(tmp_path):
    out = tmp_path / "fm.csv"
    cfg = validate_config(
        lifetime_config(
            out,
            axes={"L": [8]},
            params={"lambda": 0.05, "jz_star": -0.19, "temperature": 0.1},
        )
    )
    run(cfg)
    header, row = read_rows(out)
    get = lambda name: row[header.index(name)]
    assert get("phase") == "FM"
    assert get("t_K_over_tau") == "" and get("t_comp_over_tau") == ""
    assert float(get("t_mem_over_tau")) > 1.0
    assert float(get("t2_thermal")) > 0.0


# --- the run's baths ----------------------------------------------------------


def count_bath_checks(monkeypatch) -> list:
    """A list that grows by one each time a bath passes ``BathSpec``'s checks."""
    checked, post_init = [], BathSpec.__post_init__
    monkeypatch.setattr(BathSpec, "__post_init__", lambda spec: checked.append(post_init(spec)))
    return checked


def test_bath_axes_sort_after_every_other_lifetime_axis():
    # a run gives the k-th point of every len(baths) points the k-th bath,
    # which holds only while the bath axes vary fastest
    baths = sorted(n for n in LIFETIME.axes if n in sweeps._BATH_NAMES)
    others = sorted(n for n in LIFETIME.axes if n not in sweeps._BATH_NAMES)
    assert baths and others
    assert max(others) < min(baths)
    # a run joins its per-L row blocks, which gives grid order only while L varies slowest
    assert min(LIFETIME.axes) == "L"


def test_run_keeps_signed_zeros_apart(tmp_path):
    # -0.0 == 0.0, yet a lambda of -0.0 writes j_L as -0
    axes = {"L": [4], "lambda": [0.0, -0.0], "temperature": [0.0, -0.0, 0.5]}
    cfg = validate_config(
        lifetime_config(tmp_path / "zeros.csv", axes=axes, params={"epsilon": 0.01})
    )
    run(cfg)
    header, *rows = read_rows(cfg.output_path)
    assert [row[header.index("j_L")] for row in rows] == ["0"] * 3 + ["-0"] * 3
    assert_lifetime_rows_per_point(cfg)


def test_run_checks_each_bath_once(tmp_path, monkeypatch):
    axes = {"L": [2, 4, 8], "lambda": [0.1, 0.2], "z": [1, 1.0]}  # twins are two baths
    cfg = validate_config(lifetime_config(tmp_path / "b.csv", axes=axes, params={"epsilon": 0.1}))
    checked = count_bath_checks(monkeypatch)
    run(cfg)
    assert len(checked) == 4  # each bath passed BathSpec's checks once, not once per L
    assert_lifetime_rows_per_point(cfg)


def test_run_builds_each_of_many_baths_once(tmp_path, monkeypatch):
    # more baths than the 1024 a bounded cache held: L varies slowest, so
    # each bath comes back only after every other one
    lambdas = [i / 1000 for i in range(1124)]
    axes = {"L": [2, 4], "lambda": lambdas}
    cfg = validate_config(lifetime_config(tmp_path / "many.csv", axes=axes, params={"epsilon": 0.1}))
    checked = count_bath_checks(monkeypatch)
    run(cfg)
    assert len(checked) == len(lambdas)
    assert_lifetime_rows_per_point(cfg)


def test_run_computes_each_L_and_bath_value_once(tmp_path, monkeypatch):
    # j(L) and lambda_c depend on L and the bath alone, not on epsilon or jz_star
    axes = {"L": [2, 4, 8], "lambda": [0.1, 0.2], "epsilon": [0.01, 0.1], "jz_star": [-0.2, 0.3]}
    n_L, n_baths, n_pairs = 3, 2, 4
    cfg = validate_config(lifetime_config(tmp_path / "d.csv", axes=axes,
                                          params={"temperature": 0.5}))
    calls = Counter()

    def counted(name):
        fn = getattr(sweeps.lifetimes, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(sweeps.lifetimes, name, wrapper)

    for name in ("j_of_L", "critical_coupling", "check_even_L"):
        counted(name)
    run(cfg)
    assert calls["j_of_L"] == calls["critical_coupling"] == n_L * n_baths
    # once in each point's CodePoint, at most twice more per (L, bath)
    assert calls["check_even_L"] <= n_L * n_baths * n_pairs + 2 * n_L * n_baths
    monkeypatch.undo()
    assert_lifetime_rows_per_point(cfg)


def test_run_builds_one_report_per_L_and_bath(tmp_path, monkeypatch):
    # the bath's cells come from one build_report per (L, bath); t_mem varies
    # with the (epsilon, jz_star) pair alone, t_comp with the row
    axes = {"L": [2, 4, 8], "lambda": [0.1, 0.2], "epsilon": [0.01, 0.1], "jz_star": [-0.2, 0.3]}
    n_L, n_baths, n_pairs = 3, 2, 4
    cfg = validate_config(lifetime_config(tmp_path / "d.csv", axes=axes,
                                          params={"temperature": 0.5}))
    calls = Counter()
    for name in ("build_report", "t_mem_over_tau"):
        def wrapper(*args, fn=getattr(sweeps.lifetimes, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(sweeps.lifetimes, name, wrapper)
    run(cfg)
    assert calls["build_report"] == n_L * n_baths
    assert calls["t_mem_over_tau"] <= n_L * n_pairs
    monkeypatch.undo()
    assert_lifetime_rows_per_point(cfg)
    # j(L) >= 1e3 on both s = 1 baths (z = 0.5 is critical there): one caution per (L, bath)
    axes = {"L": [12, 14, 16], "epsilon": [0.01, 0.1, 0.2], "z": [1, 0.5]}
    runaway = validate_config(lifetime_config(tmp_path / "r.csv", axes=axes,
                                              params={"lambda": 1}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(runaway)
    assert [str(w.message).startswith("j(L) >= 1e3") for w in caught] == [True] * 3 * 2
    assert_lifetime_rows_per_point(runaway)
    assert_lifetime_rows_per_point(cfg)


# each list holds duplicates and, where valid, 0, -0.0 and int/float twins
LIFETIME_VALUES = {
    "L": [2, 4, 2, 6],
    "epsilon": [0.01, 0.1, 0.01],
    "jz_star": [0, -0.0, 0.0, -0.19],
    "lambda": [0, -0.0, 0.0, 0.05, 1, 1.0],
    "s": [1, 1.0, 0.5, 0.5],
    "temperature": [0, -0.0, 0.5, 1, 1.0],
    "z": [0.3, 0.5, 1, 1.0, 2],
}


@st.composite
def lifetime_grids(draw):
    """(axes, params) naming their keys in shuffled order; L is always swept."""
    axes, params = {}, {}
    for name in draw(st.permutations(sorted(LIFETIME_VALUES))):
        values = st.sampled_from(LIFETIME_VALUES[name])
        where = "axes" if name == "L" else draw(st.sampled_from(["axes", "axes", "params", None]))
        if where == "axes":
            axes[name] = draw(st.lists(values, min_size=1, max_size=3))
        elif where == "params":
            params[name] = draw(values)
    return axes, params


def fresh_report(values: dict):
    """``build_report`` on a point and a ``BathSpec`` built for it alone."""
    spec = BathSpec(**{"lam" if n == "lambda" else n: float(values[n])
                       for n in ("lambda", "s", "temperature", "z") if n in values})
    jz_star = values.get("jz_star")
    return build_report(CodePoint(values["L"], float(values.get("epsilon", 0.01)), spec,
                                  None if jz_star is None else float(jz_star)))


@settings(max_examples=60, deadline=None)
@given(lifetime_grids())
# bath axes named out of sorted order, each with values that write different rows
@example(({"z": [2, 0.3], "L": [2, 4], "temperature": [0.5, -0.0], "lambda": [0, 0.05]},
          {"s": 0.5, "jz_star": -0.0}))
def test_lifetime_rows_are_reports_on_fresh_baths(grid):
    axes, params = grid
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the j(L) >= 1e3 caution
        cfg = validate_config({"task": "lifetime", "axes": axes, "params": params,
                               "output_path": os.path.join(tmp, "life.csv")})
        run(cfg)
        reports = (fresh_report({**params, **p}) for p in grid_points(axes))
        assert_rows_match_oracle(Path(cfg.output_path), *lifetime_oracle(cfg, reports))


def test_census_task_matches_direct_call(tmp_path):
    out = tmp_path / "census.csv"
    cfg = validate_config(
        {
            "task": "census",
            "axes": {"L": [4], "weight": [1, 2]},
            "params": {"rule": "adversarial"},
            "output_path": str(out),
        }
    )
    run(cfg)
    rows = read_rows(out)
    assert rows[0] == ["L", "weight", "rule", "n_success", "n_logical", "n_tie"]
    assert rows[1] == ["4", "1", "adversarial", "4", "0", "0"]
    assert rows[2] == ["4", "2", "adversarial", "0", "6", "0"]


def test_matching_task(tmp_path):
    out = tmp_path / "matching.csv"
    cfg = validate_config(
        {
            "task": "matching",
            "axes": {"n": [4, 6]},
            "params": {"z": 1.0},
            "output_path": str(out),
        }
    )
    run(cfg)
    rows = read_rows(out)
    assert rows[0] == ["n", "matching_sum", "per_pair_weight"]
    assert float(rows[1][1]) == pytest.approx(1 + 1 / 16 + 1 / 9)
    assert float(rows[1][2]) == pytest.approx((1 + 1 / 16 + 1 / 9) ** 0.5)


def test_matching_run_shares_one_memo_and_no_more(tmp_path, monkeypatch):
    """A ``matching`` run's n axis shares one pairing-sum memo, so [24, 2, 4, 24]
    writes the bytes of four one-n runs; each ``main`` call starts from a new,
    empty memo, so no table outlives its run."""
    summed, memos = sweeps.wick.matching_sum, []

    def recorded(problem, memo):
        memos.append((memo, bool(memo)))
        return summed(problem, memo)

    monkeypatch.setattr(sweeps.wick, "matching_sum", recorded)

    def sweep(ns, name):
        out = tmp_path / name
        cfg = {"task": "matching", "axes": {"n": ns}, "params": {"z": 0.37},
               "output_path": str(out)}
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        return out.read_bytes().splitlines(keepends=True)

    together = sweep([24, 2, 4, 24], "together.csv")
    apart = [sweep([n], f"apart_{i}.csv") for i, n in enumerate([24, 2, 4, 24])]
    assert together == apart[0][:1] + [lines[1] for lines in apart]
    shared = memos[0][0]
    assert [memo is shared for memo, _ in memos] == [True] * 4 + [False] * 4
    assert [filled for _, filled in memos] == [False, True, True, True] + [False] * 4
    assert len({id(memo) for memo, _ in memos}) == 5


def test_flow_force_removes_stale_traces(tmp_path):
    out = tmp_path / "flows"
    cfg = {
        "task": "flow",
        "axes": {"j_perp": [0.05, 0.1, 0.15], "jz": [0.2]},
        "params": {"l_max": 5.0},
        "output_path": str(out),
    }
    run(validate_config(cfg))
    kept = ["notes.txt", "trace_notes.csv", "trace_.csv", "trace_0001.csv.bak", "trace_1.csv"]
    for name in kept:  # no name the flow writes: trace_ and four or more digits
        (out / name).write_text("kept")
    cfg["axes"]["j_perp"] = [0.05]
    run(validate_config(cfg), force=True)
    assert sorted(p.name for p in out.iterdir()) == sorted(["index.csv", "trace_0000.csv", *kept])


def listing(root: Path) -> dict:
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


def failing_write(monkeypatch, at: int, exc: BaseException) -> list:
    """Make the ``at``-th ``_write_rows`` call raise ``exc``; returns the paths it was called with."""
    calls, write_rows = [], sweeps._write_rows

    def write(path, header, rows):
        calls.append(Path(path))
        if len(calls) == at:
            raise exc
        write_rows(path, header, rows)

    monkeypatch.setattr(sweeps, "_write_rows", write)
    return calls


def test_failed_flow_leaves_no_directory_it_made(tmp_path, monkeypatch):
    # 6 traces, then the index: a write that raises at the first trace, the fourth write or
    # the index changes nothing.  A fresh run under two missing parents makes none of them,
    # and a forced rerun over an earlier run leaves every old file as it was
    flow = {"task": "flow", "axes": {"j_perp": [0.05, 0.1, 0.15], "jz": [-0.2, 0.2]},
            "params": {"l_max": 5.0}}
    fresh = validate_config({**flow, "output_path": str(tmp_path / "a" / "b" / "flows")})
    for at in (1, 4, 7):
        calls = failing_write(monkeypatch, at, OSError(errno.ENOSPC, "disk full"))
        with pytest.raises(OSError, match="disk full"):
            run(fresh)
        # the stage sits in the nearest existing ancestor, so on the output's filesystem
        assert len(calls) == at and calls[-1].parent.parent == tmp_path
        assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    out = tmp_path / "flows"
    run(validate_config({**flow, "axes": {"j_perp": [0.05, 0.1, 0.15, 0.2], "jz": [-0.3, 0.3]},
                         "output_path": str(out)}))
    (out / "notes.txt").write_text("kept")
    before, rerun = listing(tmp_path), validate_config({**flow, "output_path": str(out)})
    for at in (1, 4, 7):
        calls = failing_write(monkeypatch, at, OSError(errno.ENOSPC, "disk full"))
        with pytest.raises(OSError, match="disk full"):
            run(rerun, force=True)
        assert len(calls) == at and calls[-1].parent.parent == out
        assert listing(tmp_path) == before


def test_interrupted_flow_leaves_no_stage(tmp_path, monkeypatch):
    out = tmp_path / "flows"
    failing_write(monkeypatch, 2, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        run(validate_config({"task": "flow", "axes": {"jz": [0.1, 0.2]}, "output_path": str(out)}))
    assert list(tmp_path.iterdir()) == []


def test_flow_task_writes_traces_and_index(tmp_path):
    out = tmp_path / "flows"
    cfg = validate_config(
        {
            "task": "flow",
            "axes": {"j_perp": [0.05, 0.1, 0.15], "jz": [-0.2, 0.0, 0.2]},
            "params": {"l_max": 50.0},
            "output_path": str(out),
        }
    )
    written = run(cfg)
    assert len(written) == 10  # 9 traces + index
    index = read_rows(out / "index.csv")
    assert index[0][0] == "trajectory_id"
    assert len(index) == 10
    trace = read_rows(out / "trace_0000.csv")
    assert trace[0] == ["l", "jx", "jy", "jz", "c1", "c2"]
    assert float(trace[1][0]) == 0.0


_CLOSED_FORM_CONFIGS = {
    # jx = jy on both separatrices (jz = -0.1 cut by l_max, +0.1 running away), a
    # localizing start (-0.3), at the ceiling (1.0), zero pairs, and jx != jy starts
    "grid": {"axes": {"jx": [0.0, 0.1], "jy": [0.0, 0.1], "jz": [-0.3, -0.1, 0.1, 1.0]},
             "params": {"j_min": 0.02, "l_max": 20.0, "abs_tol": 1e-10, "rel_tol": 1e-10}},
    "zero_pair": {"axes": {"jz": [-0.5, 0.0, 0.3, 1.5]}, "params": {}},
}


@pytest.mark.parametrize("name", _CLOSED_FORM_CONFIGS)
def test_flow_closed_form_starts_match_rk45(tmp_path, monkeypatch, name):
    """A jx = jy start's index row and trace come from ``symmetric_flow``, held
    to a tight scipy integration as its oracle; a jx != jy start goes through
    ``integrate_flow``."""
    integrate = sweeps.integrate_flow
    rf_starts = []

    def counted_flow(start, options):
        rf_starts.append(start)
        return integrate(start, options)

    monkeypatch.setattr(sweeps, "integrate_flow", counted_flow)
    out, cfg = tmp_path / "flows", _CLOSED_FORM_CONFIGS[name]
    assert main(["sweep", "--config", write_config(
        tmp_path, {"task": "flow", **cfg, "output_path": str(out)})]) == 0
    opts = sweeps._flow_options(cfg["params"])
    symmetric, labels = 0, set()
    for _, *start, label, l_star, jz_star, fname in read_rows(out / "index.csv")[1:]:
        j0 = CouplingVector(*map(float, start))
        if j0.jx != j0.jy:
            continue
        symmetric += 1
        labels.add(label)
        oracle = scipy_flow((j0.jx, j0.jy, j0.jz), opts).terminal
        assert label == type(oracle).__name__
        if label == "StrongCoupling":
            assert float(l_star) == pytest.approx(oracle.l_star, rel=1e-11)
        if label == "Localized":
            assert float(jz_star) == pytest.approx(oracle.j_star.jz, rel=1e-8)
        trace = [tuple(map(float, row)) for row in read_rows(out / fname)[1:]]
        assert trace[0][:4] == (0.0, j0.jx, j0.jy, j0.jz)
        c2 = trace[0][5]
        for l, jx, jy, jz, c1, c2_l in trace:
            assert jx == jy and c1 == 0.0
            assert c2_l == pytest.approx(c2, rel=0, abs=8 * sys.float_info.epsilon * max(
                jz * jz, jx * jx, abs(c2)))
    assert all(s.jx != s.jy for s in rf_starts)
    assert len(rf_starts) == len(read_rows(out / "index.csv")) - 1 - symmetric
    assert labels >= ({"StrongCoupling", "Localized"} if name == "zero_pair" else
                      {"StrongCoupling", "Localized", "CutoffReached"})


SC_L_GRID = (10, 30, 100, 300, 1000)
SC_EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "superconducting_lambda_c.json"


def superconducting_lambda_c(tmp_path):
    """Run the superconducting example through ``codebath sweep``: {(z, L): lambda_c}."""
    # lambda = 0 keeps every j(L) at 0, so no column saturates and nothing warns
    out = tmp_path / "sc.csv"
    cfg = {**json.loads(SC_EXAMPLE.read_text()), "output_path": str(out)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", write_config(tmp_path, cfg, "sc.json")]) == 0
    header, *rows = read_rows(out)
    z, L = header.index("z"), header.index("L")
    return {(float(row[z]), int(row[L])): float(row[-1]) for row in rows}


def test_preset_superconducting_curve(tmp_path):
    # the superconducting curves come from the example config, the preset is gone
    lam_c = superconducting_lambda_c(tmp_path)
    assert sorted(lam_c) == sorted(itertools.product((1.0, 0.5, 0.3), SC_L_GRID))
    assert len({lam_c[1, Lv] for Lv in SC_L_GRID}) == 1
    assert lam_c[0.5, 100] / lam_c[0.5, 10] == pytest.approx(
        math.sqrt(math.log(10) / math.log(100)), rel=1e-12
    )


def test_preset_superconducting_curve_is_a_lifetime_sweep(tmp_path):
    # the example's curve is the lambda_critical column at the platform's SI
    # params, whatever lambda is: at lambda = 1 j(L) saturates, the column does not move
    lam_c = superconducting_lambda_c(tmp_path)
    for (zv, Lv), value in lam_c.items():
        spec = BathSpec(z=zv, a=1e-3, a0=1e-3, tau_qec=1e-6, hbar=1.054571817e-34,
                        kB=1.380649e-23)
        assert value == critical_coupling(spec, Lv)
    sweep = tmp_path / "sweep.csv"
    cfg = json.loads(SC_EXAMPLE.read_text())
    cfg["params"]["lambda"] = 1
    cfg["output_path"] = str(sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # j(L) saturates at these params
        run(validate_config(cfg))
    header, *rows = read_rows(sweep)
    z, L = header.index("z"), header.index("L")
    swept = {(float(row[z]), int(row[L])): float(row[-1]) for row in rows}
    assert len(lam_c) == 15
    assert swept == lam_c


def test_superconducting_preset_is_gone(tmp_path, capsys):
    # both presets are example configs of the lifetime task: no subcommand, no task
    for name in ("superconducting", "neutral_atom"):
        with pytest.raises(SystemExit) as exc:
            main(["preset", "--name", name, "--out", str(tmp_path / f"{name}.txt")])
        assert exc.value.code == 2
        assert "invalid choice: 'preset'" in capsys.readouterr().err
        cfg = {"task": "preset", "params": {"name": name},
               "output_path": str(tmp_path / f"{name}.txt")}
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
        assert "config error: task: must be one of" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_phase_diagram_task(tmp_path):
    out = tmp_path / "portrait.csv"
    cfg = validate_config(
        {
            "task": "phase_diagram",
            "axes": {"j_perp": [0.0, 0.1], "jz": [-0.3, 0.1]},
            "params": {"l_max": 60.0},
            "output_path": str(out),
        }
    )
    run(cfg)
    rows = read_rows(out)
    assert rows[0] == ["trajectory_id", "l", "j_perp", "j_z", "terminal_label", "separatrix"]
    by_tid = {}
    for r in rows[1:]:
        by_tid.setdefault(r[0], []).append(r)
    # grid order: (0, -0.3), (0, 0.1), (0.1, -0.3), (0.1, 0.1)
    assert all(float(r[2]) == 0.0 for r in by_tid["0"])  # invariant axis
    assert by_tid["2"][0][4] == "Localized"
    assert by_tid["3"][0][4] == "StrongCoupling"


def test_phase_diagram_cli_labels_separatrix(tmp_path):
    out = tmp_path / "portrait.csv"
    cfg = {"task": "phase_diagram", "axes": {"j_perp": [0.1], "jz": [-0.1, 0.1, -0.3]},
           "params": {"l_max": 30.0}, "output_path": str(out)}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    tags = {row[0]: row[5] for row in read_rows(out)[1:]}
    assert tags == {"0": "jz=-jperp", "1": "jz=+jperp", "2": ""}


def test_phase_diagram_tags_mirrored_separatrices(tmp_path):
    """(-0.5, -0.5) flows as (0.5, -0.5) does, the flow depending on j_perp**2
    alone: both are tagged and end CutoffReached at l = 100."""
    out = tmp_path / "portrait.csv"
    run(validate_config({"task": "phase_diagram", "axes": {"j_perp": [-0.5, 0.5],
                         "jz": [-0.5, 0.5]}, "output_path": str(out)}))
    by_tid = {}
    for row in read_rows(out)[1:]:
        by_tid.setdefault(row[0], []).append(row)
    ends = {tid: (rows[-1][1], rows[-1][4], rows[-1][5]) for tid, rows in by_tid.items()}
    assert ends == {"0": ("100", "CutoffReached", "jz=-jperp"),
                    "1": ("1.75", "StrongCoupling", "jz=+jperp"),
                    "2": ("100", "CutoffReached", "jz=-jperp"),
                    "3": ("1.75", "StrongCoupling", "jz=+jperp")}
    for tid, mirror in (("0", "2"), ("1", "3")):
        assert [row[1:] for row in by_tid[tid]] == [
            [l, "-" + j_perp, *rest] for l, j_perp, *rest in (row[1:] for row in by_tid[mirror])]


def _ulps_away(x: float, k: int) -> float:
    """x moved |k| floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@given(magnitude=st.floats(-200, math.log10(3)).map(lambda e: 10.0**e),
       perp_sign=st.sampled_from([1.0, -1.0]), z_sign=st.sampled_from([1.0, -1.0]),
       k=st.integers(-3, 3))
@example(magnitude=0.3, perp_sign=1.0, z_sign=-1.0, k=-1)  # jz = -0.30000000000000004: untagged
@example(magnitude=1e-200, perp_sign=1.0, z_sign=1.0, k=3)  # c underflows to 0
@settings(max_examples=300, deadline=None)
def test_separatrix_tag_is_the_flows_c_equal_zero(magnitude, perp_sign, z_sign, k):
    """Starts 0-3 floats from jz = +-|j_perp|: tagged exactly where symmetric_flow's
    c = (jz - j_perp) (jz + j_perp) is 0, as the flow reads the sign of jz."""
    j_perp, jz = perp_sign * magnitude, _ulps_away(z_sign * magnitude, k)
    tag = sweeps._separatrix_tag(j_perp, jz)
    assert bool(tag) == ((jz - j_perp) * (jz + j_perp) == 0)
    assert tag in ("", "jz=-jperp" if jz < 0 else "jz=+jperp")
    if magnitude < 1e-170:  # c underflows: the flow takes every such start as on a separatrix
        assert tag


def test_phase_diagram_integrates_nothing(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the portrait integrated a flow")

    monkeypatch.setattr(sweeps, "integrate_flow", refuse)
    out = tmp_path / "portrait.csv"
    run(validate_config({"task": "phase_diagram", "axes": {"j_perp": [0.1, 2.0],
                         "jz": [-0.3, 0.0, 0.1]}, "output_path": str(out)}))
    assert len(read_rows(out)) == 1 + 6 * PORTRAIT_SAMPLES


def test_phase_diagram_start_is_checked_as_a_flow_start(tmp_path, capsys):
    out = tmp_path / "portrait.csv"
    cfg = {"task": "phase_diagram", "axes": {"j_perp": [1e300], "jz": [0.1]},
           "output_path": str(out)}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: axes.j_perp[0]: initial couplings must be finite")
    assert not out.exists()


def test_phase_diagram_past_its_plot_window_ends_as_flow_does(tmp_path):
    # a |j| = 3.6 start flows from below the ceiling of 4; a |j| = 5.0 one is a single row
    axes = {"j_perp": [-5.0, 0.1, 3.6], "jz": [-3.6, 0.1, 5.0]}
    portrait, flow = tmp_path / "portrait.csv", tmp_path / "flow"
    for task, out, params in (("phase_diagram", portrait, {}), ("flow", flow, {"j_max": 4})):
        cfg = {"task": task, "axes": axes, "params": params, "output_path": str(out)}
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    rows = read_rows(portrait)[1:]
    labels = {int(row[0]): row[4] for row in rows}  # a start's rows share its terminal
    assert labels == {int(row[0]): row[4] for row in read_rows(flow / "index.csv")[1:]}
    assert Counter(labels.values()) == {"StrongCoupling": 7, "Localized": 1, "CutoffReached": 1}
    rows_per_start = Counter(int(row[0]) for row in rows)
    above = [max(map(abs, start)) >= 4 for start in itertools.product(*axes.values())]
    assert [rows_per_start[tid] == 1 for tid in range(9)] == above


# --- determinism ------------------------------------------------------------


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = lifetime_config(out1, axes={"L": [4, 6, 8], "temperature": [0.0, 0.5]})
    run(validate_config(cfg))
    cfg["output_path"] = str(out2)
    run(validate_config(cfg))
    assert digest(out1) == digest(out2)


def test_workers_do_not_change_bytes(tmp_path):
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    axes = {"L": [4, 6, 8, 10], "z": [1.0, 0.5]}
    run(validate_config(lifetime_config(out1, axes=axes, parallelism=1)))
    run(validate_config(lifetime_config(out2, axes=axes, parallelism=8)))
    assert digest(out1) == digest(out2)


def test_overwrite_refused_without_force(tmp_path):
    out = tmp_path / "once.csv"
    cfg = validate_config(lifetime_config(out))
    run(cfg)
    with pytest.raises(FileExistsError):
        run(cfg)
    run(cfg, force=True)  # allowed


def unaffordable(*args):  # a lifetime run's block leads its arguments
    raise ResourceLimitError("a point was evaluated")


def test_overwrite_refused_before_any_point_is_evaluated(tmp_path, monkeypatch):
    out = tmp_path / "once.csv"
    out.write_text("kept\n")
    monkeypatch.setitem(sweeps.TASKS, "lifetime", dataclasses.replace(LIFETIME, evaluate=unaffordable))
    cfg_path = write_config(tmp_path, lifetime_config(out))
    assert main(["sweep", "--config", cfg_path]) == 4  # before the point's own exit 3
    assert main(["sweep", "--config", cfg_path, "--force"]) == 3
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("task", ["lifetime", "flow"])
@pytest.mark.parametrize("name, message", [
    ("a\0b", "output_path: must not contain a NUL character"),
    ("a\ud800b", "output_path: 'utf-8' codec can't encode character '\\ud800'"),
], ids=["nul", "lone-surrogate"])
def test_unwritable_output_path_refused_before_any_point_is_evaluated(
        tmp_path, monkeypatch, capsys, task, name, message):
    # os.path.exists reads False for such a name, so only the write would refuse it
    monkeypatch.setitem(sweeps.TASKS, task,
                        dataclasses.replace(sweeps.TASKS[task], evaluate=unaffordable))
    cfg = {"task": task, "axes": {"L": [4]} if task == "lifetime" else {"jz": [0.1]},
           "output_path": str(tmp_path / name)}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("task, name, force", [
    ("lifetime", "nodir/x.csv", False),
    ("lifetime", "adir", True),
    ("flow", "afile", True),
    ("flow", "afile/sub", False),
    ("flow", "alink", False),
], ids=["file-in-missing-dir", "file-onto-dir", "traces-onto-file", "traces-under-file",
        "traces-onto-dangling-link"])
def test_unusable_output_path_refused_before_any_point_is_evaluated(
        tmp_path, monkeypatch, capsys, task, name, force):
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("kept\n")
    (tmp_path / "alink").symlink_to("nowhere")
    monkeypatch.setitem(sweeps.TASKS, task,
                        dataclasses.replace(sweeps.TASKS[task], evaluate=unaffordable))
    out = str(tmp_path / name)
    cfg = {"task": task, "axes": {"L": [4]} if task == "lifetime" else {"jz": [0.1]},
           "output_path": out}
    argv = ["sweep", "--config", write_config(tmp_path, cfg), *["--force"] * force]
    assert main(argv) == 4  # before the point's own exit 3
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and out in err and ".tmp" not in err
    assert sorted(os.listdir(tmp_path)) == ["adir", "afile", "alink", "cfg.json"]
    assert os.listdir(tmp_path / "adir") == [] and (tmp_path / "afile").read_text() == "kept\n"


def test_flow_traces_go_into_missing_directories(tmp_path):
    out = tmp_path / "new" / "deep" / "traces"
    cfg = {"task": "flow", "axes": {"jz": [0.1]}, "output_path": str(out)}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    assert sorted(os.listdir(out)) == ["index.csv", "trace_0000.csv"]


def test_output_that_appears_during_evaluation_is_refused(tmp_path, monkeypatch):
    out = tmp_path / "late.csv"

    def racing(*args):
        if not out.exists():
            out.write_text("theirs\n")
        return LIFETIME.evaluate(*args)

    monkeypatch.setitem(sweeps.TASKS, "lifetime", dataclasses.replace(LIFETIME, evaluate=racing))
    with pytest.raises(FileExistsError):
        run(validate_config(lifetime_config(out)))
    assert out.read_text() == "theirs\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["late.csv"]


def test_flow_directory_that_appears_during_evaluation_is_refused(tmp_path, monkeypatch):
    out = tmp_path / "flows"

    def racing(*args):
        if not out.exists():
            out.mkdir()
            (out / "index.csv").write_text("theirs\n")
        return FLOW.evaluate(*args)

    monkeypatch.setitem(sweeps.TASKS, "flow", dataclasses.replace(FLOW, evaluate=racing))
    with pytest.raises(FileExistsError):
        run(validate_config({"task": "flow", "axes": {"jz": [0.1, 0.2]}, "output_path": str(out)}))
    assert listing(tmp_path) == {Path("flows"): None, Path("flows/index.csv"): b"theirs\n"}


# --- CLI --------------------------------------------------------------------


def test_cli_lifetime_roundtrip(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    cfg_path = write_config(tmp_path, lifetime_config(out))
    assert main(["sweep", "--config", cfg_path]) == 0
    assert out.exists()
    assert str(out) in capsys.readouterr().out


PROCESS_CASES = {  # config (None: no file), exit code, what stderr starts with
    "example": (json.loads(SC_EXAMPLE.read_text()), 0, ""),
    "missing-config": (None, 2, "config error: $: cannot read config"),
    "matching-n26": ({"task": "matching", "axes": {"n": [26]}, "output_path": "m.csv"}, 3,
                     "resource limit: "),
    "census-missing-dir": ({"task": "census", "axes": {"L": [4], "weight": [1]},
                            "output_path": "missing/c.csv"}, 4, "io error: cannot write"),
}


@pytest.mark.parametrize("case", PROCESS_CASES)
def test_cli_exit_codes_at_the_process_boundary(tmp_path, case):
    # the status a shell sees is main's return value; a refusal writes nothing
    cfg, code, stderr = PROCESS_CASES[case]
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    src = str(Path(sweeps.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "codebath.cli", "sweep", "--config", "cfg.json"], cwd=tmp_path,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert (proc.returncode, proc.stderr[:len(stderr)]) == (code, stderr), proc.stderr
    written = sorted(os.listdir(tmp_path))
    if code:
        assert proc.stdout == "" and written == ([] if cfg is None else ["cfg.json"])
    else:
        assert proc.stdout == f"{cfg['output_path']}\n"
        assert written == ["cfg.json", cfg["output_path"]]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmPeak from /proc")
def test_sweep_too_large_for_memory_exits_3(tmp_path):
    # 8M grid points under an address-space limit of the CLI's start-up peak + 200 MB, set on
    # the child process alone: a MemoryError is a resource limit, with no traceback or file
    resource = pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": str(Path(sweeps.__file__).resolve().parent.parent)}
    peak = subprocess.run(
        [sys.executable, "-c", "import codebath.cli; print(next(line.split()[1] for line in "
         "open('/proc/self/status') if line.startswith('VmPeak:')))"],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    limit = int(peak.stdout) * 1024 + 200 * 2**20
    values = [i / 1000 for i in range(1, 201)]
    (tmp_path / "cfg.json").write_text(json.dumps({
        "task": "flow", "axes": {"jx": values, "jy": values, "jz": values}, "output_path": "out"}))
    proc = subprocess.run(
        [sys.executable, "-m", "codebath.cli", "sweep", "--config", "cfg.json"], cwd=tmp_path,
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr.startswith("resource limit: ") and "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_cli_refuses_out_flag(tmp_path, capsys):
    # the config's output_path alone names the output
    out, other = tmp_path / "x.csv", tmp_path / "other.csv"
    cfg_path = write_config(tmp_path, lifetime_config(out))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg_path, "--out", str(other)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_lifetime_L_is_an_axis_only(tmp_path, capsys):
    # L is a lifetime run's grid: a config that gives it as a param is refused
    cfg = lifetime_config(tmp_path / "x.csv", axes={"z": [1.0]}, params={"L": 4})
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: params.L: unknown parameter for task 'lifetime'" in err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize(
    "name", ["regime", "zeta", "lambda_bar_sq_base", "critical_coupling_base"]
)
def test_derived_bath_values_are_not_params(tmp_path, capsys, name):
    # a bath derives these when built; they are not fields, so no config sets them
    cfg = lifetime_config(tmp_path / "x.csv", params={"lambda": 0.05, name: 1.0})
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"params.{name}" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = write_config(tmp_path, {"task": "lifetime", "output_path": "x.csv"})
    assert main(["sweep", "--config", cfg_path]) == 2


def test_cli_refuses_workers_flag(tmp_path, capsys):
    out = tmp_path / "x.csv"
    cfg_path = write_config(tmp_path, lifetime_config(out))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg_path, "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_cli_main_repeated_in_one_process(tmp_path, capsys):
    """One parser serves every call; a parse error or --help between calls
    leaves the next call's exit code, output and file bytes as they were."""
    out = tmp_path / "x.csv"
    argv = ["sweep", "--config", write_config(tmp_path, lifetime_config(out)), "--force"]
    assert main(argv) == 0
    first = out.read_bytes(), capsys.readouterr()
    for bad, code in (
        (argv + ["--workers", "2"], 2), (["--help"], 0), (["sweep", "--help"], 0),
        (["teleport"], 2), ([], 2),
    ):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == code
        capsys.readouterr()
        assert main(argv) == 0
        assert (out.read_bytes(), capsys.readouterr()) == first
    assert cli._build_parser.cache_info().misses == 1


def test_cli_unsquarable_flow_start_exit_code(tmp_path, capsys):
    cfg = {"task": "flow", "axes": {"jz": [1e160]}, "output_path": str(tmp_path / "f")}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert "axes.jz[0]" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("cfg, message", [
    (lifetime_config("x.csv", params={"lambda": -1}), "params.lambda: lam must be non-negative"),
    ({"task": "flow", "axes": {"jz": [0.1]}, "params": {"rel_tol": 0}, "output_path": "x"},
     "params.rel_tol: tolerances must be positive"),
    ([], "$: config must be a JSON object"),
    (None, "$: --config is required"),
], ids=["negative-lambda", "zero-rel-tol", "json-list", "no-config"])
def test_cli_config_refusals(tmp_path, capsys, cfg, message):
    argv = ["sweep"] if cfg is None else ["sweep", "--config", write_config(tmp_path, cfg)]
    assert main(argv) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_cli_config_without_task_refused(tmp_path, capsys):
    # the config alone names its task: no command supplies a missing one
    cfg = lifetime_config(tmp_path / "x.csv")
    del cfg["task"]
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert "config error: task: required" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("command", ["flow", "phase-diagram", "matching", "census", "lifetime"])
def test_cli_task_names_are_not_commands(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, lifetime_config(tmp_path / "x.csv"))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_cli_resource_limit_exit_code(tmp_path):
    cfg = {
        "task": "matching",
        "axes": {"n": [26]},
        "output_path": str(tmp_path / "big.csv"),
    }
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 3
    assert not (tmp_path / "big.csv").exists()


@pytest.mark.parametrize("n, z", [([2, 4, 6], -1e300), ([24], -200.0)])
def test_cli_matching_refuses_negative_z(tmp_path, capsys, n, z):
    # the weights |x_i - x_j|**(-2z) overflow for z < 0
    out = tmp_path / "m.csv"
    cfg = {"task": "matching", "axes": {"n": n}, "params": {"z": z}, "output_path": str(out)}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert "params.z: z must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_census_above_ceiling(tmp_path, capsys):
    out = tmp_path / "big.csv"
    cfg = {"task": "census", "axes": {"L": [20000], "weight": [10000]}, "output_path": str(out)}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 3
    assert "L = 20000 above census ceiling 10000" in capsys.readouterr().err
    assert not out.exists()


def test_cli_preset_refuses_huge_L_grid_entry(tmp_path, capsys):
    # a preset config is refused at its task, a lifetime one at the L_grid it cannot take
    out = tmp_path / "p.txt"
    cfg = {"task": "preset", "params": {"name": "neutral_atom", "L_grid": [4, 10**400]},
           "output_path": str(out)}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert "config error: task: must be one of" in capsys.readouterr().err
    cfg = {"task": "lifetime", "axes": {"L": [100]}, "params": {"L_grid": [4, 10**400]},
           "output_path": str(out)}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert "params.L_grid: unknown parameter for task 'lifetime'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_flow_resting_on_j_min(tmp_path):
    out = tmp_path / "rest"
    cfg = {"task": "flow", "axes": {"jx": [0.0625]}, "params": {"j_min": 0.0625},
           "output_path": str(out)}
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    assert read_rows(out / "index.csv")[1][4] == "CutoffReached"


@pytest.mark.filterwarnings("ignore:j\\(L\\) >= 1e3")
@pytest.mark.parametrize("s", [1.0, 0.5])
@pytest.mark.parametrize("jz_star", [None, -0.3])
def test_cli_overflowing_coupling_saturates(tmp_path, s, jz_star):
    params = {"lambda": 1e308, "s": s}
    if jz_star is not None:
        params["jz_star"] = jz_star
    out = tmp_path / "overflow.csv"
    axes = {"L": [4, 64], "z": [1.0, 0.5, 0.25], "temperature": [0.0, 0.5]}
    cfg_path = write_config(tmp_path, lifetime_config(out, axes=axes, params=params))
    assert main(["sweep", "--config", cfg_path]) == 0
    assert "nan" not in out.read_text()


def test_cli_lifetime_window_below_float_range_writes_zero(tmp_path):
    # t_K = j**-2 and t_comp = eps j**-2 underflow at L = 2000: a saturated 0, not a refusal
    out = tmp_path / "underflow.csv"
    cfg = lifetime_config(out, axes={"L": [200, 2000]}, params={"s": 0.5, "lambda": 0.5})
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    header, small, large = read_rows(out)
    windows = [header.index("t_K_over_tau"), header.index("t_comp_over_tau")]
    assert all(float(small[i]) > 0 for i in windows)
    assert [large[i] for i in windows] == ["0", "0"]


@pytest.mark.parametrize(
    "params,expected",
    [
        ({"a": 1e200}, {"j_L": "0", "t_comp_over_tau": "inf"}),
        ({"hbar": 1e-300}, {"j_L": "inf", "t_comp_over_tau": "0.01"}),
        ({"a0": 1e-300, "z": 0.25}, {"j_L": "inf", "t_comp_over_tau": "0.01"}),
        (
            {"temperature": 1e-300, "jz_star": 1e-200, "kB": 1e-10},
            {"t2_thermal": "inf", "t_mem_over_tau": "inf"},
        ),
    ],
)
def test_cli_out_of_range_magnitudes_saturate(tmp_path, params, expected):
    out = tmp_path / "extreme.csv"
    cfg = lifetime_config(out, axes={"L": [4]}, params=params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # j(L) >= 1e3 where a denominator underflows
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    header, row = read_rows(out)
    assert "nan" not in row
    assert {name: row[header.index(name)] for name in expected} == expected


def test_cli_census_large_L(tmp_path):
    out = tmp_path / "census22.csv"
    cfg = {
        "task": "census",
        "axes": {"L": [22], "weight": [2, 11]},
        "output_path": str(out),
    }
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    assert read_rows(out)[1:] == [
        ["22", "2", "report", "231", "0", "0"],
        ["22", "11", "report", "0", "0", str(math.comb(22, 11))],
    ]


def test_cli_overwrite_exit_code(tmp_path):
    out = tmp_path / "c.csv"
    cfg_path = write_config(tmp_path, lifetime_config(out))
    assert main(["sweep", "--config", cfg_path]) == 0
    assert main(["sweep", "--config", cfg_path]) == 4
    assert main(["sweep", "--config", cfg_path, "--force"]) == 0


def test_cli_missing_config(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "absent.json")]) == 2


def test_cli_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "--config", str(bad)]) == 2


@pytest.mark.parametrize("content, message", [
    (b'{"task": "lifetime", "output_path": "x\xff.csv"}', "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100000, "maximum recursion depth exceeded"),
    (b'{"task": "lifetime", "axes": {"L": [1' + b"0" * 5000 + b']}}', "Exceeds the limit"),
], ids=["not-utf8", "nested-100000-deep", "5001-digit-integer"])
def test_cli_undecodable_config_refused_at_root(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["sweep", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: $: invalid JSON: ") and message in err, err

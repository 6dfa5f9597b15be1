"""Config-driven deterministic parameter sweeps with CSV/text emission.

A config (schema in README) names a task of ``TASKS``, its axes and params
and an output path.  Axes are ordered alphabetically by name and the product
is enumerated with earlier axes varying slowest, so output row order is a
pure function of the config.  Evaluation is a serial map over grid points:
each point is a closed form of microseconds or one RK45 trajectory, too
little work for a process pool to pay for itself.  The config key
``parallelism`` and ``run``'s ``workers`` keyword (the CLI has no flag for
it) are accepted for compatibility and change nothing, so outputs are
byte-identical for any value.  Floats are written with 17 significant
digits and each file is written under a unique temporary name and
atomically renamed, so an interrupted run leaves no partial output.  Cells
go through ``csv.writer`` and ``format_cell``, except in the files of
numbers and labels alone (``phase_diagram`` rows and ``flow`` traces),
whose rows go through one %-template per file with the same bytes.
"""
from __future__ import annotations

import contextlib
import csv
import fnmatch
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Callable, Collection
from dataclasses import dataclass, fields
from enum import Enum

from . import lifetimes, surface_code, wick
from .bath import BathSpec
from .errors import ConfigError
from .rg_flow import (
    CouplingVector,
    CutoffReached,
    FlowOptions,
    FlowTrace,
    Localized,
    StrongCoupling,
    check_start,
    constants_of_motion,
    integrate_flow,
)

PORTRAIT_RANGE = 3.5
_INT_AXES = {"L", "weight", "n"}

LIFETIME_FIELDS = (
    "regime", "phase", "L", "j_L", "t_K_over_tau", "t_comp_over_tau",
    "t_mem_over_tau", "gamma_korringa", "t2_thermal", "lambda_critical",
)


@dataclass(frozen=True)
class SweepConfig:
    task: str
    axes: dict[str, tuple]
    params: dict
    output_path: str
    parallelism: int = 1


def _is_number(v) -> bool:
    """A JSON number in float range; Python's decoder also accepts NaN, 1e999 and 10**400."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _checked(path: str, fn, *args):
    """``fn(*args)``, with a ValueError it raises re-raised at ``path``."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _check_values(check, params: dict, axes: dict) -> None:
    """Pass the params, then each axis value over them, through ``check``; if
    the params fail, the path is the first one (in config order) they fail at."""
    try:
        check(params)
    except ValueError:
        given = {}
        for name, value in params.items():
            given[name] = value
            _checked(f"params.{name}", check, given)
    for name, values in axes.items():
        for i, v in enumerate(values):
            _checked(f"axes.{name}[{i}]", check, {**params, name: v})


def validate_config(obj) -> SweepConfig:
    """Check a decoded JSON object against the schema, and each value against
    the rules of the object it becomes (``Task.check``); raise ConfigError, or
    ResourceLimitError for a matching or census size above its ceiling."""
    if not isinstance(obj, dict):
        raise ConfigError("$", "config must be a JSON object")
    known = {"task", "axes", "params", "output_path", "parallelism"}
    for key in obj:
        if key not in known:
            raise ConfigError(key, "unknown key")

    task = obj.get("task")
    if task is None:
        raise ConfigError("task", "required")
    if task not in TASKS:
        raise ConfigError("task", f"must be one of {'|'.join(TASKS)}")
    spec = TASKS[task]

    output_path = obj.get("output_path")
    if output_path is None:
        raise ConfigError("output_path", "required")
    if not isinstance(output_path, str) or not output_path:
        raise ConfigError("output_path", "must be a non-empty string")

    axes_obj = obj.get("axes", {})
    if not isinstance(axes_obj, dict):
        raise ConfigError("axes", "must be an object of name -> list")
    axes: dict[str, tuple] = {}
    for name, values in axes_obj.items():
        if name not in spec.axes:
            raise ConfigError(f"axes.{name}", f"unknown axis for task '{task}'")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"axes.{name}", "must be a non-empty list")
        for i, v in enumerate(values):
            if not _is_number(v):
                raise ConfigError(f"axes.{name}[{i}]", "must be a finite number")
            if name in _INT_AXES and not isinstance(v, int):
                raise ConfigError(f"axes.{name}[{i}]", "must be an integer")
            if task == "phase_diagram" and abs(v) > PORTRAIT_RANGE:
                raise ConfigError(
                    f"axes.{name}[{i}]", f"must lie within |j| <= {PORTRAIT_RANGE}"
                )
        axes[name] = tuple(values)
    if spec.axes and not axes:  # preset takes none: any name is unknown above
        raise ConfigError("axes", f"at least one axis is required for task '{task}'")
    if task == "flow" and "j_perp" in axes and ("jx" in axes or "jy" in axes):
        raise ConfigError("axes.j_perp", "exclusive with axes.jx/axes.jy")

    params_obj = obj.get("params", {})
    if not isinstance(params_obj, dict):
        raise ConfigError("params", "must be an object")
    params: dict = {}
    for name, value in params_obj.items():
        if name not in spec.params:
            raise ConfigError(f"params.{name}", f"unknown parameter for task '{task}'")
        if name in axes:
            raise ConfigError(f"params.{name}", "also swept in axes")
        if name == "rule":
            if value not in ("report", "benign", "adversarial"):
                raise ConfigError("params.rule", "must be one of report|benign|adversarial")
        elif name == "name":
            if value not in lifetimes.PRESET_NAMES:
                raise ConfigError(
                    "params.name", f"must be one of {'|'.join(lifetimes.PRESET_NAMES)}"
                )
        elif name == "L_grid":
            if not isinstance(value, list) or not value:
                raise ConfigError("params.L_grid", "must be a non-empty list")
            for i, v in enumerate(value):
                if not _is_number(v):
                    raise ConfigError(f"params.L_grid[{i}]", "must be a finite number")
                _checked(f"params.L_grid[{i}]", wick.check_even_L, v)
        elif name in ("D_dim", "sample_stride"):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"params.{name}", "must be an integer")
        elif not _is_number(value):
            raise ConfigError(f"params.{name}", "must be a finite number")
        params[name] = value

    parallelism = obj.get("parallelism", 1)
    if not isinstance(parallelism, int) or isinstance(parallelism, bool) or parallelism < 1:
        raise ConfigError("parallelism", "must be an integer >= 1")

    for name in spec.required:
        if name not in params and name not in axes:
            where = "params" if name in spec.params else "axes"
            raise ConfigError(f"{where}.{name}", "required")
    if spec.check is not None:
        _check_values(spec.check, params, axes)
    if task == "census":  # weight <= L is a rule on grid points, not on values
        for i, L in enumerate(axes["L"]):
            _checked(f"axes.L[{i}]", surface_code.check_census, L, 0)
            for j, weight in enumerate(axes["weight"]):
                _checked(f"axes.weight[{j}]", surface_code.check_census, L, weight)
    return SweepConfig(task, axes, params, output_path, parallelism)


def read_config(path: str) -> dict:
    """Open and decode a config file, which must hold one JSON object."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError("$", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("$", "config must be a JSON object")
    return obj


def load_config(path: str) -> SweepConfig:
    return validate_config(read_config(path))


def grid_points(axes: dict[str, tuple]) -> list[dict]:
    """Cartesian product in lexicographic order (alphabetical axes, slowest first)."""
    names = sorted(axes)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[name] for name in names))
    ]


# --- formatting and file emission ------------------------------------------


def format_cell(v) -> str:
    if type(v) is float:  # most cells: one test, before the isinstance chain
        return f"{v:.17g}"
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Enum):
        return str(v.value)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _refuse_overwrite(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")


@contextlib.contextmanager
def _atomic(path: str, newline: str | None = None):
    """A new file, uniquely named beside ``path``, renamed over ``path`` when
    the block ends; if the block raises, the new file is removed."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_rows(path: str, header: list[str], rows: list, *, template: str | None = None) -> None:
    """A CSV of ``header`` and ``rows``, each cell through ``format_cell``, or
    each row a tuple through ``template``, a %-format of one line, for cells
    of numbers and labels that need no quoting (the same bytes in about half
    the time)."""
    with _atomic(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if template is None:
            writer.writerows([format_cell(v) for v in row] for row in rows)
        else:
            fh.writelines(map(template.__mod__, rows))


# --- per-point evaluation ----------------------------------------------------


@functools.cache  # fields() per grid point shows up in lifetime sweep times
def _field_types(cls) -> dict[str, type]:
    return {f.name: type(f.default) for f in fields(cls)}


def _from_fields(cls, values: dict, **defaults):
    """Build the dataclass ``cls`` from the entries of ``values`` that name its
    fields, each coerced to the type of the field's default, over ``defaults``."""
    types = _field_types(cls)
    given = {name: types[name](v) for name, v in values.items() if name in types}
    return cls(**{**defaults, **given})


_flow_options = functools.partial(_from_fields, FlowOptions)
# a portrait's ceiling sits just outside the plotted window
_portrait_options = functools.partial(_from_fields, FlowOptions, j_max=4.0)


def _code_point(values: dict) -> lifetimes.CodePoint:
    """A lifetime point from config names (``lambda`` for ``lam``; L = 2 if absent)."""
    values = {**values}
    if "lambda" in values:
        values["lam"] = values.pop("lambda")
    jz_star = values.get("jz_star")
    return lifetimes.CodePoint(
        L=values.get("L", 2),
        epsilon=float(values.get("epsilon", 0.01)),
        spec=_from_fields(BathSpec, values),
        jz_star=None if jz_star is None else float(jz_star),
    )


def _matching_problem(values: dict) -> wick.MatchingProblem:
    """Sites ``range(n)`` (n = 2 if absent), refused above the probe ceiling."""
    n = values.get("n", 2)
    wick.check_probe_ceiling(n)
    return wick.MatchingProblem(tuple(range(n)), float(values.get("z", 1.0)))


def _terminal_fields(trace: FlowTrace) -> tuple[str, float | None, float | None]:
    terminal = trace.terminal
    if isinstance(terminal, StrongCoupling):
        return "StrongCoupling", terminal.l_star, None
    if isinstance(terminal, Localized):
        return "Localized", None, terminal.j_star.jz
    return "CutoffReached", None, None


def _flow_start(values: dict) -> CouplingVector:
    """A flow's start from config names (``j_perp`` sets jx and jy; 0 if absent)."""
    return CouplingVector(
        float(values.get("j_perp", values.get("jx", 0.0))),
        float(values.get("j_perp", values.get("jy", 0.0))),
        float(values.get("jz", 0.0)),
    )


def _check_flow(values: dict) -> None:
    _flow_options(values)
    check_start(_flow_start(values))


def _eval_flow(params: dict, point: dict):
    """One start's index row (without id and file name) and its trace's
    (l, jx, jy, jz, c1, c2) rows."""
    start = _flow_start(point)
    trace = integrate_flow(start, _flow_options(params))
    rows = [(l, j.jx, j.jy, j.jz, *constants_of_motion(j)) for l, j in trace.samples]
    return [start.jx, start.jy, start.jz, *_terminal_fields(trace)], rows


def _separatrix_tag(j_perp: float, jz: float) -> str:
    if j_perp > 0 and math.isclose(jz, -j_perp, rel_tol=1e-12, abs_tol=1e-15):
        return "jz=-jperp"
    if j_perp > 0 and math.isclose(jz, j_perp, rel_tol=1e-12, abs_tol=1e-15):
        return "jz=+jperp"
    return ""


def _eval_portrait(params: dict, point: dict):
    """(l, j_perp, j_z, terminal_label, separatrix) samples of one symmetric start."""
    j_perp, jz = float(point["j_perp"]), float(point["jz"])
    trace = integrate_flow(CouplingVector(j_perp, j_perp, jz), _portrait_options(params))
    kind, _, _ = _terminal_fields(trace)
    tag = _separatrix_tag(j_perp, jz)
    return [[l, j.jx, j.jz, kind, tag] for l, j in trace.samples]


def _eval_matching(params: dict, point: dict):
    problem = _matching_problem({**params, **point})
    n = len(problem.positions)
    total = wick.matching_sum(problem)
    return [[n, total, total ** (2.0 / n)]]


def _eval_census(params: dict, point: dict):
    rule = surface_code.TieBreak(params.get("rule", "report"))
    rec = surface_code.failure_census(point["L"], point["weight"], rule)
    return [[rec.L, rec.weight, rec.rule, rec.n_success, rec.n_logical, rec.n_tie]]


def _lifetime_axes(names) -> list[str]:
    """Swept lifetime axes written ahead of the record: all but L, which it holds."""
    return [name for name in sorted(names) if name != "L"]


def _eval_lifetime(params: dict, point: dict):
    rep = lifetimes.build_report(_code_point({**params, **point}))
    return [[point[name] for name in _lifetime_axes(point)]
            + [getattr(rep, f) for f in LIFETIME_FIELDS]]


@dataclass(frozen=True)
class Task:
    """One task: the axes and params a config may name (``required`` ones as
    either), ``check(values)`` building the object whose rules the params and
    each axis value must pass, and ``evaluate(params, point)`` returning a
    grid point's rows under ``header``, written through ``template`` if one
    is given (``flow`` writes its own files; ``preset`` has no grid and no
    evaluator).
    """

    axes: Collection[str]
    params: Collection[str]
    evaluate: Callable[[dict, dict], list] | None = None
    header: tuple[str, ...] = ()
    required: Collection[str] = ()
    check: Callable[[dict], object] | None = None
    template: str | None = None


_TRACE_ROW = ",".join(["%.17g"] * 6) + "\n"  # (l, jx, jy, jz, c1, c2)
_FLOW_PARAMS = {f.name for f in fields(FlowOptions)}
TASKS = {
    "flow": Task(
        {"jx", "jy", "jz", "j_perp"}, _FLOW_PARAMS, _eval_flow,
        ("trajectory_id", "jx0", "jy0", "jz0", "terminal", "l_star", "jz_star", "file"),
        check=_check_flow,
    ),
    "phase_diagram": Task(
        {"j_perp", "jz"}, _FLOW_PARAMS, _eval_portrait,
        ("trajectory_id", "l", "j_perp", "j_z", "terminal_label", "separatrix"),
        required={"j_perp", "jz"}, check=_portrait_options,
        template="%d,%.17g,%.17g,%.17g,%s,%s\n",
    ),
    "matching": Task(
        {"n"}, {"z"}, _eval_matching, ("n", "matching_sum", "per_pair_weight"),
        check=_matching_problem,
    ),
    "census": Task(
        {"L", "weight"}, {"rule"}, _eval_census,
        ("L", "weight", "rule", "n_success", "n_logical", "n_tie"), required={"L", "weight"},
    ),
    "lifetime": Task(
        {"L", "z", "lambda", "temperature", "epsilon", "s", "jz_star"},
        {"lambda" if f.name == "lam" else f.name for f in fields(BathSpec)}
        | {"L", "epsilon", "jz_star"},
        _eval_lifetime, LIFETIME_FIELDS, required={"L"}, check=_code_point,
    ),
    "preset": Task(set(), {"name", "L_grid"}, required={"name"}),
}


# The benchmark's tracer patches this binding and unpacks the four positional
# arguments, so the name and the unused ``workers`` stay.
def _map_points(fn, params: dict, points: list[dict], workers: int) -> list:
    return [fn(params, point) for point in points]


def _write_flow(out: str, results: list) -> list[str]:
    """One trace file per start plus the index; returns the files written."""
    os.makedirs(out, exist_ok=True)
    written, index_rows = [], []
    for tid, (start, rows) in enumerate(results):
        fname = f"trace_{tid:04d}.csv"
        written.append(os.path.join(out, fname))
        _write_rows(written[-1], ["l", "jx", "jy", "jz", "c1", "c2"], rows, template=_TRACE_ROW)
        index_rows.append([tid, *start, fname])
    written.append(os.path.join(out, "index.csv"))
    _write_rows(written[-1], TASKS["flow"].header, index_rows)
    # a forced rerun with fewer starts leaves no trace the index omits
    listed = {row[-1] for row in index_rows}
    for name in os.listdir(out):
        if fnmatch.fnmatch(name, "trace_*.csv") and name not in listed:
            os.remove(os.path.join(out, name))
    return written


def run(cfg: SweepConfig, force: bool = False, workers: int | None = None) -> list[str]:
    """Execute a validated config; returns the list of files written.

    ``workers`` is accepted for compatibility and changes nothing.
    """
    out, task = cfg.output_path, TASKS[cfg.task]
    if task.evaluate is None:
        _refuse_overwrite(out, force)
        report = lifetimes.preset_report(
            cfg.params["name"],
            L_grid=tuple(cfg.params["L_grid"]) if "L_grid" in cfg.params else None,
        )
        lines = [f"preset = {report.name}"]
        for key, value in report.check_values.items():
            lines.append(f"{key} = {value!r}")
        if report.report is not None:
            for field in LIFETIME_FIELDS + ("threshold_exists",):
                lines.append(f"report.{field} = {format_cell(getattr(report.report, field))}")
        if report.lambda_critical_curve is not None:
            for z, L, lam_c in report.lambda_critical_curve:
                lines.append(f"lambda_c[z={z:g},L={L}] = {lam_c!r}")
        with _atomic(out) as fh:
            fh.write("\n".join(lines) + "\n")
        return [out]
    results = _map_points(task.evaluate, cfg.params, grid_points(cfg.axes), 1)
    _refuse_overwrite(out, force)
    if cfg.task == "flow":
        return _write_flow(out, results)
    lead = _lifetime_axes(cfg.axes) if cfg.task == "lifetime" else []
    header = lead + list(task.header)
    numbered = header[0] == "trajectory_id"  # a grid point's rows carry its index
    rows = [(tid, *row) if numbered else row for tid, rs in enumerate(results) for row in rs]
    _write_rows(out, header, rows, template=task.template)
    return [out]

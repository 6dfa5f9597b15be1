"""Config-driven deterministic parameter sweeps with CSV/text emission.

A config (schema in README) names a task of ``TASKS``, its axes and params
and an output path.  Axes are ordered alphabetically by name and the product
is enumerated with earlier axes varying slowest, so output row order is a
pure function of the config.  Evaluation is a serial map over grid points, each a
closed form of at most about a millisecond, too little work for a process pool to
pay for itself.  A lifetime run's grid points are its code distances L, each one
block of every (epsilon, jz_star) pair by every bath (built once per run), bath
fastest, with j(L), the Korringa rate and lambda_c once per bath: L sorts first and
the bath axes last.  A value naming a field of ``FlowOptions`` or
``BathSpec``, all floats, enters it through ``float``.  The config key
``parallelism`` is validated and not stored, and ``run``'s ``workers``
keyword (the CLI has no flag for it) is accepted and unused, so outputs are
byte-identical for any value of either.  Each file is written under a unique
temporary name and atomically renamed, so an interrupted run leaves no
partial output.  Rows go through one %-template per file (floats as
``%.17g``, enums by value, an absent Optional float empty); no cell needs
quoting, as none can hold a comma, quote or newline.  A lifetime file's
leading axis cells are config values, each formatted once per run by
``format_cell``, so an integer prints as itself.
"""
from __future__ import annotations

import contextlib
import fnmatch
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
    FlowOptions,
    Localized,
    StrongCoupling,
    Terminal,
    check_start,
    constants_of_motion,
    integrate_flow,
    symmetric_flow,
)

PORTRAIT_RANGE = 3.5
_INT_AXES = {"L", "weight", "n"}
_RULES = tuple(rule.value for rule in surface_code.TieBreak)

LIFETIME_FIELDS = lifetimes.LifetimeReport._fields[:-1]  # all but threshold_exists


@dataclass(frozen=True)
class SweepConfig:
    task: str
    axes: dict[str, tuple]
    params: dict
    output_path: str


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
    if "\0" in output_path:  # os.path.exists is False for it: only the write would fail
        raise ConfigError("output_path", "must not contain a NUL character")
    _checked("output_path", os.fsencode, output_path)  # nor can a lone surrogate be written

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
            if value not in _RULES:
                raise ConfigError("params.rule", f"must be one of {'|'.join(_RULES)}")
        elif name == "name":
            if value not in lifetimes.PRESET_NAMES:
                raise ConfigError(
                    "params.name", f"must be one of {'|'.join(lifetimes.PRESET_NAMES)}"
                )
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
    return SweepConfig(task, axes, params, output_path)


def read_config(path: str) -> dict:
    """Open and decode a config file, which must hold one JSON object in UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError("$", f"cannot read config: {exc}") from exc
    # also bytes that are not UTF-8, an integer of 4300+ digits and nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("$", "config must be a JSON object")
    return obj


def grid_points(axes: dict[str, tuple]) -> list[dict]:
    """Cartesian product in lexicographic order (alphabetical axes, slowest first)."""
    names = sorted(axes)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[name] for name in names))
    ]


# --- formatting and file emission ------------------------------------------


def format_cell(v) -> str:
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


def _refuse_overwrite(path: str, force: bool, tree: bool) -> None:
    """Raise an OSError naming ``path`` where no output can go: an existing one
    (unless ``force``), a file onto a directory or into no directory, a ``tree``
    under a file (its nearest existing ancestor, ``path`` included, decides)."""
    if os.path.exists(path) and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    if not tree and os.path.isdir(path):
        raise IsADirectoryError(f"{path} is a directory, not a file")
    head = path if tree else os.path.dirname(path)
    while tree and head and not os.path.lexists(head):  # a dangling link is no directory
        head = os.path.dirname(head)
    if not os.path.isdir(head or "."):
        raise NotADirectoryError(f"cannot write {path}: {head} is not a directory")


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


def _write_rows(path: str, header: list[str], rows: list, *, template: str) -> None:
    """A CSV of ``header`` and ``rows``, each row a tuple through ``template``,
    a %-format of one line (no cell needs quoting: see the module docstring)."""
    with _atomic(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(template.__mod__, rows))


# --- per-point evaluation ----------------------------------------------------


_FLOW_PARAMS = {f.name for f in fields(FlowOptions)}


def _flow_options(values: dict) -> FlowOptions:
    """Flow options from the entries of ``values`` that name a field."""
    return FlowOptions(**{n: float(v) for n, v in values.items() if n in _FLOW_PARAMS})


def _portrait_options(values: dict) -> FlowOptions:
    """A portrait's flow options: its ceiling sits just outside the plotted window."""
    return _flow_options({"j_max": 4.0, **values})


_BATH_NAMES = {"lambda" if f.name == "lam" else f.name: f.name for f in fields(BathSpec)}
_BATH_AXIS = "~bath"  # a lifetime run's block of (epsilon, jz_star) pairs and baths; sorts last


def _product(build, params: dict, axes: dict) -> list:
    """``build`` of the params updated by each combination of ``axes``, the last fastest."""
    return [build({**params, **dict(zip(axes, vs))}) for vs in itertools.product(*axes.values())]


def _bath(values: dict) -> BathSpec:
    """A bath from config names (``lambda`` for ``lam``)."""
    return BathSpec(**{_BATH_NAMES[n]: float(v) for n, v in values.items() if n in _BATH_NAMES})


def _code_values(values: dict) -> tuple[float, float | None]:
    """A lifetime point's epsilon (0.01 if absent) and jz_star (None if absent)."""
    jz_star = values.get("jz_star")
    return float(values.get("epsilon", 0.01)), None if jz_star is None else float(jz_star)


def _code_point(values: dict) -> lifetimes.CodePoint:
    """A lifetime point from config names (L = 2 if absent) on their bath."""
    epsilon, jz_star = _code_values(values)
    return lifetimes.CodePoint(values.get("L", 2), epsilon, _bath(values), jz_star)


def _matching_problem(values: dict) -> wick.MatchingProblem:
    """Sites ``range(n)`` (n = 2 if absent), refused above the pairing-sum ceiling."""
    n = values.get("n", 2)
    wick.check_matching_ceiling(n)
    return wick.MatchingProblem(tuple(range(n)), float(values.get("z", 1.0)))


def _terminal_fields(terminal: Terminal) -> tuple[str, str, str]:
    """The terminal's label and its l_star and jz_star cells (empty if it has none)."""
    if isinstance(terminal, StrongCoupling):
        return "StrongCoupling", "%.17g" % terminal.l_star, ""
    if isinstance(terminal, Localized):
        return "Localized", "", "%.17g" % terminal.j_star.jz
    return "CutoffReached", "", ""


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
    """One start's index row (without id and file name) and its trace's (l, jx,
    jy, jz, c1, c2) rows: ``symmetric_flow``'s if jx and jy are one float."""
    start, opts = _flow_start(point), _flow_options(params)
    if start.jx == start.jy and math.copysign(1, start.jx) == math.copysign(1, start.jy):
        samples, terminal = symmetric_flow(start.jx, start.jz, opts)
        rows = [(l, p, p, z, 0.0, z * z - p * p) for l, p, z in samples]
        return (start.jx, start.jy, start.jz, *_terminal_fields(terminal)), rows
    trace = integrate_flow(start, opts)
    rows = [(l, j.jx, j.jy, j.jz, *constants_of_motion(j)) for l, j in trace.samples]
    return (start.jx, start.jy, start.jz, *_terminal_fields(trace.terminal)), rows


def _separatrix_tag(j_perp: float, jz: float) -> str:
    j_perp = abs(j_perp)  # the flow depends on j_perp**2 alone
    if j_perp > 0 and math.isclose(jz, -j_perp, rel_tol=1e-12, abs_tol=1e-15):
        return "jz=-jperp"
    if j_perp > 0 and math.isclose(jz, j_perp, rel_tol=1e-12, abs_tol=1e-15):
        return "jz=+jperp"
    return ""


def _eval_portrait(params: dict, point: dict):
    """(l, j_perp, j_z, terminal_label, separatrix) samples of one symmetric start."""
    j_perp, jz = float(point["j_perp"]), float(point["jz"])
    samples, terminal = symmetric_flow(j_perp, jz, _portrait_options(params))
    cells = (_terminal_fields(terminal)[0], _separatrix_tag(j_perp, jz))
    return [(*sample, *cells) for sample in samples]


def _eval_matching(params: dict, point: dict):
    problem = _matching_problem({**params, **point})
    n = len(problem.positions)
    total = wick.matching_sum(problem)
    return [(n, total, total ** (2.0 / n))]


def _eval_census(params: dict, point: dict):
    rule = surface_code.TieBreak(params.get("rule", "report"))
    rec = surface_code.failure_census(point["L"], point["weight"], rule)
    return [(rec.L, rec.weight, rec.rule.value, rec.n_success, rec.n_logical, rec.n_tie)]


def _eval_lifetime(params: dict, point: dict):
    """One code distance's lead axis cells and record cells (an absent Optional float empty) per
    (epsilon, jz_star) pair, per bath: j(L), the Korringa rate and lambda_c once per bath."""
    L, (pairs, baths, leads) = {**params, **point}["L"], point[_BATH_AXIS]
    shared = [lifetimes.shared_values(spec, L) for spec in baths]
    reports = (lifetimes.build_report(lifetimes.CodePoint(L, epsilon, spec, jz_star), values)
               for epsilon, jz_star in pairs for spec, values in zip(baths, shared))
    return [(lead, rep.regime.value, rep.phase.value, rep.L, rep.j_L,
             *["" if v is None else "%.17g" % v for v in rep[4:9]], rep.lambda_critical)
            for lead, rep in zip(leads, reports, strict=True)]


@dataclass(frozen=True)
class Task:
    """One task: the axes and params a config may name (``required`` ones as
    either), ``check(values)`` building the object whose rules the params and
    each axis value must pass, and ``evaluate(params, point)`` returning a
    grid point's rows under ``header``, each a tuple for ``template`` (``flow``'s
    header and template are its index's, as it writes its own traces; ``preset``
    has no grid and no evaluator).
    """

    axes: Collection[str]
    params: Collection[str]
    evaluate: Callable[[dict, dict], list] | None = None
    header: tuple[str, ...] = ()
    required: Collection[str] = ()
    check: Callable[[dict], object] | None = None
    template: str | None = None


_TRACE_ROW = ",".join(["%.17g"] * 6) + "\n"  # (l, jx, jy, jz, c1, c2)
TASKS = {
    "flow": Task(
        {"jx", "jy", "jz", "j_perp"}, _FLOW_PARAMS, _eval_flow,
        ("trajectory_id", "jx0", "jy0", "jz0", "terminal", "l_star", "jz_star", "file"),
        check=_check_flow, template="%d,%.17g,%.17g,%.17g,%s,%s,%s,%s\n",
    ),
    "phase_diagram": Task(
        {"j_perp", "jz"}, {"j_max", "j_min", "l_max"}, _eval_portrait,
        ("trajectory_id", "l", "j_perp", "j_z", "terminal_label", "separatrix"),
        required={"j_perp", "jz"}, check=_portrait_options,
        template="%d,%.17g,%.17g,%.17g,%s,%s\n",
    ),
    "matching": Task(
        {"n"}, {"z"}, _eval_matching, ("n", "matching_sum", "per_pair_weight"),
        check=_matching_problem, template="%d,%.17g,%.17g\n",
    ),
    "census": Task(
        {"L", "weight"}, {"rule"}, _eval_census,
        ("L", "weight", "rule", "n_success", "n_logical", "n_tie"), required={"L", "weight"},
        template="%d,%d,%s,%d,%d,%d\n",
    ),
    "lifetime": Task(
        {"L", "z", "lambda", "temperature", "epsilon", "s", "jz_star"},
        {*_BATH_NAMES, "L", "epsilon", "jz_star"},
        _eval_lifetime, LIFETIME_FIELDS, required={"L"}, check=_code_point,
        template="%s%s,%s,%d,%.17g,%s,%s,%s,%s,%s,%.17g\n",  # after the axis cells
    ),
    "preset": Task(set(), {"name"}, required={"name"}),
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
        index_rows.append((tid, *start, fname))
    written.append(os.path.join(out, "index.csv"))
    _write_rows(written[-1], TASKS["flow"].header, index_rows, template=TASKS["flow"].template)
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
    out, task, tree = cfg.output_path, TASKS[cfg.task], cfg.task == "flow"
    _refuse_overwrite(out, force, tree)  # before any point is evaluated
    if task.evaluate is None:
        rep = lifetimes.preset_report(cfg.params["name"])
        lines = [f"preset = {rep.name}", *(f"{k} = {v!r}" for k, v in rep.check_values.items()),
                 *(f"report.{k} = {format_cell(v)}" for k, v in rep.report._asdict().items())]
        with _atomic(out) as fh:
            fh.write("\n".join(lines) + "\n")
        return [out]
    axes, header = dict(cfg.axes), list(task.header)
    if cfg.task == "lifetime":  # L alone is the grid: one block holds every other axis
        rest = sorted(n for n in cfg.axes if n != "L")  # swept axes but L lead each row
        header[:0] = rest
        codes = {n: axes.pop(n) for n in rest if n not in _BATH_NAMES}
        baths = {n: axes.pop(n) for n in rest if n in _BATH_NAMES}  # vary fastest
        # as the bath axes sort after epsilon and jz_star, these lead cells run pairs by baths
        cells = itertools.product(*([format_cell(v) + "," for v in cfg.axes[n]] for n in rest))
        axes[_BATH_AXIS] = [(_product(_code_values, cfg.params, codes),
                             _product(_bath, cfg.params, baths), list(map("".join, cells)))]
    results = _map_points(task.evaluate, cfg.params, grid_points(axes), 1)
    _refuse_overwrite(out, force, tree)  # a file that appeared meanwhile is refused too
    if tree:
        return _write_flow(out, results)
    if header[0] == "trajectory_id":  # a grid point's rows carry its index
        rows = [(tid, *row) for tid, rs in enumerate(results) for row in rs]
    else:
        rows = [row for rs in results for row in rs]
    _write_rows(out, header, rows, template=task.template)
    return [out]

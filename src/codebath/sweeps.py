"""Config-driven deterministic parameter sweeps with CSV emission.

A config (schema in README) names a task of ``TASKS``, its axes and params
and an output path.  Axes are ordered alphabetically by name and the product
is enumerated with earlier axes varying slowest, so output row order is a
pure function of the config.  Evaluation is a serial map over grid points, as no pool path
exists, though a point may take 0.26 s (a pairing sum at n = 24, on a 2-core Xeon VM).  A
lifetime run's grid points are its code distances L, each evaluated with the run's one
block of every (epsilon, jz_star) pair by every bath, bath fastest: L sorts first and the
bath axes last.  A lifetime cell is computed and formatted where it varies: one
``build_report`` per (L, bath), the pair and T2 cells once per run, t_comp per row.  A value
naming a field of ``FlowOptions`` or ``BathSpec``, all floats, enters it through ``float``.
The config key ``parallelism`` (kept for the benchmark's pool workload until ROADMAP item
1b) and ``flow``'s ``abs_tol`` and ``rel_tol`` are validated and unread, so outputs are
byte-identical for any of their values.  Each file is written under a unique temporary name
and renamed into place, a flow's only once all are written, so a failed run changes no
file.  Each evaluator returns its rows as finished lines (floats as ``%.17g``, integers in
full, enums by value, an absent Optional float empty), written as they are; a lifetime row
is led by its axis cells, config values formatted once per run by ``format_cell``.  No cell
needs quoting: none holds a comma, quote or newline.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import sys
from collections.abc import Callable, Collection
from dataclasses import dataclass, fields

from . import lifetimes, surface_code, wick
from .bath import BathSpec
from .errors import ConfigError
from .rg_flow import (
    CouplingVector,
    FlowOptions,
    Localized,
    StrongCoupling,
    check_start,
    constants_of_motion,
    integrate_flow,
    symmetric_flow,
)

_RULES = tuple(rule.value for rule in surface_code.TieBreak)

LIFETIME_FIELDS = lifetimes.LifetimeReport._fields


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
        check(params)  # whole first: a prefix may fail where all pass (j_min 2 before j_max 5)
    except ValueError:
        given = {}
        for name, value in params.items():
            given[name] = value
            _checked(f"params.{name}", check, given)
    for name, values in axes.items():
        for i, v in enumerate(values):
            _checked(f"axes.{name}[{i}]", check, {**params, name: v})


def validate_config(obj) -> SweepConfig:
    """Check a decoded JSON object against the schema (an axis value need only be a
    finite number), and each value against the rules of the object it becomes
    (``Task.check``); raise ConfigError, or ResourceLimitError for a size above its ceiling."""
    if not isinstance(obj, dict):
        raise ConfigError("$", "config must be a JSON object")
    known = {"task", "axes", "params", "output_path", "parallelism"}
    for key in obj:
        if key not in known:
            raise ConfigError(key, "unknown key")

    task = obj.get("task")
    if task is None:
        raise ConfigError("task", "required")
    if not isinstance(task, str) or task not in TASKS:  # a JSON array or object is unhashable
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
        axes[name] = tuple(values)
    if not axes:
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
        elif not _is_number(value):
            raise ConfigError(f"params.{name}", "must be a finite number")
        params[name] = value

    parallelism = obj.get("parallelism", 1)
    if not isinstance(parallelism, int) or isinstance(parallelism, bool) or parallelism < 1:
        raise ConfigError("parallelism", "must be an integer >= 1")

    for name in spec.required:
        if name not in axes:
            raise ConfigError(f"axes.{name}", "required")
    if spec.check is not None:
        _check_values(spec.check, params, axes)
    if task == "census":  # weight <= L is a rule on grid points, not on values
        for i, L in enumerate(axes["L"]):
            _checked(f"axes.L[{i}]", surface_code.check_census, L, 0)
            for j, weight in enumerate(axes["weight"]):
                _checked(f"axes.weight[{j}]", surface_code.check_census, L, weight)
    return SweepConfig(task, axes, params, output_path)


def read_config(path: str):
    """Open and decode a UTF-8 JSON config file; ``validate_config`` checks its shape."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError("$", f"cannot read config: {exc}") from exc
    # also bytes that are not UTF-8, an integer of 4300+ digits and nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from None
    return obj


def grid_points(axes: dict[str, tuple]) -> list[dict]:
    """Cartesian product in lexicographic order (alphabetical axes, slowest first)."""
    names = sorted(axes)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[name] for name in names))
    ]


# --- formatting and file emission ------------------------------------------


def format_cell(v: float | None) -> str:
    """A cell: empty for None, an integer in full, a float as ``%.17g``."""
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return f"{v:.17g}"


def _refuse_overwrite(path: str, force: bool, tree: bool) -> str:
    """Raise an OSError naming ``path`` where no output can go: an existing one (unless
    ``force``), a file onto a directory or into no directory, a ``tree`` under a file; else
    return the directory that decides, a file's parent or a tree's nearest existing ancestor."""
    if os.path.exists(path) and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    if not tree and os.path.isdir(path):
        raise IsADirectoryError(f"{path} is a directory, not a file")
    head = path if tree else os.path.dirname(path)
    while tree and head and not os.path.lexists(head):  # a dangling link is no directory
        head = os.path.dirname(head)
    if not os.path.isdir(head or "."):
        raise NotADirectoryError(f"cannot write {path}: {head} is not a directory")
    return head or "."


def _write_rows(path: str, header: list[str], rows: list[str]) -> None:
    """A CSV of ``header`` and ``rows``, each row one finished line (no cell
    needs quoting: see the module docstring).  It is written under a unique
    name beside ``path`` and renamed over it; if the write raises, the new
    file is removed."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# --- per-point evaluation ----------------------------------------------------


_FLOW_PARAMS = {f.name for f in fields(FlowOptions)}
_RTOL_MIN = 100 * sys.float_info.epsilon  # the floor a flow config keeps on rel_tol
_PORTRAIT = {"j_max": 4.0}  # merged under a portrait's values; a flow's j_max defaults to 1


def _flow_options(values: dict) -> FlowOptions:
    """Flow options from the entries of ``values`` that name a field."""
    return FlowOptions(**{n: float(v) for n, v in values.items() if n in _FLOW_PARAMS})


_BATH_NAMES = {"lambda" if f.name == "lam" else f.name: f.name for f in fields(BathSpec)}

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
    if not isinstance(n, int):
        raise ValueError("n must be an integer")
    wick.check_matching_ceiling(n)
    return wick.MatchingProblem(tuple(range(n)), float(values.get("z", 1.0)))


def _flow_start(values: dict) -> CouplingVector:
    """A flow's start from config names (``j_perp`` sets jx and jy; 0 if absent)."""
    return CouplingVector(
        float(values.get("j_perp", values.get("jx", 0.0))),
        float(values.get("j_perp", values.get("jy", 0.0))),
        float(values.get("jz", 0.0)),
    )


def _check_flow(values: dict) -> None:
    """The flow options and start that ``values`` make, and the tolerances no closed form reads."""
    _flow_options(values)
    check_start(_flow_start(values))
    if values.get("abs_tol", 1) <= 0 or values.get("rel_tol", 1) <= 0:
        raise ValueError("tolerances must be positive")
    if values.get("rel_tol", 1) < _RTOL_MIN:
        raise ValueError(f"rel_tol must be >= {_RTOL_MIN!r} (100 float epsilons)")


def _eval_flow(values: dict):
    """A start's index cells (jx0 to jz_star; l_star if it ran away, jz_star if it localized)
    and its trace's (l, jx, jy, jz, c1, c2) lines: ``symmetric_flow``'s if jx, jy are one float."""
    start, opts, rows = _flow_start(values), _flow_options(values), []
    if start.jx == start.jy and math.copysign(1, start.jx) == math.copysign(1, start.jy):
        samples, terminal = symmetric_flow(start.jx, start.jz, opts)
        for l, p, z in samples:
            p_cell = f"{p:.17g}"  # jx and jy, formatted once
            rows.append(f"{l:.17g},{p_cell},{p_cell},{z:.17g},0,{z * z - p * p:.17g}\n")
    else:
        trace = integrate_flow(start, opts)
        terminal = trace.terminal
        for l, j in trace.samples:
            c1, c2 = constants_of_motion(j)
            rows.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (l, j.jx, j.jy, j.jz, c1, c2))
    l_star = f"{terminal.l_star:.17g}" if isinstance(terminal, StrongCoupling) else ""
    jz_star = f"{terminal.j_star.jz:.17g}" if isinstance(terminal, Localized) else ""
    return (f"{start.jx:.17g},{start.jy:.17g},{start.jz:.17g},{type(terminal).__name__},"
            f"{l_star},{jz_star}", rows)


def _separatrix_tag(j_perp: float, jz: float) -> str:
    """The separatrix jz = -|j_perp| or +|j_perp| (by jz's sign, as the flow reads it)
    exactly where ``symmetric_flow`` finds c = 0 from the same expression; else empty."""
    if not j_perp or (jz - j_perp) * (jz + j_perp):
        return ""
    return "jz=-jperp" if jz < 0 else "jz=+jperp"


def _eval_portrait(values: dict):
    """(l, j_perp, j_z, terminal_label, separatrix) lines of one symmetric start."""
    start = _flow_start(values)
    samples, terminal = symmetric_flow(start.jx, start.jz, _flow_options({**_PORTRAIT, **values}))
    row = f"%.17g,%.17g,%.17g,{type(terminal).__name__},{_separatrix_tag(start.jx, start.jz)}\n"
    return [row % sample for sample in samples]


def _eval_matching(values: dict):
    problem = _matching_problem(values)
    n = len(problem.positions)
    total = wick.matching_sum(problem)
    return [f"{n},{total:.17g},{total ** (2.0 / n):.17g}\n"]


def _eval_census(values: dict):
    rule = surface_code.TieBreak(values.get("rule", "report"))
    rec = surface_code.failure_census(values["L"], values["weight"], rule)
    return [f"{rec.L},{rec.weight},{rec.rule.value},{rec.n_success},{rec.n_logical},{rec.n_tie}\n"]


def _lifetime_block(params: dict, axes: dict) -> tuple[list, list, list]:
    """What every L of a lifetime run shares: each (epsilon, jz_star) pair with its t_mem cell
    (empty in the runaway channel) and each bath's T2 cell, the baths, and the lead cells."""
    rest = {n: axes[n] for n in sorted(axes) if n != "L"}  # bath axes last: pairs by baths
    specs = [_bath({**params, **p})
             for p in grid_points({n: v for n, v in rest.items() if n in _BATH_NAMES})]
    pairs = []
    for p in grid_points({n: v for n, v in rest.items() if n not in _BATH_NAMES}):
        epsilon, jz = _code_values({**params, **p})
        t_mem = "" if jz is None else format_cell(lifetimes.t_mem_over_tau(epsilon, jz))
        pairs.append((epsilon, jz, t_mem,
                      [format_cell(lifetimes.t2_thermal(spec, jz)) for spec in specs]))
    cells = itertools.product(*([format_cell(v) + "," for v in vs] for vs in rest.values()))
    return pairs, specs, list(map("".join, cells))


def _eval_lifetime(block: tuple, values: dict):
    """One code distance's rows, each one line: its lead cells, the cells of one
    ``build_report`` per bath at the first pair (the regime, the phase all pairs share, j(L),
    t_K, the Korringa rate and lambda_c), the pair's cells and, per row, t_comp = eps * t_K."""
    L, (pairs, baths, leads) = values["L"], block
    reports = [lifetimes.build_report(lifetimes.CodePoint(L, pairs[0][0], spec, pairs[0][1]))
               for spec in baths]
    cells = [(f"{rep.regime.value},{rep.phase.value},{L},{rep.j_L:.17g},"
              f"{format_cell(rep.t_K_over_tau)},", f",{format_cell(rep.gamma_korringa)},",
              f",{rep.lambda_critical:.17g}\n") for rep in reports]
    rows, lead = [], iter(leads)
    for epsilon, jz, t_mem, t2s in pairs:
        t_comps = itertools.repeat("") if jz is not None else [
            format_cell(lifetimes.t_comp_over_tau(epsilon, rep.t_K_over_tau, spec.s, rep.j_L))
            for spec, rep in zip(baths, reports)]
        rows += [f"{next(lead)}{head}{t_comp},{t_mem}{gamma}{t2}{lam_c}"
                 for (head, gamma, lam_c), t_comp, t2 in zip(cells, t_comps, t2s)]
    return rows


@dataclass(frozen=True)
class Task:
    """One task: the axes and params a config may name (``required`` ones as
    axes), ``check(values)`` building the object whose rules the params and
    each axis value must pass, and ``evaluate(values)`` returning the rows of a
    grid point merged over the params (no name is both) under ``header``, each a
    finished line (``flow`` returns its index cells and its trace's lines, as it writes
    its own traces; ``lifetime`` first takes its run's ``_lifetime_block``).
    """

    axes: Collection[str]
    params: Collection[str]
    evaluate: Callable[[dict], list]
    header: tuple[str, ...]
    required: Collection[str] = ()
    check: Callable[[dict], object] | None = None


TASKS = {
    "flow": Task(
        {"jx", "jy", "jz", "j_perp"}, {*_FLOW_PARAMS, "abs_tol", "rel_tol"}, _eval_flow,
        ("trajectory_id", "jx0", "jy0", "jz0", "terminal", "l_star", "jz_star", "file"),
        check=_check_flow,
    ),
    "phase_diagram": Task(
        {"j_perp", "jz"}, _FLOW_PARAMS, _eval_portrait,
        ("trajectory_id", "l", "j_perp", "j_z", "terminal_label", "separatrix"),
        required={"j_perp", "jz"}, check=lambda values: _check_flow({**_PORTRAIT, **values}),
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
        {*_BATH_NAMES, "epsilon", "jz_star"},
        _eval_lifetime, LIFETIME_FIELDS, required={"L"}, check=_code_point,
    ),
}


# The benchmark's tracer patches this binding and unpacks the four positional
# arguments, so the name and the unused ``workers`` stay.
def _map_points(fn, params: dict, points: list[dict], workers: int) -> list:
    return [fn({**params, **point}) for point in points]


def _write_flow(out: str, root: str, results: list) -> list[str]:
    """One trace file per start plus the index; returns the files written.  All are
    written into a stage directory in ``root`` (``out``'s nearest existing ancestor, so
    its filesystem) and moved into ``out`` after the last, so a failed write changes nothing."""
    names = [f"trace_{tid:04d}.csv" for tid in range(len(results))] + ["index.csv"]
    stage = os.path.join(root, f".flow.{os.urandom(8).hex()}.tmp")
    os.mkdir(stage)
    try:
        for name, (_, rows) in zip(names, results):
            _write_rows(os.path.join(stage, name), ["l", "jx", "jy", "jz", "c1", "c2"], rows)
        index = [f"{tid},{start},{names[tid]}\n" for tid, (start, _) in enumerate(results)]
        _write_rows(os.path.join(stage, "index.csv"), TASKS["flow"].header, index)
        os.makedirs(out, exist_ok=True)
        for name in os.listdir(out):  # a rerun with fewer starts leaves no trace it omits
            if re.fullmatch(r"trace_[0-9]{4,}\.csv", name) and name not in names:
                os.remove(os.path.join(out, name))
        for name in names:
            os.replace(os.path.join(stage, name), os.path.join(out, name))
    finally:
        for name in os.listdir(stage):
            os.remove(os.path.join(stage, name))
        os.rmdir(stage)
    return [os.path.join(out, name) for name in names]


def run(cfg: SweepConfig, force: bool = False) -> list[str]:
    """Execute a validated config; returns the list of files written."""
    out, task, tree = cfg.output_path, TASKS[cfg.task], cfg.task == "flow"
    _refuse_overwrite(out, force, tree)  # before any point is evaluated
    axes, header, evaluate = cfg.axes, list(task.header), task.evaluate
    if cfg.task == "lifetime":  # L alone is the grid; the swept axes but L lead each row
        header[:0] = sorted(n for n in axes if n != "L")
        evaluate = functools.partial(evaluate, _lifetime_block(cfg.params, axes))
        axes = {n: v for n, v in axes.items() if n == "L"}
    results = _map_points(evaluate, cfg.params, grid_points(axes), 1)
    root = _refuse_overwrite(out, force, tree)  # a file that appeared meanwhile is refused too
    if tree:
        return _write_flow(out, root, results)
    if header[0] == "trajectory_id":  # a grid point's rows carry its index
        rows = [f"{tid},{row}" for tid, rs in enumerate(results) for row in rs]
    else:
        rows = [row for rs in results for row in rs]
    _write_rows(out, header, rows)
    return [out]

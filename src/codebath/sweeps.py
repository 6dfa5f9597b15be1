"""Config-driven deterministic parameter sweeps with CSV/text emission.

A sweep is described by a single JSON config file::

    {
      "task": "lifetime",                  # flow | phase_diagram | matching |
                                           # census | lifetime | preset
      "axes": {"L": [4, 8], "z": [1.0]},   # named grids, Cartesian product
      "params": {"lambda": 0.05},          # fixed scalars
      "output_path": "out.csv",
      "parallelism": 1,                    # worker count
      "seed": 0                            # reserved; every task is deterministic
    }

Axes are ordered alphabetically by name and the product is enumerated with
earlier axes varying slowest, so output row order is a pure function of the
config.  Evaluation is a pure map over grid points; with ``parallelism`` > 1
the map runs on a process pool, and outputs are byte-identical regardless of
worker count.  Floats are written with 17 significant digits and files are
written to a temporary name and atomically renamed, so an interrupted run
leaves no partial output.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
    constants_of_motion,
    integrate_flow,
)

TASKS = ("flow", "phase_diagram", "matching", "census", "lifetime", "preset")

PORTRAIT_RANGE = 3.5
_PORTRAIT_DEFAULT_J_MAX = 4.0  # just outside the plotted window

_AXIS_NAMES = {
    "flow": {"jx", "jy", "jz", "j_perp"},
    "phase_diagram": {"j_perp", "jz"},
    "matching": {"n"},
    "census": {"L", "weight"},
    "lifetime": {"L", "z", "lambda", "temperature", "epsilon", "s", "jz_star"},
    "preset": set(),
}
_FLOW_PARAMS = {"j_max", "j_min", "l_max", "abs_tol", "rel_tol", "sample_stride"}
_PARAM_NAMES = {
    "flow": _FLOW_PARAMS,
    "phase_diagram": _FLOW_PARAMS,
    "matching": {"z", "allow_large"},
    "census": {"rule"},
    "lifetime": {
        "L", "z", "s", "lambda", "v", "a", "a0", "D_dim", "alpha",
        "temperature", "tau_qec", "hbar", "kB", "epsilon", "jz_star",
    },
    "preset": {"name", "L_grid"},
}
_INT_AXES = {"L", "weight", "n"}
_EVEN_AXES = {"n"}  # lifetime L is checked per task below

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
    seed: int = 0


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_config(obj) -> SweepConfig:
    """Check a decoded JSON object against the schema; raise ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError("$", "config must be a JSON object")
    known = {"task", "axes", "params", "output_path", "parallelism", "seed"}
    for key in obj:
        if key not in known:
            raise ConfigError(key, "unknown key")

    task = obj.get("task")
    if task is None:
        raise ConfigError("task", "required")
    if task not in TASKS:
        raise ConfigError("task", f"must be one of {'|'.join(TASKS)}")

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
        if name not in _AXIS_NAMES[task]:
            raise ConfigError(f"axes.{name}", f"unknown axis for task '{task}'")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"axes.{name}", "must be a non-empty list")
        for i, v in enumerate(values):
            if not _is_number(v):
                raise ConfigError(f"axes.{name}[{i}]", "must be a number")
            if name in _INT_AXES or (task == "lifetime" and name == "L"):
                if not isinstance(v, int):
                    raise ConfigError(f"axes.{name}[{i}]", "must be an integer")
                if v < 0:
                    raise ConfigError(f"axes.{name}[{i}]", "must be non-negative")
            if (name in _EVEN_AXES or (task == "lifetime" and name == "L")) and v % 2:
                raise ConfigError(f"axes.{name}[{i}]", "must be even")
            if task == "phase_diagram" and abs(v) > PORTRAIT_RANGE:
                raise ConfigError(
                    f"axes.{name}[{i}]", f"must lie within |j| <= {PORTRAIT_RANGE}"
                )
        axes[name] = tuple(values)
    if task == "preset":
        if axes:
            raise ConfigError("axes", "preset task takes no axes")
    elif not axes:
        raise ConfigError("axes", f"at least one axis is required for task '{task}'")
    if task == "flow" and "j_perp" in axes and ("jx" in axes or "jy" in axes):
        raise ConfigError("axes.j_perp", "exclusive with axes.jx/axes.jy")

    params_obj = obj.get("params", {})
    if not isinstance(params_obj, dict):
        raise ConfigError("params", "must be an object")
    params: dict = {}
    for name, value in params_obj.items():
        if name not in _PARAM_NAMES[task]:
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
        elif name == "allow_large":
            if not isinstance(value, bool):
                raise ConfigError("params.allow_large", "must be a boolean")
        elif name == "L_grid":
            if not isinstance(value, list) or not value:
                raise ConfigError("params.L_grid", "must be a non-empty list")
            for i, v in enumerate(value):
                if not isinstance(v, int) or isinstance(v, bool) or v < 2 or v % 2:
                    raise ConfigError(f"params.L_grid[{i}]", "must be an even integer >= 2")
        elif name in ("L", "D_dim", "sample_stride"):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"params.{name}", "must be an integer")
        elif not _is_number(value):
            raise ConfigError(f"params.{name}", "must be a number")
        params[name] = value
    if task == "preset" and "name" not in params:
        raise ConfigError("params.name", "required")

    parallelism = obj.get("parallelism", 1)
    if not isinstance(parallelism, int) or isinstance(parallelism, bool) or parallelism < 1:
        raise ConfigError("parallelism", "must be an integer >= 1")
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed", "must be an integer")

    return SweepConfig(
        task=task,
        axes=axes,
        params=params,
        output_path=output_path,
        parallelism=parallelism,
        seed=seed,
    )


def load_config(path: str) -> SweepConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    return validate_config(obj)


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


def _refuse_overwrite(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")


def _write_rows(path: str, header: list[str], rows: list[list]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
    os.replace(tmp, path)


def _write_text(path: str, lines: list[str]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


# --- per-point evaluation (module level so process pools can pickle) -------


def _flow_options(params: dict, default_j_max: float = 1.0) -> FlowOptions:
    return FlowOptions(
        j_max=float(params.get("j_max", default_j_max)),
        j_min=float(params.get("j_min", 1e-8)),
        l_max=float(params.get("l_max", 100.0)),
        abs_tol=float(params.get("abs_tol", 1e-10)),
        rel_tol=float(params.get("rel_tol", 1e-10)),
        sample_stride=int(params.get("sample_stride", 1)),
    )


def _terminal_fields(trace: FlowTrace) -> tuple[str, float | None, float | None]:
    terminal = trace.terminal
    if isinstance(terminal, StrongCoupling):
        return "StrongCoupling", terminal.l_star, None
    if isinstance(terminal, Localized):
        return "Localized", None, terminal.j_star.jz
    return "CutoffReached", None, None


def trace_rows(trace: FlowTrace) -> list[list]:
    """Flatten a trace to (l, jx, jy, jz, c1, c2) rows for CSV export."""
    rows = []
    for l, j in trace.samples:
        c1, c2 = constants_of_motion(j)
        rows.append([l, j.jx, j.jy, j.jz, c1, c2])
    return rows


def _eval_flow(args):
    params, point = args
    jx = float(point.get("j_perp", point.get("jx", 0.0)))
    jy = float(point.get("j_perp", point.get("jy", 0.0)))
    jz = float(point.get("jz", 0.0))
    trace = integrate_flow(CouplingVector(jx, jy, jz), _flow_options(params))
    kind, l_star, jz_star = _terminal_fields(trace)
    return (jx, jy, jz, kind, l_star, jz_star, trace_rows(trace))


def _separatrix_tag(j_perp: float, jz: float) -> str:
    if j_perp > 0 and math.isclose(jz, -j_perp, rel_tol=1e-12, abs_tol=1e-15):
        return "jz=-jperp"
    if j_perp > 0 and math.isclose(jz, j_perp, rel_tol=1e-12, abs_tol=1e-15):
        return "jz=+jperp"
    return ""


def _eval_portrait(args):
    params, point = args
    j_perp = float(point["j_perp"])
    jz = float(point["jz"])
    opts = _flow_options(params, default_j_max=_PORTRAIT_DEFAULT_J_MAX)
    trace = integrate_flow(CouplingVector(j_perp, j_perp, jz), opts)
    kind, _, _ = _terminal_fields(trace)
    tag = _separatrix_tag(j_perp, jz)
    return [[l, j.jx, j.jz, kind, tag] for l, j in trace.samples]


def _eval_matching(args):
    params, point = args
    n = int(point["n"])
    z = float(params.get("z", 1.0))
    wick.check_probe_ceiling(n, params.get("allow_large", False))
    total = wick.matching_sum(wick.MatchingProblem(tuple(range(n)), z))
    return [n, total, total ** (2.0 / n)]


def _eval_census(args):
    params, point = args
    rule = surface_code.TieBreak(params.get("rule", "report"))
    rec = surface_code.failure_census(int(point["L"]), int(point["weight"]), rule)
    return [rec.L, rec.weight, rec.rule, rec.n_success, rec.n_logical, rec.n_tie]


def _eval_lifetime(args):
    params, point = args
    merged = {**params, **point}
    if "L" not in merged:
        raise ConfigError("params.L", "required (as a parameter or an axis)")
    spec = BathSpec(
        z=float(merged.get("z", 1.0)),
        s=float(merged.get("s", 1.0)),
        lam=float(merged.get("lambda", 1.0)),
        v=float(merged.get("v", 1.0)),
        a=float(merged.get("a", 1.0)),
        a0=float(merged.get("a0", 1.0)),
        D_dim=int(merged.get("D_dim", 2)),
        alpha=float(merged.get("alpha", 0.0)),
        temperature=float(merged.get("temperature", 0.0)),
        tau_qec=float(merged.get("tau_qec", 1.0)),
        hbar=float(merged.get("hbar", 1.0)),
        kB=float(merged.get("kB", 1.0)),
    )
    jz_star = merged.get("jz_star")
    cp = lifetimes.CodePoint(
        L=int(merged["L"]),
        epsilon=float(merged.get("epsilon", 0.01)),
        spec=spec,
        jz_star=None if jz_star is None else float(jz_star),
    )
    rep = lifetimes.build_report(cp)
    extra = [point[name] for name in sorted(point) if name != "L"]
    return extra + [getattr(rep, f) for f in LIFETIME_FIELDS]


_EVALUATORS = {
    "flow": _eval_flow,
    "phase_diagram": _eval_portrait,
    "matching": _eval_matching,
    "census": _eval_census,
    "lifetime": _eval_lifetime,
}


def _map_points(fn, params: dict, points: list[dict], workers: int) -> list:
    jobs = [(params, point) for point in points]
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=1))


def emit_phase_portrait(
    grid: list[tuple[float, float]], opts: FlowOptions | None = None
) -> list[list]:
    """Rows (trajectory_id, l, j_perp, j_z, terminal_label, separatrix) for a
    symmetric-coupling portrait over (j_perp, jz) starts."""
    for j_perp, jz in grid:
        if abs(j_perp) > PORTRAIT_RANGE or abs(jz) > PORTRAIT_RANGE:
            raise ValueError(f"portrait grid must lie within |j| <= {PORTRAIT_RANGE}")
    params: dict = {}
    if opts is not None:
        params = {
            "j_max": opts.j_max, "j_min": opts.j_min, "l_max": opts.l_max,
            "abs_tol": opts.abs_tol, "rel_tol": opts.rel_tol,
            "sample_stride": opts.sample_stride,
        }
    rows = []
    for tid, (j_perp, jz) in enumerate(grid):
        for sample in _eval_portrait((params, {"j_perp": j_perp, "jz": jz})):
            rows.append([tid] + sample)
    return rows


def run(cfg: SweepConfig, force: bool = False, workers: int | None = None) -> list[str]:
    """Execute a validated config; returns the list of files written."""
    nworkers = cfg.parallelism if workers is None else max(1, workers)
    out = cfg.output_path

    if cfg.task == "preset":
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
        _write_text(out, lines)
        return [out]

    points = grid_points(cfg.axes)
    results = _map_points(_EVALUATORS[cfg.task], cfg.params, points, nworkers)

    if cfg.task == "flow":
        _refuse_overwrite(out, force)
        os.makedirs(out, exist_ok=True)
        written = []
        index_rows = []
        for tid, result in enumerate(results):
            jx, jy, jz, kind, l_star, jz_star, rows = result
            fname = f"trace_{tid:04d}.csv"
            fpath = os.path.join(out, fname)
            if not force and os.path.exists(fpath):
                raise FileExistsError(f"{fpath} exists; pass --force to overwrite")
            _write_rows(fpath, ["l", "jx", "jy", "jz", "c1", "c2"], rows)
            written.append(fpath)
            index_rows.append([tid, jx, jy, jz, kind, l_star, jz_star, fname])
        index_path = os.path.join(out, "index.csv")
        if not force and os.path.exists(index_path):
            raise FileExistsError(f"{index_path} exists; pass --force to overwrite")
        _write_rows(
            index_path,
            ["trajectory_id", "jx0", "jy0", "jz0", "terminal", "l_star", "jz_star", "file"],
            index_rows,
        )
        written.append(index_path)
        return written

    _refuse_overwrite(out, force)
    if cfg.task == "phase_diagram":
        header = ["trajectory_id", "l", "j_perp", "j_z", "terminal_label", "separatrix"]
        rows = []
        for tid, sample_rows in enumerate(results):
            for sample in sample_rows:
                rows.append([tid] + sample)
    elif cfg.task == "matching":
        header = ["n", "matching_sum", "per_pair_weight"]
        rows = results
    elif cfg.task == "census":
        header = ["L", "weight", "rule", "n_success", "n_logical", "n_tie"]
        rows = results
    else:  # lifetime
        extra = [name for name in sorted(cfg.axes) if name != "L"]
        header = extra + list(LIFETIME_FIELDS)
        rows = results
    _write_rows(out, header, rows)
    return [out]

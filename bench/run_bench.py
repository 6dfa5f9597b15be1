#!/usr/bin/env python3
"""Benchmark of the codebath sweep CLI, end to end and layer by layer.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run_bench.py --workload all     # every workload, one table

One single-threaded client drives ``codebath.cli.main`` in-process in a
closed loop: the next config goes only after the previous call has written
its files.  A pass runs every config of the workload once into a fresh
temporary directory, which is checked and then removed.

``--trace 0`` times whole passes and prints the end-to-end metrics.  The
bounded pass metrics divide each pass time by a reference loop timed around
it (see ``reference_loop``), which cancels the drift of a shared machine.
``--trace 1`` alternates untraced passes with passes traced from outside
(see ``tracing.py``) and prints the per-layer metrics.  Human-readable
lines and a JSON report with the environment record come first; the last
line of standard output is the JSON result.  Reports and span dumps are
written under ``.bench_out/`` at the repository root.

The program is imported from ``src/`` beside this directory; without it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TMP = OUT / "tmp"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
REFERENCE_ITERATIONS = 30_000  # about 10 ms of pure Python on a 2 GHz core
# Wall-clock pass times: printed and reported, but left out of BENCHMARK.json
# because on a shared machine they drift by more than any usable bound.
UNBOUNDED_UNITS = {"sweep_s": "s", "sweep_s_tail": "s"}
SUITE_TIMEOUT_S = 120


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[kind]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --- set-up and import cost, in fresh interpreters -----------------------------


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import ``codebath.cli``, after one
    untimed run that writes the bytecode cache."""
    cmd = [sys.executable, "-c", "import codebath.cli"]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def import_times() -> tuple[float, float]:
    """(codebath.cli, all of scipy) cumulative import seconds from
    ``python -X importtime``, median over a few fresh interpreters."""
    cli_s, scipy_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import codebath.cli"],
            env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True,
        )
        cli_us, scipy_us = parse_importtime(proc.stderr)
        cli_s.append(cli_us / 1e6)
        scipy_s.append(scipy_us / 1e6)
    return statistics.median(cli_s), statistics.median(scipy_s)


def parse_importtime(text: str) -> tuple[int, int]:
    """Cumulative microseconds of ``codebath.cli`` and of every outermost
    ``scipy`` import in an ``-X importtime`` report.

    Lines come in post-order with two spaces of indent per level, so the
    pending entries deeper than a line are its children."""
    cli_us = 0
    pending: list[tuple[int, int]] = []  # (depth, scipy microseconds below)
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        name = parts[2].strip()
        below = 0
        while pending and pending[-1][0] > depth:
            below += pending.pop()[1]
        pending.append((depth, cumulative if name.split(".")[0] == "scipy" else below))
        if name == "codebath.cli":
            cli_us = cumulative
    return cli_us, sum(us for _, us in pending)


# --- environment record ---------------------------------------------------------


def git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def filesystem(path: Path) -> str | None:
    """Type of the filesystem holding ``path``, from the longest mount prefix."""
    try:
        with open("/proc/self/mounts") as fh:
            mounts = [line.split()[1:3] for line in fh]
    except OSError:
        return None
    real = str(path.resolve())
    best = max(
        (m for m in mounts if real == m[0] or real.startswith(m[0].rstrip("/") + "/")),
        key=lambda m: len(m[0]),
        default=None,
    )
    return best[1] if best else None


def tier1_suite() -> tuple[float | None, int | None]:
    """Wall time and exit code of the repository's tests, run from a scratch
    directory so pytest and Hypothesis leave their caches there."""
    cwd = Path(tempfile.mkdtemp(prefix="suite-", dir=TMP))
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", "--rootdir", str(ROOT),
        "-c", str(ROOT / "pyproject.toml"), f"--basetemp={cwd / 'basetemp'}", str(ROOT / "tests"),
    ]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=cwd, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=SUITE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, None
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    return time.perf_counter() - start, proc.returncode


def environment(seed: int, with_suite: bool) -> dict:
    import codebath
    import numpy
    import scipy

    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "codebath": codebath.__version__,
        "commit": git_commit(),
        "seed": seed,
        "output_filesystem": filesystem(OUT),
        "tier1_suite_s": None,
        "tier1_suite_exit": None,
    }
    if with_suite:
        record["tier1_suite_s"], record["tier1_suite_exit"] = tier1_suite()
    return record


# --- passes -----------------------------------------------------------------------


@dataclass
class PassResult:
    seconds: float
    calls: int
    failed: int
    problem: str | None


def _main(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except Exception:  # an uncaught error is exit 1 with a traceback for a CLI user
        traceback.print_exc(file=sys.__stderr__)
        return 1


def _timed_calls(calls, workdir: str, cli, tracer) -> tuple[float, list[int]]:
    codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        for call in calls:
            config = os.path.join(workdir, call.name + ".json")
            with open(config, "w") as fh:
                json.dump({**call.config, "output_path": os.path.join(workdir, call.out)}, fh)
            argv = ["sweep", "--config", config]
            if tracer is None:
                codes.append(_main(cli, argv))
                continue
            with warnings.catch_warnings(record=True) as caught, tracer.span("cli.main"):
                warnings.simplefilter("always")
                codes.append(_main(cli, argv))
            tracer.count(
                "lifetimes.saturation_warnings", sum("j(L)" in str(w.message) for w in caught)
            )
        return time.perf_counter() - start, codes


def run_pass(calls, cli, tracer=None, keep=None) -> PassResult:
    """Run every call once into a fresh directory, check, then remove it.
    ``keep`` sees the directory before it goes."""
    workdir = tempfile.mkdtemp(prefix="pass-", dir=TMP)
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            seconds, codes = _timed_calls(calls, workdir, cli, tracer)
        if keep is not None:
            keep(workdir)
        exits = sum(code != 0 for code in codes)
        if exits:
            return PassResult(seconds, len(codes), exits, f"exit codes {codes}")
        for call in calls:
            try:
                problem = call.check(os.path.join(workdir, call.out))
            except (OSError, ValueError, IndexError, KeyError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                return PassResult(seconds, len(codes), 1, f"{call.name}: {problem}")
        return PassResult(seconds, len(codes), 0, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _loop() -> float:
    start = time.perf_counter()
    acc, seen = 0.0, {}
    for i in range(REFERENCE_ITERATIONS):
        x = (i * 7919) % 1009
        seen[x] = seen.get(x, 0) + 1
        acc += math.sqrt(x + 1.0)
    return time.perf_counter() - start


def reference_loop() -> float:
    """Mean seconds of a fixed pure-Python loop of dict, integer and float
    work, run once on each CPU this process may use.

    On a shared machine the speed of each core drifts by tens of percent over
    seconds to minutes.  The loop's own work never changes, so its time
    tracks that drift, and a pass time divided by it does not."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples above): the highest whole percentile that
    leaves at least TAIL_BEYOND samples above it, by nearest rank.  With too
    few samples it is the maximum, reported as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100, 0
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = math.ceil(pct * n / 100)
    return xs[rank - 1], pct, n - rank


class Tally:
    """CLI calls attempted and failed over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, result: PassResult) -> PassResult:
        self.attempted += result.calls
        self.failed += result.failed
        if result.problem and len(self.problems) < 5:
            self.problems.append(result.problem)
        return result


# --- the two kinds of run ---------------------------------------------------------


def prepare(name: str, seed: int, cli, tally: Tally):
    """The calls of one pass, plus the serial calls for ``pool_dispatch``:
    those run once here, are checked, and give the bytes the parallel outputs
    must reproduce."""
    calls = workloads.build(name, seed)
    if name != "pool_dispatch":
        return calls, None
    digests = {}

    def keep(workdir):
        for call in calls:
            path = os.path.join(workdir, call.out)
            digests[call.name] = workloads.digest(path) if os.path.exists(path) else "missing"

    tally.add(run_pass(calls, cli, keep=keep))
    return [workloads.parallel_twin(call, digests[call.name]) for call in calls], calls


def end_to_end(calls, cli, seconds: float, tally: Tally) -> tuple[dict, dict]:
    times, refs = [], [reference_loop()]
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        times.append(tally.add(run_pass(calls, cli)).seconds)
        refs.append(reference_loop())
    # each pass against the mean of the references just before and after it
    norms = [2 * t / (a + b) for t, a, b in zip(times, refs, refs[1:])]
    tail_s, pct, beyond = tail(times)
    metrics = {
        "sweep_s": statistics.median(times),
        "sweep_s_tail": tail_s,
        "sweep_norm": statistics.median(norms),
        "sweep_norm_tail": tail(norms)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "passes": len(times), "tail_percentile": pct, "tail_samples_beyond": beyond,
        "reference_s": statistics.median(refs), "pass_s": times, "reference_pass_s": refs,
    }
    return metrics, detail


def per_layer(name, seed, calls, serial, cli, seconds: float, tally: Tally) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()
    kinds = ["untraced", "traced"] + (["serial"] if serial else [])
    passes = {kind: [] for kind in kinds}
    times = {kind: [] for kind in kinds}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(kinds) or time.perf_counter() < deadline:
        kind = kinds[i % len(kinds)]
        tracer.pass_no = i
        result = run_pass(
            serial if kind == "serial" else calls, cli, None if kind == "untraced" else tracer
        )
        tally.add(result)
        passes[kind].append(i)
        times[kind].append(result.seconds)
        i += 1
    tracer.dump(str(OUT / f"spans-{name}-seed{seed}.json"))

    traced = passes["traced"]
    spans = tracing.medians(tracer.pass_times(traced))
    counts, repeat = tracer.pass_counts(traced)
    metrics = {**spans, **counts}
    decodes = counts["surface_code.decodes"]
    metrics["surface_code.decode_us"] = (
        1e6 * spans["surface_code.failure_census_s"] / decodes if decodes else 0.0
    )
    metrics["surface_code.tie_share"] = (
        counts["surface_code.tie_decodes"] / decodes if decodes else 0.0
    )
    metrics["sweeps.pool.efficiency"] = 0.0
    metrics["lifetimes.saturation_warnings.pool"] = 0
    if serial:
        serial_counts, serial_repeat = tracer.pass_counts(passes["serial"])
        repeat = repeat and serial_repeat
        serial_eval = tracing.medians(tracer.pass_times(passes["serial"]))["sweeps.evaluate_s"]
        metrics["sweeps.pool.efficiency"] = serial_eval / (
            workloads.POOL_WORKERS * spans["sweeps.evaluate_s"]
        )
        metrics["lifetimes.saturation_warnings.pool"] = counts["lifetimes.saturation_warnings"]
        metrics["lifetimes.saturation_warnings"] = serial_counts["lifetimes.saturation_warnings"]
    metrics["trace.overhead_s"] = statistics.median(times["traced"]) - statistics.median(
        times["untraced"]
    )
    metrics["cli.import_s"], metrics["cli.import.scipy_s"] = import_times()
    detail = {
        "passes": {kind: len(p) for kind, p in passes.items()},
        "counts_repeat": repeat,
        "pass_s_median": {kind: statistics.median(t) for kind, t in times.items()},
    }
    return metrics, detail


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    TMP.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)  # pool and library temp files stay in the checkout
    tempfile.tempdir = str(TMP)
    sys.path.insert(0, str(SRC))

    setup = None if trace else measure_setup()
    from codebath import cli

    if Path(cli.__file__).resolve().parent != SRC / "codebath":
        print(f"error: imported codebath from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tally = Tally()
    calls, serial = prepare(name, seed, cli, tally)
    tally.add(run_pass(calls, cli))  # warm-up: lazy imports, first-call costs
    if trace:
        metrics, detail = per_layer(name, seed, calls, serial, cli, seconds, tally)
        units = declared_units("per_layer")
    else:
        metrics, detail = end_to_end(calls, cli, seconds, tally)
        metrics["setup_s"] = statistics.median(setup)
        detail["setup_samples_s"] = setup
        units = declared_units("end_to_end")
    fail_ratio = tally.failed / tally.attempted
    report = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "fail_ratio": fail_ratio,
        "problems": tally.problems,
        "detail": detail,
        "environment": environment(seed, with_suite=trace),
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
        "unbounded": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in UNBOUNDED_UNITS.items() if key in metrics
        },
    }
    with open(OUT / f"report-{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    for entries in (report["metrics"], report["unbounded"]):
        for key, entry in entries.items():
            print(f"{name} {key} = {entry['value']:.6g} {entry['unit']}")
    print(f"{name} fail_ratio = {fail_ratio:.6g} 1 ({tally.failed}/{tally.attempted})")
    for problem in tally.problems:
        print(f"{name} problem: {problem}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own interpreter, so peak memory stays per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(line for line in lines[:-2]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "codebath" / "cli.py").is_file():
        print(f"error: no codebath sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

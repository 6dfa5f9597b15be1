import csv
import hashlib
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codebath import cli, sweeps
from codebath.cli import main
from codebath.errors import ConfigError
from codebath.lifetimes import Phase
from codebath.sweeps import (
    LIFETIME_FIELDS,
    SweepConfig,
    format_cell,
    grid_points,
    load_config,
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
    (
        {"task": "preset", "params": {"name": "mainframe"}, "output_path": "x.txt"},
        "params.name",
    ),
    ({"task": "preset", "output_path": "x.txt"}, "params.name"),
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
        {"task": "preset", "params": {"name": "superconducting", "L_grid": [4, 5]},
         "output_path": "x.txt"},
        "params.L_grid[1]",
    ),
    # domain rules of the object each value becomes
    ({"task": "lifetime", "axes": {"L": [4]}, "params": {"z": -1}, "output_path": "x.csv"},
     "params.z"),
    ({"task": "lifetime", "axes": {"L": [4]}, "params": {"epsilon": 1.5}, "output_path": "x.csv"},
     "params.epsilon"),
    ({"task": "matching", "axes": {"n": [0]}, "output_path": "x.csv"}, "axes.n[0]"),
    ({"task": "lifetime", "axes": {"L": [4], "s": [1.5]}, "output_path": "x.csv"}, "axes.s[0]"),
    ({"task": "lifetime", "axes": {"L": [4]}, "params": {"D_dim": 0}, "output_path": "x.csv"},
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
    assert cfg.parallelism == 1


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


def test_portrait_range_check():
    with pytest.raises(ConfigError) as err:
        validate_config(
            {"task": "phase_diagram", "axes": {"j_perp": [0.1], "jz": [4.0]}, "output_path": "x"}
        )
    assert err.value.path == "axes.jz[0]"


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
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(7) == "7"
    assert format_cell(-12) == "-12"
    assert format_cell(Phase.ANTIFERROMAGNETIC) == "AFM"
    assert format_cell("x") == "x"
    assert format_cell(0.1) == "0.10000000000000001"
    assert format_cell(math.inf) == "inf"
    assert format_cell(-math.inf) == "-inf"
    assert format_cell(math.nan) == "nan"
    assert format_cell(-0.0) == "-0"
    assert format_cell(1e-300) == "1e-300"
    assert len(format_cell(1.0 / 3.0).replace("0.", "")) == 17
    assert format_cell(_Float(0.1)) == format_cell(0.1) == "0.10000000000000001"


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    out = tmp_path / "rows.csv"
    calls = []

    def failing_cell(v):
        calls.append(v)
        if len(calls) > 5:
            raise RuntimeError("disk full")
        return str(v)

    monkeypatch.setattr(sweeps, "format_cell", failing_cell)
    with pytest.raises(RuntimeError):
        sweeps._write_rows(str(out), ["a", "b"], [[1, 2]] * 10)
    assert list(tmp_path.iterdir()) == []


# --- templated rows: csv.writer with format_cell is their oracle -------------

TRACE_HEADER = ["l", "jx", "jy", "jz", "c1", "c2"]
PORTRAIT = sweeps.TASKS["phase_diagram"]
EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e17,
    -1e17, 1.7976931348623157e308, 0.1, -1 / 3, 4.0,
]


def assert_template_matches_oracle(path: Path, header, rows):
    """Rows written through ``template`` at ``path`` hold the bytes that
    ``csv.writer`` and ``format_cell`` give for the same rows."""
    oracle = path.with_name(path.name + ".oracle")
    sweeps._write_rows(str(oracle), header, rows)
    assert path.read_bytes() == oracle.read_bytes()
    oracle.unlink()


@given(st.floats())
def test_float_template_equals_format_cell(v):
    assert "%.17g" % v == format_cell(v)


def test_templated_rows_on_edge_values(tmp_path):
    n = len(EDGE_FLOATS)
    trace = [tuple(EDGE_FLOATS[(i + k) % n] for k in range(6)) for i in range(n)]
    labels = itertools.product(
        ("StrongCoupling", "Localized", "CutoffReached"), ("", "jz=-jperp", "jz=+jperp")
    )
    portrait = [
        (tid, v, -v, EDGE_FLOATS[tid % n], kind, tag)
        for tid, (v, (kind, tag)) in enumerate(itertools.product(EDGE_FLOATS, labels))
    ]
    for name, header, rows, template in (
        ("trace.csv", TRACE_HEADER, trace, sweeps._TRACE_ROW),
        ("portrait.csv", list(PORTRAIT.header), portrait, PORTRAIT.template),
    ):
        path = tmp_path / name
        sweeps._write_rows(str(path), header, rows, template=template)
        assert_template_matches_oracle(path, header, rows)
    assert ",StrongCoupling,\n" in (tmp_path / "portrait.csv").read_text()  # empty tag


sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [1, 7, 123])
def test_templated_rows_on_portrait_workload(tmp_path, monkeypatch, seed):
    """Every templated file of the benchmark's flow_portrait configs."""
    write_rows, templates = sweeps._write_rows, []

    def checked(path, header, rows, template=None):
        write_rows(path, header, rows, template=template)
        if template is not None:
            templates.append(template)
            assert_template_matches_oracle(Path(path), header, rows)

    monkeypatch.setattr(sweeps, "_write_rows", checked)
    for call in workloads.build("flow_portrait", seed):
        run(validate_config({**call.config, "output_path": str(tmp_path / call.out)}))
    assert sorted(set(templates)) == sorted({sweeps._TRACE_ROW, PORTRAIT.template})
    assert templates.count(sweeps._TRACE_ROW) == 16  # one trace per flow start


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
    assert isinstance(load_config(cfg_path), SweepConfig)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))


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


def test_flow_force_removes_stale_traces(tmp_path):
    out = tmp_path / "flows"
    cfg = {
        "task": "flow",
        "axes": {"j_perp": [0.05, 0.1, 0.15], "jz": [0.2]},
        "params": {"l_max": 5.0},
        "output_path": str(out),
    }
    run(validate_config(cfg))
    (out / "notes.txt").write_text("kept")
    cfg["axes"]["j_perp"] = [0.05]
    run(validate_config(cfg), force=True)
    assert sorted(p.name for p in out.iterdir()) == ["index.csv", "notes.txt", "trace_0000.csv"]


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


def test_preset_task_contains_headline_numbers(tmp_path):
    out = tmp_path / "preset.txt"
    cfg = validate_config(
        {"task": "preset", "params": {"name": "neutral_atom"}, "output_path": str(out)}
    )
    run(cfg)
    values = {}
    for line in out.read_text().splitlines():
        key, _, val = line.partition(" = ")
        values[key] = val
    assert float(values["light_cone_sites"]) == 1e11
    assert float(values["g_critical"]) == 2.5e-12


def read_preset(path):
    return [tuple(line.split(" = ")) for line in path.read_text().splitlines()]


def test_preset_superconducting_curve(tmp_path):
    out = tmp_path / "sc.txt"
    assert main(["preset", "--name", "superconducting", "--out", str(out)]) == 0
    lines = read_preset(out)
    curve = [(key, float(value)) for key, value in lines if key.startswith("lambda_c[")]
    assert [key for key, _ in curve] == [
        f"lambda_c[z={z},L={L}]" for z in (1, 0.5, 0.3) for L in (10, 30, 100, 300, 1000)
    ]
    lam_c = dict(curve)
    assert lam_c["lambda_c[z=1,L=10]"] == lam_c["lambda_c[z=1,L=1000]"]
    assert lam_c["lambda_c[z=0.5,L=100]"] / lam_c["lambda_c[z=0.5,L=10]"] == pytest.approx(
        math.sqrt(0.5), rel=1e-12
    )
    checks = dict(lines)
    assert float(checks["lambda_c_ratio_L100_L10_z0.5"]) == pytest.approx(math.sqrt(0.5))
    assert float(checks["lambda_c_z1_L_independent"]) == 1.0

    grid_out = tmp_path / "grid.txt"
    cfg = {"task": "preset", "params": {"name": "superconducting", "L_grid": [4, 8, 64]},
           "output_path": str(grid_out)}
    assert main(["preset", "--config", write_config(tmp_path, cfg)]) == 0
    assert [key for key, _ in read_preset(grid_out) if key.startswith("lambda_c[")] == [
        f"lambda_c[z={z},L={L}]" for z in (1, 0.5, 0.3) for L in (4, 8, 64)
    ]


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
    assert main(["phase-diagram", "--config", write_config(tmp_path, cfg)]) == 0
    tags = {row[0]: row[5] for row in read_rows(out)[1:]}
    assert tags == {"0": "jz=-jperp", "1": "jz=+jperp", "2": ""}


def test_phase_diagram_cli_range_guard(tmp_path, capsys):
    out = tmp_path / "portrait.csv"
    cfg = {"task": "phase_diagram", "axes": {"j_perp": [0.1], "jz": [-4.0]},
           "output_path": str(out)}
    assert main(["phase-diagram", "--config", write_config(tmp_path, cfg)]) == 2
    assert "axes.jz[0]" in capsys.readouterr().err
    assert not out.exists()


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
    run(validate_config(lifetime_config(out1, axes=axes)), workers=1)
    run(validate_config(lifetime_config(out2, axes=axes)), workers=8)
    assert digest(out1) == digest(out2)


def test_overwrite_refused_without_force(tmp_path):
    out = tmp_path / "once.csv"
    cfg = validate_config(lifetime_config(out))
    run(cfg)
    with pytest.raises(FileExistsError):
        run(cfg)
    run(cfg, force=True)  # allowed


# --- CLI --------------------------------------------------------------------


def test_cli_lifetime_roundtrip(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    cfg_path = write_config(tmp_path, lifetime_config(out))
    assert main(["lifetime", "--config", cfg_path]) == 0
    assert out.exists()
    assert str(out) in capsys.readouterr().out


def test_cli_sweep_runs_config_task(tmp_path):
    out = tmp_path / "cli2.csv"
    cfg_path = write_config(tmp_path, lifetime_config(out))
    assert main(["sweep", "--config", cfg_path]) == 0


def test_cli_out_override(tmp_path):
    out = tmp_path / "orig.csv"
    other = tmp_path / "override.csv"
    cfg_path = write_config(tmp_path, lifetime_config(out))
    assert main(["lifetime", "--config", cfg_path, "--out", str(other)]) == 0
    assert other.exists() and not out.exists()


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = write_config(tmp_path, {"task": "lifetime", "output_path": "x.csv"})
    assert main(["lifetime", "--config", cfg_path]) == 2


def test_cli_refuses_workers_flag(tmp_path, capsys):
    out = tmp_path / "x.csv"
    cfg_path = write_config(tmp_path, lifetime_config(out))
    with pytest.raises(SystemExit) as exc:
        main(["lifetime", "--config", cfg_path, "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_cli_main_repeated_in_one_process(tmp_path, capsys):
    """One parser serves every call; a parse error or --help between calls
    leaves the next call's exit code, output and file bytes as they were."""
    out = tmp_path / "x.csv"
    argv = ["lifetime", "--config", write_config(tmp_path, lifetime_config(out)), "--force"]
    assert main(argv) == 0
    first = out.read_bytes(), capsys.readouterr()
    for bad, code in (
        (argv + ["--workers", "2"], 2), (["--help"], 0), (["lifetime", "--help"], 0),
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
    assert main(["flow", "--config", write_config(tmp_path, cfg)]) == 2
    assert "axes.jz[0]" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_cli_task_mismatch(tmp_path):
    cfg_path = write_config(tmp_path, lifetime_config(tmp_path / "x.csv"))
    assert main(["census", "--config", cfg_path]) == 2


def test_cli_resource_limit_exit_code(tmp_path):
    cfg = {
        "task": "matching",
        "axes": {"n": [26]},
        "output_path": str(tmp_path / "big.csv"),
    }
    assert main(["matching", "--config", write_config(tmp_path, cfg)]) == 3
    assert not (tmp_path / "big.csv").exists()


@pytest.mark.parametrize("n, z", [([2, 4, 6], -1e300), ([24], -200.0)])
def test_cli_matching_refuses_negative_z(tmp_path, capsys, n, z):
    # the weights |x_i - x_j|**(-2z) overflow for z < 0
    out = tmp_path / "m.csv"
    cfg = {"task": "matching", "axes": {"n": n}, "params": {"z": z}, "output_path": str(out)}
    assert main(["matching", "--config", write_config(tmp_path, cfg)]) == 2
    assert "params.z: z must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_census_above_ceiling(tmp_path, capsys):
    out = tmp_path / "big.csv"
    cfg = {"task": "census", "axes": {"L": [20000], "weight": [10000]}, "output_path": str(out)}
    assert main(["census", "--config", write_config(tmp_path, cfg)]) == 3
    assert "L = 20000 above census ceiling 10000" in capsys.readouterr().err
    assert not out.exists()


def test_cli_preset_refuses_huge_L_grid_entry(tmp_path, capsys):
    out = tmp_path / "p.txt"
    cfg = {"task": "preset", "params": {"name": "superconducting", "L_grid": [4, 10**400]},
           "output_path": str(out)}
    assert main(["preset", "--config", write_config(tmp_path, cfg)]) == 2
    assert "params.L_grid[1]: must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_cli_flow_resting_on_j_min(tmp_path):
    out = tmp_path / "rest"
    cfg = {"task": "flow", "axes": {"jx": [0.0625]}, "params": {"j_min": 0.0625},
           "output_path": str(out)}
    assert main(["flow", "--config", write_config(tmp_path, cfg)]) == 0
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
    code = main(["lifetime", "--config", cfg_path])
    assert code in (0, 2)
    assert code == 2 or "nan" not in out.read_text()


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
        assert main(["lifetime", "--config", write_config(tmp_path, cfg)]) == 0
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
    assert main(["census", "--config", write_config(tmp_path, cfg)]) == 0
    assert read_rows(out)[1:] == [
        ["22", "2", "report", "231", "0", "0"],
        ["22", "11", "report", "0", "0", str(math.comb(22, 11))],
    ]


def test_cli_overwrite_exit_code(tmp_path):
    out = tmp_path / "c.csv"
    cfg_path = write_config(tmp_path, lifetime_config(out))
    assert main(["lifetime", "--config", cfg_path]) == 0
    assert main(["lifetime", "--config", cfg_path]) == 4
    assert main(["lifetime", "--config", cfg_path, "--force"]) == 0


def test_cli_missing_config(tmp_path):
    assert main(["lifetime", "--config", str(tmp_path / "absent.json")]) == 2


def test_cli_preset_shortcut(tmp_path):
    out = tmp_path / "preset.txt"
    assert main(["preset", "--name", "neutral_atom", "--out", str(out)]) == 0
    text = out.read_text()
    assert "light_cone_sites" in text
    assert main(["preset", "--name", "neutral_atom"]) == 2  # no --out


def test_cli_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["lifetime", "--config", str(bad)]) == 2

"""``src/`` holds only what a task runs: every module-level function of
``codebath`` is entered by some CLI run, and each of its defaulted parameters
is given another value by one.  The runs are every example config, one small
config per task and channel, and one refused config; a function no run enters,
or a parameter no run sets, has no production consumer, and either gains one
or leaves.  Nor does a module import a name it never reads, nor a function
take a parameter its body never reads."""
import ast
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import codebath
from codebath import cli

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.json"))

# One config per task; the flow runs take both paths (jx != jy, and j_perp),
# the lifetime runs both channels at T > 0, one of them sub-Ohmic.
CONFIGS = {
    "flow_asymmetric": {"task": "flow", "axes": {"jx": [0.1], "jy": [0.2], "jz": [-0.3]},
                        "params": {"l_max": 5.0}},
    "flow_symmetric": {"task": "flow", "axes": {"j_perp": [0.1, 0.3], "jz": [-0.2, 0.2]}},
    "matching": {"task": "matching", "axes": {"n": [2, 6]}, "params": {"z": 0.5}},
    "census": {"task": "census", "axes": {"L": [4], "weight": [1, 2, 3]},
               "params": {"rule": "adversarial"}},
    "localized": {"task": "lifetime", "axes": {"L": [4, 8], "jz_star": [-0.5]},
                  "params": {"lambda": 0.05, "temperature": 0.5}},
    "subohmic": {"task": "lifetime", "axes": {"L": [4, 8], "z": [0.3, 1.0]},
                 "params": {"lambda": 0.05, "s": 0.5, "temperature": 0.5}},
}
REFUSED = {"task": "lifetime", "axes": {"L": [3]}}


def module_functions() -> dict:
    """{code object: qualified name} of every function defined at the top level
    of a ``codebath`` module, private ones and cached ones included."""
    found = {}
    for info in pkgutil.iter_modules(codebath.__path__, "codebath."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            fn = inspect.unwrap(obj)  # a functools.cache wrapper's function
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[fn.__code__] = f"{module.__name__}.{name}"
    return found


def defaulted_parameters(functions: dict) -> dict:
    """{code object: {name: default}} of the functions' parameters that have a default."""
    found = {}
    for code, name in functions.items():
        module, attr = name.rsplit(".", 1)
        params = inspect.signature(inspect.unwrap(getattr(sys.modules[module], attr))).parameters
        found[code] = {p.name: p.default for p in params.values() if p.default is not p.empty}
    return found


def test_every_module_function_is_entered_by_a_cli_run(tmp_path, monkeypatch):
    functions, entered, set_params = module_functions(), set(), set()
    defaults = defaulted_parameters(functions)

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
            for name, default in defaults.get(frame.f_code, {}).items():
                value = frame.f_locals[name]
                if value is not default and value != default:
                    set_params.add(f"{functions[frame.f_code]}({name})")

    monkeypatch.chdir(tmp_path)  # each example writes to its own relative output_path
    argvs = [["sweep", "--config", str(path)] for path in EXAMPLES]
    argvs[0].append("--force")
    for name, config in [*CONFIGS.items(), ("refused", REFUSED)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**config, "output_path": str(tmp_path / f"{name}.out")}))
        argvs.append(["sweep", "--config", str(path)])
    cli._build_parser.cache_clear()  # a parser built by an earlier test would hide the build
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * (len(argvs) - 1) + [2]
    never = {name for code, name in functions.items() if code not in entered}
    # thermal_correlator waits for its consumer, the thermal cutoff of ROADMAP item 5
    assert never == {"codebath.bath.thermal_correlator"}
    unset = {f"{functions[code]}({name})" for code, names in defaults.items() for name in names}
    assert unset - set_params == set()


def test_every_imported_name_is_read():
    unread = []
    for info in pkgutil.iter_modules(codebath.__path__, "codebath."):
        nodes = list(ast.walk(ast.parse(inspect.getsource(importlib.import_module(info.name)))))
        # an annotation is parsed as an expression, so a name it holds is read
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unread += [f"{info.name}: {name}" for name in names if name not in read]
    assert unread == []


def test_every_parameter_is_read():
    """A parameter of any function, nested function or lambda is loaded by its body.
    The one exception is ``sweeps._map_points``'s ``workers``: the benchmark's tracer
    unpacks it from the call's four positional arguments (ROADMAP item 1b)."""
    unread = set()
    for info in pkgutil.iter_modules(codebath.__path__, "codebath."):
        tree = ast.parse(inspect.getsource(importlib.import_module(info.name)))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            fn = getattr(node, "name", "<lambda>")
            unread |= {f"{info.name}.{fn}({name})" for name in names if name not in read}
    assert unread == {"codebath.sweeps._map_points(workers)"}

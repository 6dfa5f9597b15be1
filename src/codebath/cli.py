"""Command-line front end for the sweep tasks.

Exit codes: 0 success, 2 config error, 3 resource limit, 4 I/O error.
The parser is built once per process, so repeated in-process calls of
``main`` pay for it once.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import sweeps
from .errors import ConfigError, ResourceLimitError

# ``sweep`` takes the task from the config; each task is also a subcommand
_COMMANDS = {"sweep": None, **{task.replace("_", "-"): task for task in sweeps.TASKS}}


@functools.cache  # about 1 ms a build; a parse leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codebath",
        description="Deterministic sweeps over code-plus-environment parameter grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command, help=f"run the {command} task")
        p.add_argument("--config", help="JSON sweep config file")
        p.add_argument("--out", help="override the config output_path")
        p.add_argument("--force", action="store_true", help="allow overwriting outputs")
    return parser


def _build_config(args) -> sweeps.SweepConfig:
    task = _COMMANDS[args.command]
    if args.config is None:
        raise ConfigError("$", "--config is required")
    obj = sweeps.read_config(args.config)
    stated = obj.get("task")
    if stated is None:
        obj = {**obj, "task": task}
    elif task is not None and stated != task:
        raise ConfigError("task", f"config says {stated!r} but the subcommand is '{args.command}'")
    if args.out is not None:
        obj = {**obj, "output_path": args.out}
    return sweeps.validate_config(obj)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        written = sweeps.run(cfg, force=args.force)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

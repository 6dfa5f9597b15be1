"""Command-line front end for the sweep tasks.

Exit codes: 0 success, 2 config error, 3 resource limit, 4 I/O error.
"""
from __future__ import annotations

import argparse
import sys

from . import sweeps
from .errors import ConfigError, ResourceLimitError
from .lifetimes import PRESET_NAMES

_COMMANDS = {
    "sweep": None,  # task comes from the config
    "flow": "flow",
    "phase-diagram": "phase_diagram",
    "matching": "matching",
    "census": "census",
    "lifetime": "lifetime",
    "preset": "preset",
}


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
        p.add_argument(
            "--workers", type=int, help="accepted for compatibility; evaluation is serial"
        )
        if command == "preset":
            p.add_argument(
                "--name", choices=PRESET_NAMES, help="preset name (config-free shortcut)"
            )
    return parser


def _build_config(args) -> sweeps.SweepConfig:
    task = _COMMANDS[args.command]
    if args.config is None:
        if args.command == "preset" and args.name is not None:
            if args.out is None:
                raise ConfigError("output_path", "required (use --out)")
            return sweeps.validate_config(
                {"task": "preset", "params": {"name": args.name}, "output_path": args.out}
            )
        raise ConfigError("$", "--config is required")
    obj = sweeps.read_config(args.config)
    if task is not None:
        stated = obj.get("task")
        if stated is None:
            obj = {**obj, "task": task}
        elif stated != task:
            raise ConfigError(
                "task", f"config says {stated!r} but the subcommand is '{args.command}'"
            )
    if args.out is not None:
        obj = {**obj, "output_path": args.out}
    return sweeps.validate_config(obj)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        written = sweeps.run(cfg, force=args.force, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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

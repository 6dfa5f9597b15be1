"""Command-line front end: ``codebath sweep --config cfg.json`` runs the
task the config names.

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


@functools.cache  # about 0.25 ms a build; a parse leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codebath",
        description="Deterministic sweeps over code-plus-environment parameter grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sweep", help="run the task the config names")
    p.add_argument("--config", help="JSON sweep config file")
    p.add_argument("--force", action="store_true", help="allow overwriting outputs")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is None:
            raise ConfigError("$", "--config is required")
        cfg = sweeps.validate_config(sweeps.read_config(args.config))
        written = sweeps.run(cfg, args.force)
    except (ResourceLimitError, MemoryError) as exc:  # also a sweep too large for memory
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(*written, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

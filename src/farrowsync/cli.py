"""Command-line front end.

Exit codes: 0 on success, 1 for configuration problems (bad file, unknown
keys, invalid values), 2 when the campaign ran but some cells failed at
runtime (e.g. a singular update system) and were skipped.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    DEFAULT_SEED,
    ConfigError,
    Options,
    load_config,
    run_design,
    run_experiment,
    run_measure,
)

#: Shorthand subcommand -> the campaign it runs.  Every subcommand reads the
#: config section named like it, with "-" as "_".
_SHORTHANDS = {"grid": "grid", "approx-sweep": "approx_sweep", "n-sweep": "nsweep", "opcounts": "opcounts"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farrow-sync",
        description="Sampling-offset estimation and compensation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("design", "measure", "run", *_SHORTHANDS):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="flat key = value config file")
        p.add_argument("--out", type=Path, default=Path("results"), help="output directory")
        if name not in ("design", "measure"):
            p.add_argument("--full", action="store_true", help="full-scale trial counts")
            p.add_argument("--seed", type=int, default=None, help="base seed override")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    section = args.command.replace("-", "_")
    try:
        options = Options(load_config(args.config).get(section, {}) if args.config else {}, section)
        if args.command == "design":
            outcome = run_design(options, args.out)
        elif args.command == "measure":
            outcome = run_measure(options, args.out)
        else:
            experiment = _SHORTHANDS.get(args.command) or options.get("experiment", str)
            if experiment is None:
                raise ConfigError("[run] requires an experiment = <name> entry")
            seed = options.get("seed", DEFAULT_SEED)
            outcome = run_experiment(experiment, options, seed if args.seed is None else args.seed, args.full, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in outcome.files:
        print(f"wrote {path}")
    if outcome.failures:
        print(f"warning: {outcome.failures} cell(s) failed and were skipped", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

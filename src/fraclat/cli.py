"""Command-line entry point.

One subcommand per study; the config file carries everything else.  Exit codes:
0 success, 2 config error, 3 numerical failure, 4 input over capacity (a
lattice above the site cap, or a dense kernel larger than physical memory).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import CapacityError, ConfigError, NumericalError
from .study import STUDIES, parse_config, run_study, write_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fraclat", description=__doc__)
    sub = parser.add_subparsers(dest="study", required=True)
    for name in STUDIES:
        p = sub.add_parser(name.replace("_", "-"), help=f"run the {name} study")
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed-override", type=int, default=None, help="replace the config's seed list")
        p.add_argument("--threads", type=int, default=None, help="accepted for compatibility; has no effect")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    study = args.study.replace("-", "_")
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        if cfg.study != study:
            raise ConfigError(f"config is for study {cfg.study!r} but subcommand is {study!r}")
        if args.seed_override is not None:
            from dataclasses import replace

            cfg = replace(cfg, seeds=(args.seed_override,))
    except (OSError, ValueError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_study(cfg)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4

    for eps, seed, metric, value, aux in report.rows:
        print(f"{study} eps={eps:g} seed={seed} {metric}={value:.6g} {aux}".rstrip(), file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{study}.{args.format}")
    write_report(report, path, fmt=args.format)
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

One subcommand per study, with two options: `--config`, the key=value file
that carries everything else (the seeds included), and `--out`, the directory
that receives `<study>.csv` and its `.meta.json` sidecar.  Exit codes: 0
success, 2 config error (or an `--out` that cannot be created or written: one
`output error:` line, and the study does not run when `--out` cannot be
created), 3 numerical failure, 4 input over capacity (a lattice above the site
cap, or a dense kernel or assembled p=2 matrix larger than physical memory).
"""

from __future__ import annotations

import argparse
import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it.  Every BLAS call
# that fraclat makes runs on one thread (`linear_ops._one_blas_thread`), so a
# CLI process starts numpy's OpenBLAS on one thread and never pays for a pool
# of worker threads; an explicit value, or a numpy that a caller loaded
# first, is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .errors import CapacityError, ConfigError, NumericalError
from .study import STUDIES, parse_config, run_study, write_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fraclat", description=__doc__)
    sub = parser.add_subparsers(dest="study", required=True)
    for name in STUDIES:
        p = sub.add_parser(name.replace("_", "-"), help=f"run the {name} study")
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    study = args.study.replace("-", "_")
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        if cfg.study != study:
            raise ConfigError(f"config is for study {cfg.study!r} but subcommand is {study!r}")
    except (OSError, ValueError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2

    try:
        # a floating-point overflow warns nothing: a non-finite metric is
        # rejected by the report, and a failed solve raises, each with one line
        with np.errstate(all="ignore"):
            report = run_study(cfg)
    except ConfigError as exc:  # a value that only the built lattice rejects
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4

    for eps, seed, metric, value, aux in report.rows:
        print(f"{study} eps={eps:g} seed={seed} {metric}={value:.6g} {aux}".rstrip(), file=sys.stderr)
    path = os.path.join(args.out, f"{study}.csv")
    try:
        write_report(report, path)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

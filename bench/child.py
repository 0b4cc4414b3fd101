"""One benchmark child process; spawned by run.py, one process per repetition.

    child.py --workload W --config FILE --dir DIR --mode setup|run [--trace]

``setup`` imports ``fraclat.cli``, parses the workload's config and exits: that
is the fixed cost every CLI run pays.  ``run`` runs the workload, writing its
report (CLI) or ``result.json`` (Python-API script) into DIR; with
``--trace`` it also writes the layer spans to ``trace.json``.  The package
must be imported from the checkout's ``src`` (run.py sets PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from workloads import WORKLOADS, parse_params, run_minimize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run"))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import fraclat.cli

    if not os.path.abspath(fraclat.cli.__file__).startswith(SRC + os.sep):
        print(f"fraclat was imported from {fraclat.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()

    if args.mode == "setup":
        if work.study is not None:
            fraclat.study.parse_config(text)
        else:
            import fraclat.minimize  # noqa: F401

            parse_params(text)
        import numpy
        import scipy

        env = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
        with open(os.path.join(args.dir, "env.json"), "w", encoding="utf-8") as fh:
            json.dump(env, fh)
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    if work.study is not None:
        rc = fraclat.cli.main([work.study, "--config", args.config, "--out", args.dir])
    else:
        with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
            json.dump(run_minimize(text), fh)
        rc = 0
    if tracer is not None:
        with open(os.path.join(args.dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

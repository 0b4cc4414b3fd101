"""The fraclat benchmark: one command that times the workloads end to end or
layer by layer and checks that their outputs are correct.

    python3 bench/run.py --workload homogenize-d1 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --smoke            # toy sizes; checks every metric of BENCHMARK.json is printed
    python3 bench/run.py --write-reference  # re-record bench/reference.json at the reference seed

Run it from the root of a checkout.  Every repetition is a fresh child process
(bench/child.py) that imports the package from the checkout's ``src``: a
repetition must not inherit the kernel cache of the previous one, and the
import cost is part of every real run.  The child's CPU time and peak RSS come
from ``os.wait4`` on that child alone.

``--trace 0`` alternates a setup child and a workload child until ``--seconds``
is spent and reports the medians of wall_s, cpu_s, peak_rss_mb and setup_s.
``--trace 1`` alternates a traced and an untraced workload child and reports
the per-layer metrics (medians over the traced children) and the tracing
overhead.  Either prints human-readable lines, an ``env`` line, and last one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The thread
variables (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, FRACLAT_THREADS) are passed
through as set and recorded, never set here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from layertrace import layer_metrics, span_counts
from workloads import REFERENCE_SEED, SOLVER_TOL, WORKLOADS, check, read_csv_report

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH, "reference.json")
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FRACLAT_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class ProgramMissing(Exception):
    """The checkout holds no runnable fraclat package."""


def per_layer_unit(name: str) -> str:
    if name.endswith("_ns_per_pair"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Child:
    """One finished child process: exit code, wall seconds, CPU seconds, peak RSS."""

    def __init__(self, argv, workdir, mode, traced, timeout=CHILD_TIMEOUT_S):
        self.dir, self.mode, self.traced = workdir, mode, traced
        self.layers = None  # per-layer metrics, for a checked traced child
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(os.path.join(workdir, "log.txt"), "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall = time.perf_counter() - t0
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux
        self.errors = [] if self.rc == 0 else [f"exit code {self.rc}: {self.log_tail()}"]

    def log_tail(self) -> str:
        with open(os.path.join(self.dir, "log.txt"), encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-3:])


class Run:
    """The children of one benchmark run of one workload and seed."""

    def __init__(self, name: str, seed: int, toy: bool, reference):
        self.work = WORKLOADS[name]
        self.seed = seed
        self.reference = reference  # None: check invariants only
        os.makedirs(OUT, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
        self.config = os.path.join(self.dir, "config.txt")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(self.work.config(seed, toy))
        self.children: list = []  # measured children; the warm-up child is not one
        self._spawned = 0
        self.first_output = None  # output bytes of the first untraced run child

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def child(self, mode: str, traced: bool = False) -> Child:
        self._spawned += 1
        workdir = os.path.join(self.dir, str(self._spawned))
        os.mkdir(workdir)
        argv = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", self.work.name,
                "--config", self.config, "--dir", workdir, "--mode", mode]
        ch = Child(argv + (["--trace"] if traced else []), workdir, mode, traced)
        if ch.rc == 0 and mode == "run":
            self._check(ch)
        return ch

    def read_output(self, ch: Child):
        """(raw bytes, {key: value}) of a run child's report."""
        name = f"{self.work.study}.csv" if self.work.study else "result.json"
        with open(os.path.join(ch.dir, name), "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8")
        return raw, read_csv_report(text) if self.work.study else json.loads(text)

    def _check(self, ch: Child) -> None:
        try:
            raw, values = self.read_output(ch)
        except (OSError, ValueError) as exc:
            ch.errors.append(f"unreadable output: {exc}")
            return
        ch.errors += check(self.work.name, values, self.reference, self.seed == REFERENCE_SEED)
        if not ch.traced:
            if self.first_output is None:
                self.first_output = raw
            return
        if self.first_output is not None and raw != self.first_output:
            ch.errors.append("traced report differs from the untraced one")
        try:
            with open(os.path.join(ch.dir, "trace.json"), encoding="utf-8") as fh:
                trace = json.load(fh)
        except (OSError, ValueError) as exc:
            ch.errors.append(f"unreadable trace: {exc}")
            return
        counts = span_counts(trace)
        missing = [s for s in self.work.spans if not counts.get(s)]
        if missing:
            ch.errors.append(f"traced run recorded no spans for {missing}")
        if trace["counters"]["cg_max_residual"] > SOLVER_TOL:
            ch.errors.append(f"CG residual {trace['counters']['cg_max_residual']:.3g} above solver.tol")
        ch.layers = layer_metrics(trace)

    def measure(self, seconds: float, traced: bool) -> None:
        """Warm up once, then repeat (setup, run) or (traced run, untraced run)
        while the next repetition is expected to end within ``seconds``."""
        warm = self.child("setup")
        if warm.rc != 0:
            raise ProgramMissing(f"setup child failed: {warm.log_tail()}")
        with open(os.path.join(warm.dir, "env.json"), encoding="utf-8") as fh:
            self.versions = json.load(fh)
        t0 = time.perf_counter()
        rep_times: list = []
        while not rep_times or time.perf_counter() - t0 + statistics.median(rep_times) <= seconds:
            t_rep = time.perf_counter()
            if traced:
                # untraced first on the first repetition, so every traced
                # report is compared with an untraced one
                pair = (False, True) if not rep_times else (True, False)
                for flag in pair:
                    self.children.append(self.child("run", traced=flag))
            else:
                self.children.append(self.child("setup"))
                self.children.append(self.child("run"))
            rep_times.append(time.perf_counter() - t_rep)
        self.elapsed = time.perf_counter() - t0

    def of(self, mode: str, traced: bool = False) -> list:
        return [c for c in self.children if c.mode == mode and c.traced == traced]

    @property
    def failed(self) -> list:
        return [c for c in self.children if c.errors]


def end_to_end(run: Run) -> dict:
    """Samples of each end-to-end metric, one per child."""
    runs = run.of("run")
    return {
        "wall_s": [c.wall for c in runs],
        "cpu_s": [c.cpu for c in runs],
        "peak_rss_mb": [c.rss_mb for c in runs],
        "setup_s": [c.wall for c in run.of("setup")],
    }


def per_layer(run: Run) -> dict:
    traced = [c for c in run.of("run", traced=True) if c.layers is not None]
    if not traced:
        return {}
    out = {k: statistics.median(c.layers[k] for c in traced) for k in traced[0].layers}
    out["trace.overhead_s"] = (statistics.median(c.wall for c in run.of("run", traced=True))
                               - statistics.median(c.wall for c in run.of("run")))
    return out


def environment() -> dict:
    """Where the numbers come from; recorded with every result."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
        rev = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    nproc = len(os.sched_getaffinity(0))
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc,
        "machine_note": f"one shared {nproc}-core machine; no isolation from other load, "
                        "no cache drops, no CPU pinning",
        **{v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, toy: bool = False) -> dict:
    """Measure one workload; print the report lines and return the result object."""
    reference = None
    if not toy:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[name]
    run = Run(name, seed, toy, reference)
    try:
        run.measure(seconds, traced)
    finally:
        run.close()
    if traced:
        metrics = per_layer(run)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        samples = end_to_end(run)
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        units = END_TO_END_UNITS
    failed = run.failed
    attempted = len(run.children)
    print(f"workload {name} seed {seed} trace {int(traced)}{' (toy sizes)' if toy else ''}: "
          f"{len(run.of('run', traced))} measured children in {run.elapsed:.1f} s")
    for key, value in metrics.items():
        spread = "" if traced else (f"  median of {len(samples[key])}, range "
                                    f"{min(samples[key]):.6g}..{max(samples[key]):.6g}")
        print(f"  {key:28s} {value:14.6g} {units[key]}{spread}")
    print(f"  {'fail_ratio':28s} {len(failed) / attempted:14.6g} ratio ({len(failed)}/{attempted})")
    for ch in failed:
        print(f"  FAILED {ch.mode}{' traced' if ch.traced else ''} child: {'; '.join(ch.errors[:5])}")
    print("env " + json.dumps({**environment(), **run.versions}, sort_keys=True))
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def smoke() -> int:
    """Every workload at toy sizes, both modes: each metric of BENCHMARK.json
    must be printed with its unit and every check must pass."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for name in WORKLOADS:
        for traced, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run_workload(name, REFERENCE_SEED, 0.0, traced, toy=True)
            if not result["correct"]:
                problems.append(f"{name} trace {int(traced)}: outputs failed their checks")
            printed = result["metrics"]
            for m in listed:
                got = printed.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{name} trace {int(traced)}: {m['name']} [{m['unit']}] printed as {got}")
            extra = set(printed) - {m["name"] for m in listed}
            if extra:
                problems.append(f"{name} trace {int(traced)}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def write_reference() -> int:
    """Record each workload's outputs at the reference seed, after they pass their invariants."""
    refs = {}
    for name in WORKLOADS:
        run = Run(name, REFERENCE_SEED, False, None)
        try:
            ch = run.child("run")
            if ch.errors:
                print(f"{name}: {ch.errors}", file=sys.stderr)
                return 1
            refs[name] = run.read_output(ch)[1]
        finally:
            run.close()
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fraclat", "__init__.py")):
        print(f"no fraclat package under {SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            ap.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"cannot run the program: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0  # a wrong result is reported by "correct" and "failed", not by the exit code


if __name__ == "__main__":
    sys.exit(main())

"""Layer tracer for the fraclat benchmark, installed from outside the package.

`Tracer.install()` wraps the public functions of each layer and rebinds the
wrapper under every name that a loaded ``fraclat`` module uses for the
function, because the modules import each other's functions by name
(``study`` holds its own ``assemble``, ``energy`` its own
``pair_weight_matrix``, ``minimize`` its own ``energy_value``, ...).  Patching
only the defining module would miss those lookups.

Each call records a span ``[name, start, end, parent]`` in memory; counters
are taken at the same boundaries.  `layer_metrics` turns one child's spans
and counters into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

# (module, function, span name); the span name prefix is the layer
SPANS = (
    ("fraclat.lattice", "build_lattice", "lattice.build"),
    ("fraclat.weights", "weight_pairs", "weights.hash"),
    ("fraclat.weights", "pair_weight_matrix", "weights.pair_matrix"),
    ("fraclat.energy", "kernel_matrix", "energy.kernel"),
    ("fraclat.energy", "energy_value", "energy.value"),
    ("fraclat.energy", "energy_gradient", "energy.gradient"),
    ("fraclat.linear_ops", "assemble", "linear_ops.assemble"),
    ("fraclat.linear_ops", "solve", "linear_ops.cg"),
    ("fraclat.linear_ops", "spectrum", "linear_ops.eigh"),
    ("fraclat.minimize", "minimize", "minimize"),
    ("fraclat.transfer", "pc_l2_distance", "transfer.pc_l2"),
    ("fraclat.study", "run_study", "study"),
    ("fraclat.study", "write_report", "study.write"),
)

# per-layer metric -> span whose total self time it reports
SELF_TIME = {
    "lattice.build_s": "lattice.build",
    "weights.hash_s": "weights.hash",
    "weights.pair_matrix_s": "weights.pair_matrix",
    "energy.kernel_s": "energy.kernel",
    "energy.value_s": "energy.value",
    "energy.gradient_s": "energy.gradient",
    "linear_ops.assemble_s": "linear_ops.assemble",
    "linear_ops.cg_s": "linear_ops.cg",
    "linear_ops.eigh_s": "linear_ops.eigh",
    "minimize.self_s": "minimize",
    "transfer.pc_l2_s": "transfer.pc_l2",
    "study.self_s": "study",
    "study.write_s": "study.write",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counters: dict = {
            "pairs_hashed": 0,
            "kernel_builds": 0,
            "kernel_reuses": 0,
            "kernel_bytes": 0,
            "cg_iters": 0,
            "cg_max_residual": 0.0,
            "solves": 0,
            "minimize_iters": 0,
        }
        self._stack: list = []
        self._kernels: dict = {}  # id(K) -> weakref(K), to tell a reuse from a build

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = [t0, t1]
            if after is not None:
                after(out)
            return out

        return wrapper

    def _after_hash(self, out):
        self.counters["pairs_hashed"] += len(out)

    def _after_kernel(self, out):
        k = out[1]
        ref = self._kernels.get(id(k))
        if ref is not None and ref() is k:
            self.counters["kernel_reuses"] += 1
        else:
            self.counters["kernel_builds"] += 1
            self.counters["kernel_bytes"] += 8 * k.shape[0] * k.shape[1]
            self._kernels[id(k)] = weakref.ref(k)

    def _after_solve(self, out):
        stats = out[1]
        self.counters["solves"] += 1
        self.counters["cg_iters"] += stats.iters
        self.counters["cg_max_residual"] = max(self.counters["cg_max_residual"], stats.residual)

    def _after_minimize(self, out):
        self.counters["minimize_iters"] += out[1].iters

    def install(self) -> None:
        """Wrap every traced function under all of its names."""
        after = {
            "weights.hash": self._after_hash,
            "energy.kernel": self._after_kernel,
            "linear_ops.cg": self._after_solve,
            "minimize": self._after_minimize,
        }
        for modname, _, _ in SPANS:
            importlib.import_module(modname)
        for modname, fname, span in SPANS:
            orig = getattr(sys.modules[modname], fname)
            wrapper = self._span(span, orig, after.get(span))
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "fraclat" or name.startswith("fraclat.")):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced child: self times, counts and ratios."""
    spans, counters = trace["spans"], trace["counters"]
    self_time = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    by_name: dict = {}
    calls: dict = {}
    for (name, _, _, _), t in zip(spans, self_time):
        by_name[name] = by_name.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
    out = {metric: by_name.get(span, 0.0) for metric, span in SELF_TIME.items()}
    pairs = counters["pairs_hashed"]
    out["weights.pairs_hashed"] = pairs
    out["weights.hash_ns_per_pair"] = 1e9 * out["weights.hash_s"] / pairs if pairs else 0.0
    for key in ("kernel_builds", "kernel_reuses", "kernel_bytes"):
        out["energy." + key] = counters[key]
    out["energy.evals"] = calls.get("energy.value", 0) + calls.get("energy.gradient", 0)
    out["linear_ops.cg_iters"] = counters["cg_iters"]
    out["linear_ops.solves"] = counters["solves"]
    # every fg evaluation inside minimize is one energy_value call whose parent
    # is the minimize span; all but the first of each minimize call are
    # line-search trials
    fg = sum(1 for name, _, _, parent in spans
             if name == "energy.value" and parent >= 0 and spans[parent][0] == "minimize")
    trials = fg - calls.get("minimize", 0)
    out["minimize.iters"] = counters["minimize_iters"]
    out["minimize.fg_evals"] = fg
    out["minimize.accept_ratio"] = counters["minimize_iters"] / trials if trials else 0.0
    return out


def span_counts(trace: dict) -> dict:
    counts: dict = {}
    for name, _, _, _ in trace["spans"]:
        counts[name] = counts.get(name, 0) + 1
    return counts

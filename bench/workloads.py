"""The benchmark's workloads: their inputs, the layers they must exercise, and
the checks on their outputs.

Inputs are a pure function of the workload seed given to ``run.py``: a
workload that uses k weight fields draws field seeds k*seed+1 .. k*seed+k, so
seed 0 gives fields 1 .. k (for homogenize-d1 the paper's 1, 2, 3).  This
module imports no fraclat code at module level, so the parent process stays
small.
"""

from __future__ import annotations

import math

REFERENCE_SEED = 0

SOLVER_TOL = 1e-10
# Reference values are compared at RTOL = KAPPA * SOLVER_TOL.  A CG solution
# with relative residual <= tol is within cond(A) * tol of the exact one, and a
# reported L2 error subtracts two such solutions; cond(A) of the assembled
# systems is at most 6.1e3 (d=1, eps=1/512, LogNormal(1), fields 1-3) and 86
# (d=2).  KAPPA = 1e5 covers 2 * cond(A) eightfold, so a change of CG path
# (e.g. Jacobi preconditioning, reordered sums) passes and a wrong result
# does not.
KAPPA = 1e5
RTOL = KAPPA * SOLVER_TOL

MINIMIZE_GRAD_TOL = 1e-8


def field_seeds(seed: int, k: int) -> tuple:
    return tuple(k * seed + i for i in range(1, k + 1))


class Workload:
    """One benchmark workload.  ``study`` names the CLI subcommand, or is None
    for the Python-API script; ``make_config(field_seeds, toy)`` writes its
    config; ``spans`` are the spans the traced run must record at least once."""

    def __init__(self, name, study, n_fields, make_config, spans):
        self.name, self.study, self.n_fields, self.spans = name, study, n_fields, spans
        self._make_config = make_config

    def config(self, seed: int, toy: bool) -> str:
        """Config text: a CLI config file, or key=value parameters of the script."""
        return self._make_config(field_seeds(seed, self.n_fields), toy)


def _homogenize_config(seeds, toy):
    eps = (0.125, 0.0625) if toy else tuple(2.0 ** -k for k in range(4, 10))  # 1/16 .. 1/512
    return "\n".join([
        "study=homogenize", "d=1", "s=0.5", "p=2.0",
        "eps_list=" + ",".join(repr(e) for e in eps),
        "domain=-1,1", "halo=-2,2",
        "dist.kind=lognormal", "dist.sigma=1.0",
        "seeds=" + ",".join(map(str, seeds)),
        f"solver.tol={SOLVER_TOL!r}",
    ]) + "\n"


def _spectral_config(seeds, toy):
    return "\n".join([
        "study=spectral", "d=2", "s=0.5", "p=2.0",
        "eps_list=" + ("0.25" if toy else "0.0625"),
        "domain=-1,1,-1,1", "halo=-1.5,1.5,-1.5,1.5",
        "dist.kind=lognormal", "dist.sigma=1.0",
        "seeds=" + ",".join(map(str, seeds)),
        "k_eigs=5",
    ]) + "\n"


def _minimize_config(seeds, toy):
    return "\n".join([
        "eps=" + ("0.03125" if toy else "0.0078125"),
        "seeds=" + ",".join(map(str, seeds)),
    ]) + "\n"


WORKLOADS = {
    "homogenize-d1": Workload(
        "homogenize-d1", "homogenize", 3, _homogenize_config,
        ("study", "study.write", "lattice.build", "weights.pair_matrix", "weights.hash",
         "energy.kernel", "linear_ops.assemble", "linear_ops.cg", "transfer.pc_l2"),
    ),
    "spectral-d2": Workload(
        "spectral-d2", "spectral", 2, _spectral_config,
        ("study", "study.write", "lattice.build", "weights.pair_matrix", "weights.hash",
         "energy.kernel", "linear_ops.assemble", "linear_ops.eigh"),
    ),
    "minimize-d1-p3": Workload(
        "minimize-d1-p3", None, 8, _minimize_config,
        ("lattice.build", "weights.pair_matrix", "weights.hash", "energy.kernel",
         "energy.value", "energy.gradient", "minimize"),
    ),
}


# ---------------------------------------------------------------------------
# the Python-API workload (runs in the child)
# ---------------------------------------------------------------------------


def parse_params(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if line)


def run_minimize(text: str) -> dict:
    """minimize-d1-p3: projected L-BFGS for p=3 on d=1, one run per field seed.
    Returns {"<field seed>,<stat>": value}."""
    import numpy as np

    from fraclat import EnergySpec, GridFunction, LogNormal, PowerK, SmoothedPowerP, WeightField, build_lattice
    from fraclat.minimize import MinimizeOptions, minimize

    params = parse_params(text)
    lat = build_lattice(1, float(params["eps"]), [[-1.0, 1.0]], [[-1.5, 1.5]])
    spec = EnergySpec(
        p=3.0, s=0.5, V=SmoothedPowerP(3.0, 1e-4), G=PowerK(0.5, 2.0),
        f=GridFunction(lat, np.ones(lat.n_sites)), constraint="dirichlet0",
    )
    opts = MinimizeOptions(grad_tol=MINIMIZE_GRAD_TOL)
    out = {}
    for seed in params["seeds"].split(","):
        _, stats = minimize(spec, WeightField(LogNormal(1.0), int(seed)), opts)
        out[f"{seed},iters"] = float(stats.iters)
        out[f"{seed},final_energy"] = stats.final_energy
        out[f"{seed},grad_norm"] = stats.grad_norm
    return out


# ---------------------------------------------------------------------------
# output checks (run in the parent)
# ---------------------------------------------------------------------------


def read_csv_report(text: str) -> dict:
    """Long-format study CSV -> {"eps,seed,metric,aux": value}."""
    out = {}
    for line in text.splitlines()[1:]:
        _, eps, seed, metric, value, aux = line.split(",", 5)
        out[f"{eps},{seed},{metric},{aux}"] = float(value)
    return out


def _field(key: str, i: int) -> str:
    return key.split(",")[i]


def check(name: str, values: dict, reference: dict, compare_all: bool) -> list:
    """Errors in one child's output.  Seed-free values (those of the constant
    field) are compared with the reference on every seed; the rest only when
    ``compare_all`` (the reference seed).  Invariants hold on every seed."""
    errors = [f"non-finite {k}={v}" for k, v in values.items() if not math.isfinite(v)]
    errors += _INVARIANTS[name](values)
    if reference is None:  # toy sizes have no reference
        return errors
    if len(values) != len(reference):
        errors.append(f"{len(values)} values, reference has {len(reference)}")
    scale = _SCALES[name](reference)
    for key, ref in reference.items():
        if not (compare_all or _seed_free(name, key)):
            continue
        if key not in values:
            errors.append(f"missing {key}")
            continue
        size = scale(key, ref)
        if size is not None and not abs(values[key] - ref) <= RTOL * size:
            errors.append(f"{key}={values[key]!r}, reference {ref!r}, tolerance {RTOL * size:.3g}")
    return errors


def _seed_free(name, key):
    if name == "homogenize-d1":
        return _field(key, 2) in ("ref_norm", "const_error")
    if name == "spectral-d2":
        return _field(key, 3) == "constant"
    return False


def _homogenize_scale(reference):
    # errors are differences of solutions, so they are compared on the scale
    # of the reference solution's norm
    ref_norm = max(abs(v) for k, v in reference.items() if _field(k, 2) == "ref_norm")
    return lambda key, ref: max(abs(ref), ref_norm)


def _spectral_scale(reference):
    def scale(key, ref):
        metric = _field(key, 2)
        if metric.startswith("align_"):
            # eigenvectors of the constant field span degenerate eigenspaces on
            # the square, so the alignment with them is not determined by the
            # operator; only its range is checked
            return None
        return abs(ref) if metric.startswith("mu_") else max(abs(ref), 1.0)

    return scale


def _minimize_scale(reference):
    # iteration counts and the final gradient depend on the L-BFGS path; the
    # energy at the minimum does not
    return lambda key, ref: abs(ref) if key.endswith(",final_energy") else None


def _homogenize_invariants(values):
    errors = [f"{k}={v!r} < 0" for k, v in values.items() if v < 0]
    by_eps: dict = {}
    for k, v in values.items():
        by_eps.setdefault(_field(k, 0), {}).setdefault(_field(k, 2), []).append(v)
    for eps, rows in by_eps.items():
        errs, median = rows.get("l2_error"), rows.get("median_error")
        if errs and not (median and min(errs) <= median[0] <= max(errs)):
            errors.append(f"eps={eps}: median_error outside the seeds' l2_error range")
    return errors


def _spectral_invariants(values):
    errors = []
    mus: dict = {}
    for k, v in values.items():
        metric = _field(k, 2)
        if metric.startswith("mu_"):
            if not v > 0:
                errors.append(f"{k}={v!r} is not positive")
            group = f"eps={_field(k, 0)} seed={_field(k, 1)} {_field(k, 3)}"
            mus.setdefault(group, []).append((int(metric[3:]), v))
        elif metric.startswith("gap_") and v < 0:
            errors.append(f"{k}={v!r} < 0")
        elif metric.startswith("align_") and not 0 <= v <= 1 + 1e-9:
            errors.append(f"{k}={v!r} outside [0, 1]")
    for group, pairs in mus.items():
        series = [v for _, v in sorted(pairs)]
        if series != sorted(series, reverse=True):
            errors.append(f"{group}: eigenvalues of the solution operator not descending")
    return errors


def _minimize_invariants(values):
    errors = []
    for k, v in values.items():
        if k.endswith(",grad_norm") and not v <= MINIMIZE_GRAD_TOL:
            errors.append(f"{k}={v!r} exceeds grad_tol {MINIMIZE_GRAD_TOL}")
        if k.endswith(",final_energy") and not v < 0:
            errors.append(f"{k}={v!r}: minimum with f=1 must be negative")
    return errors


_SCALES = {
    "homogenize-d1": _homogenize_scale,
    "spectral-d2": _spectral_scale,
    "minimize-d1-p3": _minimize_scale,
}
_INVARIANTS = {
    "homogenize-d1": _homogenize_invariants,
    "spectral-d2": _spectral_invariants,
    "minimize-d1-p3": _minimize_invariants,
}

"""Experiment drivers, config parsing, and reporting.

Config files are flat UTF-8 ``key=value`` lines with dotted keys; unknown keys
are hard errors.  `StudyConfig` is the one declaration of the format, and
`parse_config` and `serialize_config` loop over its fields.

Reports are long-format rows (study, eps, seed, metric, value, aux) written as
CSV, with run metadata (config echo, version, wall time, and under `env` the
Python and numpy versions, the `OPENBLAS_NUM_THREADS` the run saw, which
`fraclat.cli` replaces with the value the user set, the CPU count, numpy's
enabled SIMD targets and `linear_ops.blas_env`'s record of the BLAS it ran
on) in a ``.meta.json`` sidecar so the data file itself is byte-reproducible.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import dataclass, field as dc_field, fields, is_dataclass
from typing import Optional

import numpy as np

from . import __version__
from .energy import (
    FLAVORS,
    EnergySpec,
    GridFunction,
    PowerP,
    embedding_denominator,
    energy_value,
    kernel_matrix,
    lq_norm,
)
from .errors import ConfigError, NumericalError
from .lattice import build_lattice, check_boxes
from .linear_ops import assemble, blas_env, solve, spectrum
from .transfer import ContinuumFunction, continuum_energy, pc_l2_distance, sample
from .weights import (
    Constant,
    DecayingProduct,
    LogNormal,
    ShiftedPareto,
    UnitPowerLaw,
    WeightField,
    check_assumption,
    divergence_probe,
    empirical_moment,
    locality_scaling_sum,
)

STUDIES = ("solve", "homogenize", "gamma_limit", "spectral", "embeddings", "ergodic", "vanish")

# the studies that solve the p=2 problem with no zero-order term under dirichlet0,
# the one problem their solver (assemble, then Cholesky and CG, or eigh) solves
_P2_STUDIES = ("solve", "homogenize", "spectral")

_D1_STUDIES = ("gamma_limit", "vanish", "embeddings")


@dataclass(frozen=True)
class StudyConfig:
    """The config format: one key per field, with the field's default.

    A key is its field name unless `_KEYS` renames it; a value has the type of
    the default (a comma list of its first element's type for tuples).  `dist`
    is read from the ``dist.*`` keys of `_DISTS`.
    """

    study: str
    d: int = 1
    s: float = 0.5
    p: float = 2.0
    eps_list: tuple = (0.0625, 0.03125)
    domain: tuple = (-1.0, 1.0)
    halo: tuple = (-2.0, 2.0)
    dist: object = Constant(1.0)
    seeds: tuple = (1,)
    flavor: str = "global"
    solver_tol: float = 1e-10
    solver_max_iter: int = 10_000
    quad_n: int = 128
    k_eigs: int = 5
    radii: tuple = (10, 100, 1000)
    alpha_list: tuple = (0.5, 1.0)
    q_list: tuple = (2.0,)
    box_side: int = 64


# config keys that differ from their field's name
_KEYS = {"solver_tol": "solver.tol", "solver_max_iter": "solver.max_iter", "alpha_list": "alpha"}

# dist.kind -> (class, its one parameter, that parameter's default)
_DISTS = {
    "constant": (Constant, "value", 1.0),
    "lognormal": (LogNormal, "sigma", 1.0),
    "unit_power_law": (UnitPowerLaw, "a", 4.0),
    "shifted_pareto": (ShiftedPareto, "a", 2.0),
    "decaying_product": (DecayingProduct, "alpha", 3.0),
}


def _parse_value(text: str, default):
    if isinstance(default, tuple):
        return tuple(type(default[0])(t) for t in text.split(",") if t.strip())
    return type(default)(text)


def _text(value) -> str:
    # str() of a Python int, float or str is its repr without quotes
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _parse_dist(kv: dict, prefix: str):
    kind = kv.pop(prefix + "kind", "constant")
    if kind not in _DISTS:
        raise ConfigError(f"unknown {prefix}kind {kind!r}; expected one of {tuple(_DISTS)}")
    cls, param, default = _DISTS[kind]
    args = {param: float(kv.pop(prefix + param, default))}
    if cls is DecayingProduct:
        args["base"] = _parse_dist(kv, prefix + "base.")
    return cls(**args)


def _serialize_dist(dist, prefix: str) -> list:
    kind = next(k for k, (cls, _, _) in _DISTS.items() if type(dist) is cls)
    param = _DISTS[kind][1]
    lines = [f"{prefix}kind={kind}", f"{prefix}{param}={_text(getattr(dist, param))}"]
    if isinstance(dist, DecayingProduct):
        lines += _serialize_dist(dist.base, prefix + "base.")
    return lines


def parse_config(text: str) -> StudyConfig:
    kv: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in kv:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kv[key] = val

    # the one required key, checked before any value is parsed
    try:
        study = kv.pop("study").replace("-", "_")
    except KeyError:
        raise ConfigError("missing required key 'study'") from None
    if study not in STUDIES:
        raise ConfigError(f"unknown study {study!r}; expected one of {STUDIES}")

    values = {"study": study}
    try:
        for f in fields(StudyConfig):
            key = _KEYS.get(f.name, f.name)
            if is_dataclass(f.default):
                values[f.name] = _parse_dist(kv, key + ".")
            elif key in kv:
                values[f.name] = _parse_value(kv.pop(key), f.default)
        cfg = StudyConfig(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    if kv:
        raise ConfigError(f"unknown config keys: {sorted(kv)}")
    _validate(cfg)
    return cfg


def _floats(value) -> list:
    """The float values in a config field, a tuple or a distribution's fields."""
    if is_dataclass(value):
        return [x for f in fields(value) for x in _floats(getattr(value, f.name))]
    if isinstance(value, tuple):
        return [x for v in value for x in _floats(v)]
    return [value] if isinstance(value, float) else []


def _validate(cfg: StudyConfig) -> None:
    for f in fields(cfg):
        if isinstance(f.default, tuple) and not getattr(cfg, f.name):
            raise ConfigError(f"{_KEYS.get(f.name, f.name)} must be nonempty")
    numbers = [x for f in fields(cfg) if f.name != "q_list" for x in _floats(getattr(cfg, f.name))]
    if not all(math.isfinite(x) for x in numbers):
        raise ConfigError("every number in the config must be finite (q_list may hold inf)")
    if not all(q >= 1 for q in cfg.q_list):
        raise ConfigError(f"q_list entries must be at least 1 or inf, got {cfg.q_list}")
    if not all(eps > 0 for eps in cfg.eps_list):
        raise ConfigError("eps_list entries must be positive")
    if not cfg.p > 1:
        raise ConfigError(f"p must exceed 1, got {cfg.p}")
    if not 0 < cfg.s < 1:
        raise ConfigError(f"s must lie in (0, 1), got {cfg.s}")
    if not cfg.solver_tol > 0 or cfg.solver_max_iter < 1:
        raise ConfigError("solver.tol must be positive and solver.max_iter at least 1")
    if cfg.k_eigs < 1:
        raise ConfigError(f"k_eigs must be at least 1, got {cfg.k_eigs}")
    if cfg.quad_n < 1:
        raise ConfigError(f"quad_n must be at least 1, got {cfg.quad_n}")
    if cfg.box_side < 2:
        raise ConfigError(f"box_side must be at least 2, got {cfg.box_side}")
    if not all(r >= 1 for r in cfg.radii):
        raise ConfigError(f"radii entries must be at least 1, got {cfg.radii}")
    if list(cfg.eps_list) != sorted(set(cfg.eps_list), reverse=True):
        raise ConfigError("eps_list must be strictly decreasing")
    if len(cfg.domain) != 2 * cfg.d or len(cfg.halo) != 2 * cfg.d:
        raise ConfigError("domain and halo need 2 entries per dimension")
    try:
        check_boxes(cfg.d, cfg.domain, cfg.halo)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.flavor not in FLAVORS:
        raise ConfigError(f"unknown flavor {cfg.flavor!r}; expected one of {FLAVORS}")
    if cfg.study in _P2_STUDIES and cfg.p != 2.0:
        raise ConfigError(f"{cfg.study} solves the p=2 problem only, got p={cfg.p}")
    if cfg.study in _D1_STUDIES and cfg.d != 1:
        raise ConfigError(f"{cfg.study} runs in d=1 only (tent_function, _test_family and "
                          f"continuum_energy are one-dimensional), got d={cfg.d}")
    if cfg.study in ("homogenize", "spectral", "embeddings") and not isinstance(cfg.dist, Constant):
        q_max = cfg.dist.q_max()
        if not check_assumption(cfg.p, cfg.s, cfg.d, q_max).satisfied:
            raise ConfigError(
                f"moment assumption fails for p={cfg.p}, s={cfg.s}, d={cfg.d}, q_max={q_max}"
            )


def serialize_config(cfg: StudyConfig) -> str:
    lines = []
    for f in fields(cfg):
        key, value = _KEYS.get(f.name, f.name), getattr(cfg, f.name)
        lines += _serialize_dist(value, key + ".") if is_dataclass(value) else [f"{key}={_text(value)}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class StudyReport:
    study: str
    rows: list = dc_field(default_factory=list)  # (eps, seed, metric, value, aux)
    meta: dict = dc_field(default_factory=dict)

    def add(self, eps: float, seed: int, metric: str, value: float, aux: str = "") -> None:
        if not math.isfinite(value):
            raise NumericalError(f"non-finite metric {metric}={value}")
        self.rows.append((float(eps), int(seed), metric, float(value), aux))

    def to_csv(self) -> str:
        out = ["study,eps,seed,metric,value,aux"]
        for eps, seed, metric, value, aux in self.rows:
            out.append(f"{self.study},{eps!r},{seed},{metric},{value!r},{aux}")
        return "\n".join(out) + "\n"

    def values(self, metric: str, eps: Optional[float] = None) -> list:
        return [
            v
            for e, sd, m, v, _ in self.rows
            if m == metric and (eps is None or e == eps)
        ]


def write_report(report: StudyReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(report.meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _boxes(cfg: StudyConfig):
    return check_boxes(cfg.d, cfg.domain, cfg.halo)


def _lattice(cfg: StudyConfig, eps: float):
    dom, halo = _boxes(cfg)
    return build_lattice(cfg.d, eps, dom, halo)


def tent_function(domain) -> ContinuumFunction:
    """Unit tent peaking at the domain center, zero on the boundary (d=1)."""
    a, b = np.asarray(domain, dtype=float).reshape(2)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def evaluate(pts):
        return np.maximum(0.0, 1.0 - np.abs(pts[:, 0] - mid) / half)

    return ContinuumFunction(
        evaluate=evaluate,
        dim=1,
        support_box=np.array([[a, b]]),
        lipschitz_const=1.0 / half,
    )


def _system(cfg: StudyConfig, lat, field: WeightField):
    # f = 1 is the forcing of every p=2 study
    return assemble(lat, field, cfg.s, cfg.flavor, GridFunction(lat, np.ones(lat.n_sites)))


def _solve_p2(cfg: StudyConfig, lat, field: WeightField):
    # `solve` is this module's global, looked up at the call, so a tracer that
    # rebinds the name sees every solve
    return solve(_system(cfg, lat, field), tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)


def _new_report(cfg: StudyConfig) -> StudyReport:
    return StudyReport(
        study=cfg.study,
        meta={"config": serialize_config(cfg), "version": __version__, "wall_time": None},
    )


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def run_solve(cfg: StudyConfig) -> StudyReport:
    report = _new_report(cfg)
    dom = _boxes(cfg)[0]
    for eps in cfg.eps_list:
        lat = _lattice(cfg, eps)
        zero = GridFunction(lat, np.zeros(lat.n_sites))
        for seed in cfg.seeds:
            u, _ = _solve_p2(cfg, lat, WeightField(cfg.dist, seed))
            report.add(eps, seed, "l2_norm", pc_l2_distance(u, zero, dom))
    return report


def run_homogenize(cfg: StudyConfig) -> StudyReport:
    report = _new_report(cfg)
    dom = _boxes(cfg)[0]
    eps_min = cfg.eps_list[-1]
    lat_ref = _lattice(cfg, eps_min)
    const_field = WeightField(Constant(1.0), 0)
    u_ref, _ = _solve_p2(cfg, lat_ref, const_field)
    zero_ref = GridFunction(lat_ref, np.zeros(lat_ref.n_sites))
    ref_norm = pc_l2_distance(u_ref, zero_ref, dom)
    report.add(eps_min, 0, "ref_norm", ref_norm)
    for eps in cfg.eps_list:
        if eps == eps_min:
            lat, u_const = lat_ref, u_ref
        else:
            lat = _lattice(cfg, eps)
            u_const, _ = _solve_p2(cfg, lat, const_field)
        report.add(eps, 0, "const_error", pc_l2_distance(u_const, u_ref, dom))
        errs = []
        for seed in cfg.seeds:
            u, _ = _solve_p2(cfg, lat, WeightField(cfg.dist, seed))
            e = pc_l2_distance(u, u_ref, dom)
            errs.append(e)
            report.add(eps, seed, "l2_error", e)
        report.add(eps, 0, "median_error", float(np.median(errs)))
        report.add(eps, 0, "spread", float(max(errs) - min(errs)))
    return report


def run_gamma_limit(cfg: StudyConfig, metric: str = "discrete_energy") -> StudyReport:
    report = _new_report(cfg)
    dom = _boxes(cfg)[0]
    u = tent_function(dom)
    bracket = continuum_energy(u, cfg.s, cfg.p, PowerP(cfg.p), dom, quad_n=cfg.quad_n)
    report.add(0.0, 0, "bracket_low", bracket.low)
    report.add(0.0, 0, "bracket_high", bracket.high)
    spec = EnergySpec(p=cfg.p, s=cfg.s, V=PowerP(cfg.p), flavor="local")
    for eps in cfg.eps_list:
        lat = _lattice(cfg, eps)
        uh = sample(u, lat)
        for seed in cfg.seeds:
            kernel = kernel_matrix(lat, WeightField(cfg.dist, seed), spec.s, spec.p, spec.flavor)
            report.add(eps, seed, metric, energy_value(spec, kernel, uh))
    return report


def run_vanish(cfg: StudyConfig) -> StudyReport:
    report = run_gamma_limit(cfg, metric="nonlocal_energy")
    # divergence contrast: Constant(1) c-weights give a log-growing S(R)
    const_field = WeightField(Constant(1.0), cfg.seeds[0])
    for r, sr in divergence_probe(const_field, cfg.p, cfg.s, cfg.radii, d=cfg.d):
        report.add(0.0, cfg.seeds[0], f"s_of_r_{r}", sr, aux="constant")
    return report


def run_spectral(cfg: StudyConfig) -> StudyReport:
    report = _new_report(cfg)
    epsd_inner = lambda lat, a, b: lat.eps**lat.dim * float(a @ b)

    def modes(lat, field):
        return spectrum(_system(cfg, lat, field), cfg.k_eigs)

    for eps in cfg.eps_list:
        lat = _lattice(cfg, eps)
        const = modes(lat, WeightField(Constant(1.0), 0))
        for k in range(cfg.k_eigs):
            report.add(eps, 0, f"mu_{k + 1}", const.eigenvalues[k], aux="constant")
        for seed in cfg.seeds:
            rep = modes(lat, WeightField(cfg.dist, seed))
            for k in range(cfg.k_eigs):
                mu, mu0 = rep.eigenvalues[k], const.eigenvalues[k]
                report.add(eps, seed, f"mu_{k + 1}", mu)
                report.add(eps, seed, f"gap_{k + 1}", abs(mu - mu0) / mu0)
                align = abs(epsd_inner(lat, rep.eigenvectors[k].values, const.eigenvectors[k].values))
                report.add(eps, seed, f"align_{k + 1}", align)
    return report


def _test_family(domain, lat):
    """Deterministic non-constant test functions: tents, a smooth bump, and
    fixed-seed multiscale combs, sampled on the lattice."""
    a, b = np.asarray(domain, dtype=float).reshape(2)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = lat.positions[:, 0]
    members = {}
    members["tent"] = np.maximum(0.0, 1.0 - np.abs(x - mid) / half)
    members["half_tent"] = np.maximum(0.0, 1.0 - np.abs(x - mid - half / 2) / (half / 2))
    t = np.clip((x - mid) / half, -1.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        members["bump"] = np.where(np.abs(t) < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - t * t)), 0.0)
    for comb_seed in (11, 12):
        rng = np.random.default_rng(comb_seed)
        vals = np.zeros_like(x)
        for level in range(3):
            n_teeth = 2 ** (level + 1)
            coeffs = rng.uniform(0.2, 1.0, size=n_teeth)
            width = half / n_teeth
            for i, cfc in enumerate(coeffs):
                center = a + (2 * i + 1) * width
                vals += cfc * np.maximum(0.0, 1.0 - np.abs(x - center) / width)
        members[f"comb{comb_seed}"] = vals
    return members


def run_embeddings(cfg: StudyConfig) -> StudyReport:
    report = _new_report(cfg)
    weighted = not isinstance(cfg.dist, Constant)
    # the plain ratio has no weights and is reported under seed 0
    seeds, prefix = (cfg.seeds, "wratio") if weighted else ((0,), "ratio")
    for eps in cfg.eps_list:
        lat = _lattice(cfg, eps)
        # one local kernel per seed, shared by every test function and q
        kernels = {seed: kernel_matrix(lat, WeightField(cfg.dist, seed), cfg.s, cfg.p, "local")
                   if weighted else None for seed in seeds}
        for name, vals in _test_family(cfg.domain, lat).items():
            u = GridFunction(lat, vals)
            # the denominator does not depend on q: one per test function and seed
            dens = {seed: embedding_denominator(lat, u, cfg.s, cfg.p, k) for seed, k in kernels.items()}
            for q in cfg.q_list:
                num = lq_norm(lat, u, q)
                for seed in seeds:
                    report.add(eps, seed, f"{prefix}_{name}_q{q:g}", num / dens[seed])
    return report


def run_ergodic(cfg: StudyConfig) -> StudyReport:
    report = _new_report(cfg)
    for seed in cfg.seeds:
        field = WeightField(cfg.dist, seed)
        est = empirical_moment(field, 1.0, cfg.box_side // 2, 1, d=cfg.d)
        report.add(0.0, seed, "box_average", est.mean, aux=f"stderr={est.stderr!r}")
        report.add(0.0, seed, "box_average_stderr", est.stderr)
        for r, sr in divergence_probe(field, cfg.p, cfg.s, cfg.radii, d=cfg.d):
            report.add(0.0, seed, f"s_of_r_{r}", sr)
    # locality probe: growth exponent of the truncated weighted sum in xi.
    # Fitting shell increments S(2 xi) - S(xi) instead of S itself removes the
    # lattice-cutoff offset (the sum starts at distance eps, not 0); a halo
    # wider than the domain keeps the shells complete near the boundary.
    xis = (0.125, 0.25, 0.5, 1.0)
    for alpha in cfg.alpha_list:
        for eps in cfg.eps_list:
            lat = _lattice(cfg, eps)
            for seed in cfg.seeds:
                field = WeightField(cfg.dist, seed)
                sums = [locality_scaling_sum(lat, field, alpha, xi) for xi in xis]
                incs = [sums[i + 1] - sums[i] for i in range(len(sums) - 1)]
                if min(incs) <= 0:
                    raise ConfigError(f"eps={eps:g} is too coarse for the locality probe: "
                                      f"a shell of xi = {xis} holds no pair")
                slope = float(np.polyfit(np.log(xis[:-1]), np.log(incs), 1)[0])
                report.add(eps, seed, f"locality_exponent_a{alpha:g}", slope)
    return report


_DRIVERS = {
    "solve": run_solve,
    "homogenize": run_homogenize,
    "gamma_limit": run_gamma_limit,
    "spectral": run_spectral,
    "embeddings": run_embeddings,
    "ergodic": run_ergodic,
    "vanish": run_vanish,
}


def _simd() -> list:
    """numpy's dispatched SIMD targets that it enables on this CPU; its ufuncs'
    bits, `exp` and `log` among them, can depend on them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def run_study(cfg: StudyConfig) -> StudyReport:
    t0 = time.monotonic()
    report = _DRIVERS[cfg.study](cfg)
    report.meta["wall_time"] = time.monotonic() - t0
    report.meta["env"] = {"python": platform.python_version(), "numpy": np.__version__,
                          "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                          "nproc": os.cpu_count(), "simd": _simd(), **blas_env()}
    return report

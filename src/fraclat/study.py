"""Experiment drivers, config parsing, and reporting.

Config files are flat UTF-8 ``key=value`` lines with dotted keys; unknown keys
are hard errors.  Reports are long-format rows (study, eps, seed, metric,
value, aux) written as CSV or JSON lines, with run metadata (config echo,
version, wall time) in a ``.meta.json`` sidecar so the data file itself is
byte-reproducible.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np

from . import __version__
from .energy import (
    EnergySpec,
    GridFunction,
    NoneTerm,
    PowerK,
    PowerP,
    embedding_ratio,
    energy_value,
    kernel_matrix,
)
from .errors import ConfigError
from .lattice import build_lattice
from .linear_ops import assemble, solve, spectrum
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

_DIST_KINDS = ("constant", "lognormal", "unit_power_law", "shifted_pareto", "decaying_product")


@dataclass(frozen=True)
class StudyConfig:
    study: str
    d: int = 1
    s: float = 0.5
    p: float = 2.0
    eps_list: tuple = (0.0625, 0.03125)
    domain: tuple = (-1.0, 1.0)
    halo: tuple = (-2.0, 2.0)
    dist: object = Constant(1.0)
    seeds: tuple = (1,)
    f_kind: str = "constant"
    f_value: float = 1.0
    g_kind: str = "none"
    g_alpha: float = 0.0
    g_k: float = 2.0
    constraint: str = "dirichlet0"
    flavor: str = "global"
    solver_tol: float = 1e-10
    solver_max_iter: int = 10_000
    u_kind: str = "tent"
    quad_n: int = 128
    k_eigs: int = 5
    radii: tuple = (10, 100, 1000)
    alpha_list: tuple = (0.5, 1.0)
    q_list: tuple = (2.0,)
    box_side: int = 64


_BOOL = {"true": True, "false": False}


def _floats(text: str) -> tuple:
    return tuple(float(t) for t in text.split(",") if t.strip())


def _ints(text: str) -> tuple:
    return tuple(int(t) for t in text.split(",") if t.strip())


def _parse_dist(kv: dict, prefix: str = "dist."):
    kind = kv.pop(prefix + "kind", "constant")
    if kind not in _DIST_KINDS:
        raise ConfigError(f"unknown {prefix}kind {kind!r}; expected one of {_DIST_KINDS}")
    norm = _BOOL.get(kv.pop(prefix + "normalize", "true"))
    if norm is None:
        raise ConfigError(f"{prefix}normalize must be true or false")
    if kind == "constant":
        return Constant(float(kv.pop(prefix + "value", "1.0")))
    if kind == "lognormal":
        return LogNormal(float(kv.pop(prefix + "sigma", "1.0")), normalize=norm)
    if kind == "unit_power_law":
        return UnitPowerLaw(float(kv.pop(prefix + "a", "4.0")), normalize=norm)
    if kind == "shifted_pareto":
        return ShiftedPareto(float(kv.pop(prefix + "a", "2.0")), normalize=norm)
    base = _parse_dist(kv, prefix + "base.")
    return DecayingProduct(base, float(kv.pop(prefix + "alpha", "3.0")))


def _serialize_dist(dist, prefix: str = "dist.") -> list:
    if isinstance(dist, Constant):
        return [f"{prefix}kind=constant", f"{prefix}value={dist.value!r}"]
    if isinstance(dist, LogNormal):
        return [f"{prefix}kind=lognormal", f"{prefix}sigma={dist.sigma!r}",
                f"{prefix}normalize={'true' if dist.normalize else 'false'}"]
    if isinstance(dist, UnitPowerLaw):
        return [f"{prefix}kind=unit_power_law", f"{prefix}a={dist.a!r}",
                f"{prefix}normalize={'true' if dist.normalize else 'false'}"]
    if isinstance(dist, ShiftedPareto):
        return [f"{prefix}kind=shifted_pareto", f"{prefix}a={dist.a!r}",
                f"{prefix}normalize={'true' if dist.normalize else 'false'}"]
    lines = [f"{prefix}kind=decaying_product", f"{prefix}alpha={dist.alpha!r}"]
    return lines + _serialize_dist(dist.base, prefix + "base.")


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

    try:
        study = kv.pop("study")
    except KeyError:
        raise ConfigError("missing required key 'study'") from None
    study = study.replace("-", "_")
    if study not in STUDIES:
        raise ConfigError(f"unknown study {study!r}; expected one of {STUDIES}")

    try:
        dist = _parse_dist(kv)
        cfg = StudyConfig(
            study=study,
            d=int(kv.pop("d", "1")),
            s=float(kv.pop("s", "0.5")),
            p=float(kv.pop("p", "2.0")),
            eps_list=_floats(kv.pop("eps_list", "0.0625,0.03125")),
            domain=_floats(kv.pop("domain", "-1,1")),
            halo=_floats(kv.pop("halo", "-2,2")),
            dist=dist,
            seeds=_ints(kv.pop("seeds", "1")),
            f_kind=kv.pop("f.kind", "constant"),
            f_value=float(kv.pop("f.value", "1.0")),
            g_kind=kv.pop("G.kind", "none"),
            g_alpha=float(kv.pop("G.alpha", "0.0")),
            g_k=float(kv.pop("G.k", "2.0")),
            constraint=kv.pop("constraint", "dirichlet0"),
            flavor=kv.pop("flavor", "global"),
            solver_tol=float(kv.pop("solver.tol", "1e-10")),
            solver_max_iter=int(kv.pop("solver.max_iter", "10000")),
            u_kind=kv.pop("u.kind", "tent"),
            quad_n=int(kv.pop("quad_n", "128")),
            k_eigs=int(kv.pop("k_eigs", "5")),
            radii=_ints(kv.pop("radii", "10,100,1000")),
            alpha_list=_floats(kv.pop("alpha", "0.5,1.0")),
            q_list=_floats(kv.pop("q_list", "2.0")),
            box_side=int(kv.pop("box_side", "64")),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    if kv:
        raise ConfigError(f"unknown config keys: {sorted(kv)}")
    _validate(cfg)
    return cfg


def _validate(cfg: StudyConfig) -> None:
    if not cfg.seeds:
        raise ConfigError("seeds must be nonempty")
    if list(cfg.eps_list) != sorted(set(cfg.eps_list), reverse=True):
        raise ConfigError("eps_list must be strictly decreasing")
    if len(cfg.domain) != 2 * cfg.d or len(cfg.halo) != 2 * cfg.d:
        raise ConfigError("domain and halo need 2 entries per dimension")
    if cfg.f_kind != "constant":
        raise ConfigError(f"unsupported f.kind {cfg.f_kind!r}")
    if cfg.g_kind not in ("none", "power"):
        raise ConfigError(f"unsupported G.kind {cfg.g_kind!r}")
    if cfg.u_kind != "tent":
        raise ConfigError(f"unsupported u.kind {cfg.u_kind!r}")
    if cfg.study in ("homogenize", "spectral", "embeddings") and not isinstance(cfg.dist, Constant):
        q_max = cfg.dist.q_max()
        if not check_assumption(cfg.p, cfg.s, cfg.d, q_max).satisfied:
            raise ConfigError(
                f"moment assumption fails for p={cfg.p}, s={cfg.s}, d={cfg.d}, q_max={q_max}"
            )


def serialize_config(cfg: StudyConfig) -> str:
    lines = [
        f"study={cfg.study}",
        f"d={cfg.d}",
        f"s={cfg.s!r}",
        f"p={cfg.p!r}",
        "eps_list=" + ",".join(repr(e) for e in cfg.eps_list),
        "domain=" + ",".join(repr(v) for v in cfg.domain),
        "halo=" + ",".join(repr(v) for v in cfg.halo),
        *_serialize_dist(cfg.dist),
        "seeds=" + ",".join(str(sd) for sd in cfg.seeds),
        f"f.kind={cfg.f_kind}",
        f"f.value={cfg.f_value!r}",
        f"G.kind={cfg.g_kind}",
        f"G.alpha={cfg.g_alpha!r}",
        f"G.k={cfg.g_k!r}",
        f"constraint={cfg.constraint}",
        f"flavor={cfg.flavor}",
        f"solver.tol={cfg.solver_tol!r}",
        f"solver.max_iter={cfg.solver_max_iter}",
        f"u.kind={cfg.u_kind}",
        f"quad_n={cfg.quad_n}",
        f"k_eigs={cfg.k_eigs}",
        "radii=" + ",".join(str(r) for r in cfg.radii),
        "alpha=" + ",".join(repr(a) for a in cfg.alpha_list),
        "q_list=" + ",".join(repr(q) for q in cfg.q_list),
        f"box_side={cfg.box_side}",
    ]
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
            raise ValueError(f"non-finite metric {metric}={value}")
        self.rows.append((float(eps), int(seed), metric, float(value), aux))

    def to_csv(self) -> str:
        out = ["study,eps,seed,metric,value,aux"]
        for eps, seed, metric, value, aux in self.rows:
            out.append(f"{self.study},{eps!r},{seed},{metric},{value!r},{aux}")
        return "\n".join(out) + "\n"

    def to_jsonl(self) -> str:
        out = []
        for eps, seed, metric, value, aux in self.rows:
            out.append(
                json.dumps(
                    {"study": self.study, "eps": eps, "seed": seed, "metric": metric,
                     "value": value, "aux": aux},
                    sort_keys=True,
                )
            )
        return "\n".join(out) + "\n"

    def values(self, metric: str, eps: Optional[float] = None) -> list:
        return [
            v
            for e, sd, m, v, _ in self.rows
            if m == metric and (eps is None or e == eps)
        ]


def write_report(report: StudyReport, path: str, fmt: str = "csv") -> None:
    data = report.to_csv() if fmt == "csv" else report.to_jsonl()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(report.meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _boxes(cfg: StudyConfig):
    d = cfg.d
    return (
        np.asarray(cfg.domain, dtype=float).reshape(d, 2),
        np.asarray(cfg.halo, dtype=float).reshape(d, 2),
    )


def _lattice(cfg: StudyConfig, eps: float):
    dom, halo = _boxes(cfg)
    return build_lattice(cfg.d, eps, dom, halo)


def _forcing(cfg: StudyConfig, lat) -> GridFunction:
    return GridFunction(lat, np.full(lat.n_sites, cfg.f_value))


def _zero_order(cfg: StudyConfig):
    return NoneTerm() if cfg.g_kind == "none" else PowerK(cfg.g_alpha, cfg.g_k)


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
        smoothness="lipschitz",
        lipschitz_const=1.0 / half,
    )


def _kernel_p2(cfg: StudyConfig, lat, field: WeightField):
    return kernel_matrix(lat, field, cfg.s, 2.0, cfg.flavor)


def _solve_p2(cfg: StudyConfig, lat, kernel):
    system = assemble(lat, kernel, cfg.constraint, _forcing(cfg, lat))
    return solve(system, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)


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
    spec_tpl = dict(p=cfg.p, s=cfg.s, V=PowerP(cfg.p), G=_zero_order(cfg),
                    flavor=cfg.flavor, constraint=cfg.constraint)
    for eps in cfg.eps_list:
        lat = _lattice(cfg, eps)
        for seed in cfg.seeds:
            field = WeightField(cfg.dist, seed)
            kernel = _kernel_p2(cfg, lat, field)
            u, stats = _solve_p2(cfg, lat, kernel)
            if cfg.p != 2.0:  # the energy row needs the kernel of p
                kernel = kernel_matrix(lat, field, cfg.s, cfg.p, cfg.flavor)
            spec = EnergySpec(f=_forcing(cfg, lat), **spec_tpl)
            report.add(eps, seed, "energy", energy_value(spec, kernel, u))
            report.add(eps, seed, "iters", stats.iters)
            report.add(eps, seed, "residual", stats.residual)
            report.add(eps, seed, "l2_norm", pc_l2_distance(u, GridFunction(lat, np.zeros(lat.n_sites)), _boxes(cfg)[0]))
    return report


def run_homogenize(cfg: StudyConfig) -> StudyReport:
    report = _new_report(cfg)
    dom = _boxes(cfg)[0]
    eps_min = cfg.eps_list[-1]
    lat_ref = _lattice(cfg, eps_min)
    const_field = WeightField(Constant(1.0), 0)
    u_ref, _ = _solve_p2(cfg, lat_ref, _kernel_p2(cfg, lat_ref, const_field))
    zero_ref = GridFunction(lat_ref, np.zeros(lat_ref.n_sites))
    ref_norm = pc_l2_distance(u_ref, zero_ref, dom)
    report.add(eps_min, 0, "ref_norm", ref_norm)
    for eps in cfg.eps_list:
        if eps == eps_min:
            lat, u_const = lat_ref, u_ref
        else:
            lat = _lattice(cfg, eps)
            u_const, _ = _solve_p2(cfg, lat, _kernel_p2(cfg, lat, const_field))
        report.add(eps, 0, "const_error", pc_l2_distance(u_const, u_ref, dom))
        errs = []
        for seed in cfg.seeds:
            u, _ = _solve_p2(cfg, lat, _kernel_p2(cfg, lat, WeightField(cfg.dist, seed)))
            e = pc_l2_distance(u, u_ref, dom)
            errs.append(e)
            report.add(eps, seed, "l2_error", e)
        report.add(eps, 0, "median_error", float(np.median(errs)))
        report.add(eps, 0, "spread", float(max(errs) - min(errs)))
    return report


def run_gamma_limit(cfg: StudyConfig, u: Optional[ContinuumFunction] = None) -> StudyReport:
    report = _new_report(cfg)
    dom = _boxes(cfg)[0]
    if u is None:
        u = tent_function(dom)
    bracket = continuum_energy(u, cfg.s, cfg.p, PowerP(cfg.p), dom, quad_n=cfg.quad_n)
    report.add(0.0, 0, "bracket_low", bracket.low)
    report.add(0.0, 0, "bracket_high", bracket.high)
    spec_tpl = dict(p=cfg.p, s=cfg.s, V=PowerP(cfg.p), G=NoneTerm(), f=None,
                    flavor="local", constraint="none")
    for eps in cfg.eps_list:
        lat = _lattice(cfg, eps)
        uh = sample(u, lat)
        spec = EnergySpec(**spec_tpl)
        for seed in cfg.seeds:
            kernel = kernel_matrix(lat, WeightField(cfg.dist, seed), spec.s, spec.p, spec.flavor)
            report.add(eps, seed, "discrete_energy", energy_value(spec, kernel, uh))
    return report


def run_vanish(cfg: StudyConfig) -> StudyReport:
    report = run_gamma_limit(cfg)
    report.study = cfg.study
    report.rows = [
        (eps, seed, "nonlocal_energy" if metric == "discrete_energy" else metric, value, aux)
        for eps, seed, metric, value, aux in report.rows
    ]
    # divergence contrast: Constant(1) c-weights give a log-growing S(R)
    const_field = WeightField(Constant(1.0), cfg.seeds[0])
    for r, sr in divergence_probe(const_field, cfg.p, cfg.s, cfg.radii, d=cfg.d):
        report.add(0.0, cfg.seeds[0], f"s_of_r_{r}", sr, aux="constant")
    return report


def run_spectral(cfg: StudyConfig) -> StudyReport:
    report = _new_report(cfg)
    epsd_inner = lambda lat, a, b: lat.eps**lat.dim * float(a @ b)

    def modes(lat, field):
        system = assemble(lat, _kernel_p2(cfg, lat, field), "dirichlet0", _forcing(cfg, lat))
        return spectrum(system, cfg.k_eigs)

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
    for eps in cfg.eps_list:
        lat = _lattice(cfg, eps)
        # one local kernel per seed, shared by every test function and q
        kernels = {seed: kernel_matrix(lat, WeightField(cfg.dist, seed), cfg.s, cfg.p, "local")
                   for seed in cfg.seeds} if weighted else {}
        for name, vals in _test_family(cfg.domain, lat).items():
            u = GridFunction(lat, vals)
            for q in cfg.q_list:
                if weighted:
                    for seed in cfg.seeds:
                        r = embedding_ratio(lat, u, cfg.s, cfg.p, q, weighted=kernels[seed])
                        report.add(eps, seed, f"wratio_{name}_q{q:g}", r)
                else:
                    r = embedding_ratio(lat, u, cfg.s, cfg.p, q)
                    report.add(eps, 0, f"ratio_{name}_q{q:g}", r)
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


def run_study(cfg: StudyConfig) -> StudyReport:
    t0 = time.monotonic()
    report = _DRIVERS[cfg.study](cfg)
    report.meta["wall_time"] = time.monotonic() - t0
    return report

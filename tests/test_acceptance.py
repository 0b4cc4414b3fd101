"""End-to-end acceptance gate.

Each test exercises one headline guarantee at desk scale and emits a single
PASS/FAIL line on the real stdout (bypassing capture) so the verdicts are
visible in any run mode.
"""

import numpy as np
import pytest

from fraclat import build_lattice
from fraclat.energy import (
    EnergySpec,
    GridFunction,
    PowerK,
    PowerP,
    SmoothedPowerP,
    energy_gradient,
    energy_value,
    gagliardo_seminorm,
    kernel_matrix,
    weighted_seminorm,
)
from fraclat.linear_ops import assemble, solve, spectrum
from fraclat.minimize import project_constraint
from fraclat.study import parse_config, run_study
from fraclat.transfer import average
from fraclat.weights import Constant, LogNormal, WeightField

EULER_GAMMA = 0.5772156649015329


@pytest.fixture
def verdict(capfd):
    """One PASS/FAIL line per criterion, written past pytest's fd capture."""

    def _verdict(tag: str, ok: bool, detail: str = "") -> None:
        line = f"{tag} {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else "")
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def _median_by_eps(report, metric: str, eps_list):
    return [float(np.median(report.values(metric, eps))) for eps in eps_list]


EPS5 = (0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625)  # 2^-4 .. 2^-8


def test_a1_micro_oracles(verdict):
    ok, notes = True, []
    lat3 = build_lattice(1, 0.5, [(-0.6, 0.6)], [(-0.6, 0.6)])
    field = WeightField(Constant(1.0), 0)
    spec = EnergySpec(p=2, s=0.5, V=PowerP(2))
    u = GridFunction(lat3, [0.0, 1.0, 0.0])
    kernel = kernel_matrix(lat3, field, spec.s, spec.p, spec.flavor)
    checks = [("energy", energy_value(spec, kernel, u), 4.0)]
    # the gradient is -4 eps^d L u for the three-site operator L u = (2, -4, 2)
    grad = energy_gradient(spec, kernel, u).values
    checks += [(f"gradient[{i}]", grad[i], t) for i, t in enumerate((-4.0, 8.0, -4.0))]
    lat5 = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    f = GridFunction(lat5, np.ones(lat5.n_sites))
    system = assemble(lat5, field, 0.5, "global", f)
    checks.append(("A", system.matrix[0, 0], 5.0))
    u5, _ = solve(system)
    checks.append(("u0", u5.values[lat5.interior_ids[0]], 0.1))
    checks.append(("mu1", spectrum(system, 1).eigenvalues[0], 0.1))
    for name, got, want in checks:
        if abs(got - want) > 1e-12 * abs(want):
            ok = False
            notes.append(f"{name}: {got} != {want}")
    verdict("A1 exactness micro-oracles", ok, "; ".join(notes) or "all to 1e-12 rel")


def test_a2_homogenization(verdict):
    cfg = parse_config(
        "study=homogenize\ns=0.5\np=2\n"
        "eps_list=" + ",".join(repr(e) for e in EPS5) + "\n"
        "domain=-1,1\nhalo=-2,2\ndist.kind=lognormal\ndist.sigma=1.0\nseeds=1,2,3\n"
    )
    rep = run_study(cfg)
    med = _median_by_eps(rep, "median_error", EPS5)
    ref = rep.values("ref_norm")[0]
    spread = rep.values("spread", EPS5[-1])[0]
    decreasing = med[-4] > med[-3] > med[-2] > med[-1]
    small = med[-1] < 0.05 * ref
    tight = spread < 2 * med[-1]
    verdict(
        "A2 homogenization",
        decreasing and small and tight,
        f"medians={['%.4g' % m for m in med]}, ref={ref:.4g}, spread={spread:.4g}",
    )


def test_a3_gamma_limit(verdict):
    cfg = parse_config(
        "study=gamma_limit\ns=0.5\np=2\nquad_n=1024\n"
        "eps_list=" + ",".join(repr(e) for e in EPS5) + "\n"
        "domain=-1,1\nhalo=-1,1\ndist.kind=lognormal\ndist.sigma=1.0\nseeds=1,2,3\n"
    )
    rep = run_study(cfg)
    lo, hi = rep.values("bracket_low")[0], rep.values("bracket_high")[0]
    mid = 0.5 * (lo + hi)
    disc = _median_by_eps(rep, "discrete_energy", EPS5)
    inside = 0.95 * lo <= disc[-1] <= 1.05 * hi
    gaps = [abs(d - mid) for d in disc]
    shrinking = gaps[-3] > gaps[-2] > gaps[-1]
    verdict(
        "A3 limit energy bracket",
        inside and shrinking,
        f"bracket=[{lo:.4f},{hi:.4f}], discrete={['%.4f' % d for d in disc]}",
    )


def test_a4_embedding_uniformity(verdict):
    # unweighted: s=0.25 keeps the critical exponent finite (p*=4), q in {p, (p+p*)/2}
    eps_str = ",".join(repr(e) for e in EPS5)
    plain = run_study(parse_config(
        f"study=embeddings\ns=0.25\np=2\neps_list={eps_str}\n"
        "domain=-1,1\nhalo=-2,2\nq_list=2,3\n"
    ))
    ratios = {}
    for eps, seed, metric, value, _ in plain.rows:
        ratios.setdefault(metric, []).append(value)
    worst_plain = max(max(v) / min(v) for v in ratios.values())
    weighted = run_study(parse_config(
        f"study=embeddings\ns=0.5\np=2\neps_list={eps_str}\n"
        "domain=-1,1\nhalo=-2,2\nq_list=2\n"
        "dist.kind=unit_power_law\ndist.a=4.0\nseeds=1,2,3\n"
    ))
    wratios = {}
    for eps, seed, metric, value, _ in weighted.rows:
        wratios.setdefault((metric, seed), []).append(value)
    worst_weighted = max(max(v) / min(v) for v in wratios.values())
    verdict(
        "A4 embedding-ratio uniformity",
        worst_plain < 2.0 and worst_weighted < 2.0,
        f"max/min plain={worst_plain:.3f}, weighted={worst_weighted:.3f}",
    )


def test_a5_spectral_homogenization(verdict):
    eps4 = EPS5[:4]
    cfg = parse_config(
        "study=spectral\ns=0.5\np=2\nk_eigs=5\n"
        "eps_list=" + ",".join(repr(e) for e in eps4) + "\n"
        "domain=-1,1\nhalo=-2,2\ndist.kind=lognormal\ndist.sigma=1.0\nseeds=1,2,3\n"
    )
    rep = run_study(cfg)
    ok, notes = True, []
    for k in range(1, 6):
        gaps = _median_by_eps(rep, f"gap_{k}", eps4)
        if not all(a > b for a, b in zip(gaps, gaps[1:])):
            ok, _ = False, notes.append(f"gap_{k} not decreasing: {gaps}")
        if gaps[-1] >= 0.05:
            ok, _ = False, notes.append(f"gap_{k} final {gaps[-1]:.4f} >= 0.05")
        aligns = rep.values(f"align_{k}", eps4[-1])
        if min(aligns) <= 0.95:
            ok, _ = False, notes.append(f"align_{k} min {min(aligns):.4f} <= 0.95")
    verdict("A5 spectral homogenization", ok, "; ".join(notes) or
             "per-mode median gaps decrease, < 0.05 at finest eps; alignments > 0.95")


def test_a6_vanishing_nonlocality(verdict):
    cfg = parse_config(
        "study=vanish\ns=0.5\np=2\nradii=10,100,1000\n"
        "eps_list=" + ",".join(repr(e) for e in EPS5) + "\n"
        "domain=-1,1\nhalo=-1,1\nseeds=1,2,3\n"
        "dist.kind=decaying_product\ndist.alpha=3.0\n"
        "dist.base.kind=lognormal\ndist.base.sigma=0.5\n"
    )
    rep = run_study(cfg)
    e = _median_by_eps(rep, "nonlocal_energy", EPS5)
    vanishes = e[-1] < 0.10 * e[0]
    monotone = all(b <= 1.05 * a for a, b in zip(e, e[1:]))
    s1000 = rep.values("s_of_r_1000")[0]
    target = 2.0 * (np.log(1000.0) + EULER_GAMMA)
    log_growth = abs(s1000 - target) <= 0.05 * target
    verdict(
        "A6 vanishing nonlocality",
        vanishes and monotone and log_growth,
        f"energies={['%.4g' % x for x in e]}, S(1000)={s1000:.4f} vs {target:.4f}",
    )


def test_a7_ergodic_diagnostics(verdict):
    cfg = parse_config(
        "study=ergodic\nbox_side=64\nalpha=0.5,1.0\nradii=10,100\n"
        "eps_list=0.03125,0.015625,0.0078125\n"
        "domain=-1,1\nhalo=-2,2\ndist.kind=lognormal\ndist.sigma=1.0\nseeds=1,2,3\n"
    )
    rep = run_study(cfg)
    ok, notes = True, []
    for seed in (1, 2, 3):
        mean = [v for e, sd, m, v, _ in rep.rows if m == "box_average" and sd == seed][0]
        err = [v for e, sd, m, v, _ in rep.rows if m == "box_average_stderr" and sd == seed][0]
        if abs(mean - 1.0) > 3 * err:
            ok, _ = False, notes.append(f"seed {seed}: mean {mean:.4f} +- {err:.4f}")
    for alpha in (0.5, 1.0):
        fits = rep.values(f"locality_exponent_a{alpha:g}")
        med = float(np.median(fits))
        if abs(med - alpha) > 0.15 * alpha:
            ok, _ = False, notes.append(f"alpha={alpha}: fit median {med:.4f}")
        notes.append(f"a{alpha:g} fit={med:.3f}")
    verdict("A7 ergodic diagnostics", ok, "; ".join(notes))


def test_a8_structural_invariants(verdict):
    ok, notes = True, []
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.8), 17)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=lat.n_sites)
    spec = EnergySpec(p=3.0, s=0.5, V=SmoothedPowerP(3.0, 1e-4), G=PowerK(0.5, 2.0),
                      f=GridFunction(lat, rng.normal(size=lat.n_sites)))
    u = GridFunction(lat, vals)
    kernel = kernel_matrix(lat, field, spec.s, spec.p, spec.flavor)
    g = energy_gradient(spec, kernel, u).values
    h = 1e-6 * (1 + np.abs(vals).max())
    for i in (0, lat.n_sites // 2, lat.n_sites - 1):
        up, dn = vals.copy(), vals.copy()
        up[i] += h
        dn[i] -= h
        fd = (energy_value(spec, kernel, GridFunction(lat, up))
              - energy_value(spec, kernel, GridFunction(lat, dn))) / (2 * h)
        if abs(g[i] - fd) > 1e-5 * abs(fd):
            ok, _ = False, notes.append(f"grad/fd at {i}")

    f1 = GridFunction(lat, np.ones(lat.n_sites))
    local = kernel_matrix(lat, field, 0.5, 2.0, "local")
    system = assemble(lat, field, 0.5, "local", f1)
    x = rng.normal(size=system.matrix.shape[0])
    full = np.zeros(lat.n_sites)
    full[system.free_ids] = x
    quad = float(x @ system.matrix @ x)
    semi = weighted_seminorm(local, GridFunction(lat, full), 2) ** 2
    if abs(quad - semi) > 1e-12 * abs(semi):
        ok, _ = False, notes.append("quadratic form")

    # duality of the piecewise-constant embedding and the cell-average restriction
    from numpy.polynomial.legendre import leggauss

    from fraclat.transfer import ContinuumFunction

    v = GridFunction(lat, rng.normal(size=lat.n_sites))
    cf = ContinuumFunction(evaluate=lambda p: np.sin(2.0 * p[:, 0]) + p[:, 0] ** 3, dim=1)
    rhs = lat.eps * float(v.values @ average(cf, lat).values)
    xg, wg = leggauss(12)
    lhs = sum(
        (lat.eps / 2) * float(wg @ cf((pos + (lat.eps / 2) * xg).reshape(-1, 1))) * val
        for pos, val in zip(lat.positions[:, 0], v.values)
    )
    if abs(lhs - rhs) > 1e-10:
        ok, _ = False, notes.append("duality")

    for constraint in ("dirichlet0", "none"):
        once = project_constraint(u, constraint)
        twice = project_constraint(once, constraint)
        if not np.allclose(once.values, twice.values, rtol=0, atol=1e-13):
            ok, _ = False, notes.append(f"idempotence {constraint}")

    lam = 1.7
    base = gagliardo_seminorm(lat, u, 0.5, 2)
    scaled = gagliardo_seminorm(lat, GridFunction(lat, lam * vals), 0.5, 2)
    if abs(scaled - lam * base) > 1e-10 * base:
        ok, _ = False, notes.append("homogeneity in u")
    one = weighted_seminorm(kernel_matrix(lat, WeightField(Constant(1.0), 0), 0.5, 2, "local"), u, 2)
    four = weighted_seminorm(kernel_matrix(lat, WeightField(Constant(4.0), 0), 0.5, 2, "local"), u, 2)
    if abs(four - 2.0 * one) > 1e-12 * one:
        ok, _ = False, notes.append("homogeneity in c")

    cfg = parse_config("study=solve\neps_list=0.125\nhalo=-1,1\n"
                       "dist.kind=lognormal\ndist.sigma=1.0\nseeds=1,2\n")
    # two runs in one process: no state may carry over from the first
    outputs = [run_study(cfg).to_csv().encode() for _ in range(2)]
    if outputs[0] != outputs[1]:
        ok, _ = False, notes.append("run determinism")

    verdict("A8 structural invariants", ok, "; ".join(notes) or
             "gradient/FD, quadratic form, duality, idempotence, homogeneity, determinism")

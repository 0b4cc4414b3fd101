import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import _flapack

import fraclat
from fraclat import build_lattice
from fraclat.energy import (
    CustomPotential,
    EnergySpec,
    GridFunction,
    energy_value,
    kernel_matrix,
    weighted_seminorm,
)
from fraclat.errors import NumericalError
from fraclat.linear_ops import (
    _DSYEVR,
    _NB,
    BilinearSystem,
    SolveStats,
    _cholesky_start,
    _one_blas_thread,
    _openblas,
    assemble,
    cg,
    solve,
    spectrum,
)
from fraclat.study import _lattice, _system, parse_config
from fraclat.weights import Constant, LogNormal, WeightField

# the p=2 functional whose stationarity is the assembled weak form A u = b
HALF_QUADRATIC = CustomPotential(evaluate=lambda t: 0.5 * t * t, deriv=lambda t: t)


@pytest.fixture
def lat5():
    return build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])


@pytest.fixture
def const_field():
    return WeightField(Constant(1.0), 0)


def _ones(lat):
    return GridFunction(lat, np.ones(lat.n_sites))


def _kernel(lat, field, flavor="global"):
    return kernel_matrix(lat, field, 0.5, 2.0, flavor)


def test_assemble_one_by_one(lat5, const_field):
    system = assemble(lat5, const_field, 0.5, "global", _ones(lat5))
    assert system.matrix.shape == (1, 1)
    assert system.matrix[0, 0] == pytest.approx(5.0, rel=1e-12)
    assert system.rhs[0] == pytest.approx(0.5, rel=1e-12)


def test_assemble_symmetry_and_psd():
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(1.0), 3)
    system = assemble(lat, field, 0.5, "global", _ones(lat))
    a = system.matrix
    assert np.array_equal(a, a.T)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.normal(size=a.shape[0])
        assert v @ a @ v >= 0


def test_quadratic_form_identity():
    # u^T A u == weighted_seminorm^2 on the same index range, to 1e-12 relative
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.8), 5)
    system = assemble(lat, field, 0.5, "local", _ones(lat))
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = rng.normal(size=system.matrix.shape[0])
        full = np.zeros(lat.n_sites)
        full[system.free_ids] = x
        u = GridFunction(lat, full)
        quad = float(x @ system.matrix @ x)
        semi = weighted_seminorm(_kernel(lat, field, "local"), u, 2) ** 2
        assert quad == pytest.approx(semi, rel=1e-12)


def test_solve_one_by_one(lat5, const_field):
    system = assemble(lat5, const_field, 0.5, "global", _ones(lat5))
    u, stats = solve(system)
    center = lat5.interior_ids[0]
    assert u.values[center] == pytest.approx(0.1, rel=1e-12)


def test_solve_zero_rhs(lat5, const_field):
    f = GridFunction(lat5, np.zeros(lat5.n_sites))
    system = assemble(lat5, const_field, 0.5, "global", f)
    u, stats = solve(system)
    assert stats.iters == 0
    assert np.all(u.values == 0.0)


def test_cg_matches_dense_direct():
    lat = build_lattice(1, 0.0625, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(1.0), 7)
    system = assemble(lat, field, 0.5, "global", _ones(lat))
    u, stats = solve(system, tol=1e-12)
    direct = scipy.linalg.solve(system.matrix, system.rhs, assume_a="pos")
    assert np.abs(u.values[system.free_ids] - direct).max() <= 10 * 1e-12 * np.abs(direct).max()


def test_solve_nonconvergence_raises(const_field):
    # five free sites: one CG step leaves a residual (lat5's one free site is
    # solved exactly by its one step, which max_iter=1 allows)
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    system = assemble(lat, const_field, 0.5, "global", _ones(lat))
    with pytest.raises(NumericalError, match="in 1 iterations"):
        solve(system, tol=1e-30, max_iter=1)


def test_cg_converges_on_its_last_allowed_step():
    # one free site: CG from 0 reaches a residual of 1.1e-16 in one step,
    # which max_iter=1 allows
    cfg = parse_config("study=solve\neps_list=0.5\nhalo=-1.5,1.5\n")
    system = _system(cfg, _lattice(cfg, 0.5), WeightField(cfg.dist, 1))
    assert len(system.free_ids) == 1
    assert cg(system, cfg.solver_tol, max_iter=1)[1] == SolveStats(iters=1, residual=1.1102230246251565e-16)


# prints the iteration count and the bits of CG's x from 0 on the first
# system of the config argv[1]
_CG_FROM_ZERO = """
import sys
from fraclat.linear_ops import cg
from fraclat.study import _lattice, _system, parse_config
from fraclat.weights import WeightField
cfg = parse_config(sys.argv[1])
u, stats = cg(_system(cfg, _lattice(cfg, cfg.eps_list[0]), WeightField(cfg.dist, cfg.seeds[0])))
print(stats.iters, u.values.tobytes().hex())
"""


def test_cg_from_zero_bytes_do_not_depend_on_the_blas_thread_count():
    # 1021 free sites: A has more entries than the 460,800 from which
    # OpenBLAS 0.3.31 threads a matrix-vector product (measured on a 2-vCPU
    # machine), so CG products left to two threads would sum in another order
    # than on one, and x's bits would move; each run is a fresh interpreter,
    # whose OpenBLAS starts at that thread count
    text = "study=solve\neps_list=0.001953125\nhalo=-1.25,1.25\ndist.kind=lognormal\ndist.sigma=1.0\n"
    cfg = parse_config(text)
    m = len(_lattice(cfg, cfg.eps_list[0]).interior_ids)
    assert m == 1021 and m * m > 460_800
    src = pathlib.Path(fraclat.__file__).parents[1]
    outs = [subprocess.run([sys.executable, "-c", _CG_FROM_ZERO, text], capture_output=True, text=True, check=True,
                           env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
    assert int(outs[0].split()[0]) > 0
    assert outs[0] == outs[1]


@pytest.mark.parametrize("sign", [-1.0, 0.0], ids=["negative_definite", "zero"])
def test_solve_rejects_a_form_that_is_not_positive(const_field, sign):
    # the first step meets p^T A p <= 0, where CG used to divide by it
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    system = assemble(lat, const_field, 0.5, "global", _ones(lat))
    system.matrix[...] *= sign
    with pytest.raises(NumericalError, match="at iteration 0"):
        solve(system)


def test_solve_stops_at_the_first_nonfinite_residual():
    # a valid constant weight so small that p^T A p = 1.4e-321: the first
    # step size overflows to inf, and CG used to run all 10,000 iterations on NaN
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    system = assemble(lat, WeightField(Constant(1e-320), 0), 0.5, "global", _ones(lat))
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="residual is inf at iteration 1$"):
        solve(system)


# the systems of the seed-0 homogenize-d1 benchmark workload (LogNormal(1)
# fields 1-3 and the constant field, halo [-2, 2]) at eps 1/16 .. 1/256
_HOMOGENIZE_D1 = parse_config("study=homogenize\neps_list=0.0625,0.03125,0.015625,0.0078125,0.00390625\n"
                              "halo=-2,2\ndist.kind=lognormal\ndist.sigma=1.0\nseeds=1,2,3\n")


def _homogenize_d1_systems():
    cfg = _HOMOGENIZE_D1
    for eps in cfg.eps_list:
        lat = _lattice(cfg, eps)
        for field in [WeightField(Constant(1.0), 0)] + [WeightField(cfg.dist, seed) for seed in cfg.seeds]:
            yield _system(cfg, lat, field)


def test_solve_agrees_with_cg_within_cond_times_tol():
    # both solutions have a relative residual of at most tol, so each lies
    # within cond(A) tol of the exact one
    tol = 1e-10
    sizes = []
    for system in _homogenize_d1_systems():
        lam = np.linalg.eigvalsh(system.matrix)
        u, stats = solve(system, tol=tol)
        u_cg, stats_cg = cg(system, tol=tol)
        x, x_cg = u.values[system.free_ids], u_cg.values[system.free_ids]
        assert stats.iters == 0 and stats.residual <= tol and stats_cg.residual <= tol
        assert np.linalg.norm(x - x_cg) <= 2 * (lam[-1] / lam[0]) * tol * np.linalg.norm(x_cg)
        sizes.append(len(system.free_ids))
    assert max(sizes) == 509 and len(sizes) == 20


# one dpotf2 call (1, nb - 1, nb), a full panel and a one-column last one,
# two full panels and a one-column third, and 16 panels, the last 29 wide
_START_SIZES = [1, _NB - 1, _NB, _NB + 1, 2 * _NB + 1, 509]


def _leading_system(m):
    """The system of A's leading m x m block, which is positive definite as A is."""
    system = _system_m509()
    return BilinearSystem(system.lattice, system.free_ids[:m], system.matrix[:m, :m].copy(), system.rhs[:m].copy())


@pytest.mark.parametrize("m", _START_SIZES)
def test_cholesky_start_agrees_with_a_dense_solve(m):
    # both are backward stable, so each lies within cond(A) times a rounding
    # error of the exact solution; tol is `solve`'s default
    tol = 1e-10
    system = _leading_system(m)
    lam = np.linalg.eigvalsh(system.matrix)
    direct = np.linalg.solve(system.matrix, system.rhs)
    x = _cholesky_start(system)
    assert np.linalg.norm(x - direct) <= 2 * (lam[-1] / lam[0]) * tol * np.linalg.norm(direct)


@pytest.mark.parametrize("m", [m for m in _START_SIZES if m <= _NB])
def test_cholesky_start_within_one_panel_is_one_dpotf2_call(m, monkeypatch):
    blocked = _cholesky_start(_leading_system(m))
    monkeypatch.setattr("fraclat.linear_ops._NB", 10**9)
    assert blocked.tobytes() == _cholesky_start(_leading_system(m)).tobytes()


def _outcome(run, system):
    """("raises", message) or ("solves", bits of u, stats) of `run(system)`."""
    try:
        u, stats = run(system)
    except NumericalError as exc:
        return "raises", str(exc)
    return "solves", u.values.tobytes(), stats


@pytest.mark.parametrize("pivot", [None, -1, _NB + 5], ids=["factored", "last_pivot_negative", "middle_pivot_negative"])
def test_solve_leaves_the_matrix_as_it_came_in(pivot):
    # the factor overwrites one triangle and the diagonal of A; with a diagonal
    # entry negated it writes every panel before that entry's, with their
    # dtrsm and dsyrk updates, and then finds A not positive definite, so
    # `solve` is CG from 0, which meets p^T A p < 0 here
    system = _system_m509()
    if pivot is not None:
        system.matrix[pivot, pivot] *= -1
    before = system.matrix.tobytes()
    outcome = _outcome(solve, system)
    assert system.matrix.tobytes() == before
    if pivot is None:
        assert outcome[0] == "solves"
    else:
        assert outcome[0] == "raises" and "p^T A p = -" in outcome[1]
        assert outcome == _outcome(cg, system)


@pytest.mark.parametrize("symbol", ["_DPOTF2", "_DTRSM", "_DSYRK", "_DTRSV"])
def test_solve_without_a_cholesky_routine_is_cg_from_zero(symbol, monkeypatch):
    monkeypatch.setattr(f"fraclat.linear_ops.{symbol}", "no_such_routine")
    system = _system_m509()
    u, stats = solve(system)
    u_cg, stats_cg = cg(system)
    assert stats.iters == stats_cg.iters > 0 and stats.residual == stats_cg.residual
    assert u.values.tobytes() == u_cg.values.tobytes()


def test_spectrum_one_by_one(lat5, const_field):
    system = assemble(lat5, const_field, 0.5, "global", _ones(lat5))
    rep = spectrum(system, 1)
    assert rep.eigenvalues[0] == pytest.approx(0.1, rel=1e-12)


def test_spectrum_positive_decreasing_orthonormal():
    lat = build_lattice(1, 0.0625, [(-1, 1)], [(-1, 1)])
    field = WeightField(Constant(1.0), 0)
    system = assemble(lat, field, 0.5, "global", _ones(lat))
    rep = spectrum(system, 6)
    mu = rep.eigenvalues
    assert np.all(mu > 0)
    assert np.all(np.diff(mu) < 0)
    epsd = lat.eps**lat.dim
    for j in range(6):
        for k in range(j, 6):
            inner = epsd * float(rep.eigenvectors[j].values @ rep.eigenvectors[k].values)
            assert inner == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)
        nz = np.flatnonzero(rep.eigenvectors[j].values)
        assert rep.eigenvectors[j].values[nz[0]] > 0


def test_spectrum_homogeneity_in_c():
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    f = _ones(lat)
    rep1 = spectrum(assemble(lat, WeightField(Constant(1.0), 0), 0.5, "global", f), 4)
    rep2 = spectrum(assemble(lat, WeightField(Constant(2.0), 0), 0.5, "global", f), 4)
    assert np.allclose(rep2.eigenvalues, 0.5 * rep1.eigenvalues, rtol=1e-12)


def test_weak_form_consistency():
    # v^T A u equals the directional derivative of the p=2 functional
    # (with its one-half pair factor) at u along v, plus the forcing term back
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.6), 11)
    f = _ones(lat)
    kernel = _kernel(lat, field)
    system = assemble(lat, field, 0.5, "global", f)
    spec = EnergySpec(p=2, s=0.5, V=HALF_QUADRATIC, f=f, flavor="global", constraint="dirichlet0")
    rng = np.random.default_rng(2)
    for _ in range(3):
        xu = rng.normal(size=len(system.free_ids))
        xv = rng.normal(size=len(system.free_ids))
        fu = np.zeros(lat.n_sites)
        fu[system.free_ids] = xu
        h = 1e-6
        up, dn = fu.copy(), fu.copy()
        up[system.free_ids] += h * xv
        dn[system.free_ids] -= h * xv
        de = (
            energy_value(spec, kernel, GridFunction(lat, up))
            - energy_value(spec, kernel, GridFunction(lat, dn))
        ) / (2 * h)
        lhs = float(xv @ system.matrix @ xu)
        rhs = de + float(system.rhs @ xv)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_assemble_never_holds_the_kernel():
    lat = build_lattice(2, 1 / 16, [(-1, 1)] * 2, [(-2, 2)] * 2)
    m = len(lat.interior_ids)
    assert (lat.n_sites, m) == (4225, 841)
    field = WeightField(LogNormal(1.0), 1)
    tracemalloc.start()
    try:
        assemble(lat, field, 0.5, "global", _ones(lat))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A takes 8 m^2 bytes, about 5.7 MB, and the N x N kernel alone would take
    # 8 * 4225^2 bytes, about 143 MB; a second m x m array would exceed the bound
    assert peak < 1.5 * 8 * m * m


def _thread_count(module):
    """The (get, set) pair of the OpenBLAS that `module` links; skips where there is none."""
    blas = _openblas(module)
    if blas is None:
        pytest.skip(f"{module.__name__} links no OpenBLAS")
    return blas[:2]


@pytest.mark.parametrize("module", [np.linalg._umath_linalg, _flapack], ids=["numpy", "scipy"])
def test_one_blas_thread_restores_the_count(module):
    get, set_ = _thread_count(module)
    before = get()
    set_(2)
    try:
        with _one_blas_thread(module):
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError, match="in the body"):
            with _one_blas_thread(module):
                assert get() == 1
                raise RuntimeError("in the body")
        assert get() == 2
    finally:
        set_(before)


def test_one_blas_thread_without_openblas_runs_the_body():
    # the JSON accelerator is an extension module that links no BLAS
    import _json

    assert _openblas(_json) is None
    get, set_ = _thread_count(np.linalg._umath_linalg)
    before = get()
    set_(2)
    ran = []
    try:
        with _one_blas_thread(_json):
            ran.append(get())
        assert ran == [2] and get() == 2
    finally:
        set_(before)


def test_spectrum_overwrites_a_instead_of_copying_it():
    system = _system_m509()
    m = len(system.free_ids)
    assert m == 509
    before = system.matrix.copy()
    tracemalloc.start()
    try:
        spectrum(system, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a copy of A for LAPACK would take 8 m^2 bytes, about 2.1 MB; tracemalloc
    # sees numpy's allocations but not LAPACKE's own malloc, so a changed A is
    # what shows that dsyevr worked in our buffer
    assert peak < 8 * m * m
    assert not np.array_equal(system.matrix, before)


def _system_m509():
    lat = build_lattice(1, 1 / 256, [(-1, 1)], [(-1.25, 1.25)])
    return assemble(lat, WeightField(LogNormal(1.0), 1), 0.5, "global", _ones(lat))


def _system_d2():
    # the constant field on a square: mu_2 = mu_3 is a degenerate pair, whose
    # eigenvectors depend on which triangle of A the solver reads
    lat = build_lattice(2, 0.125, [(-1, 1)] * 2, [(-1.5, 1.5)] * 2)
    return assemble(lat, WeightField(Constant(1.0), 0), 0.5, "global", _ones(lat))


# both dsyevr paths: numpy's LAPACKE (the bare ids) and the scipy fallback,
# forced by a symbol name that does not resolve
_EIGH_CASES = [
    pytest.param(make, k, symbol, id=f"{k}-{name}{suffix}")
    for symbol, suffix in ((_DSYEVR, ""), ("no_such_dsyevr", "-scipy_fallback"))
    for name, make in (("d1_m509", _system_m509), ("d2", _system_d2))
    for k in (1, 5)
]


@pytest.mark.parametrize("make, k, symbol", _EIGH_CASES)
def test_spectrum_matches_scipy_eigh_to_the_bit(make, k, symbol, monkeypatch):
    monkeypatch.setattr("fraclat.linear_ops._DSYEVR", symbol)
    system, reference = make(), make()
    rep = spectrum(system, k)
    with _one_blas_thread(_flapack):
        lam, vecs = scipy.linalg.eigh(reference.matrix.T, subset_by_index=(0, k - 1), overwrite_a=True)
    lat = system.lattice
    assert np.array_equal(rep.eigenvalues, lat.eps**lat.dim / lam)
    for j in range(k):
        want = vecs[:, j] * lat.eps ** (-lat.dim / 2)
        if want[np.flatnonzero(want)[0]] < 0:
            want = -want
        assert np.array_equal(rep.eigenvectors[j].values[system.free_ids], want)


def test_spectrum_rejects_a_nonfinite_matrix(lat5, const_field):
    system = assemble(lat5, const_field, 0.5, "global", _ones(lat5))
    system.matrix[0, 0] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        spectrum(system, 1)


@pytest.mark.parametrize("sign", [-1.0, 0.0], ids=["negative_definite", "zero"])
def test_spectrum_rejects_a_form_that_is_not_positive(const_field, sign):
    # mu = eps^d / lambda needs lambda_1 > 0
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    system = assemble(lat, const_field, 0.5, "global", _ones(lat))
    system.matrix[...] *= sign
    with pytest.raises(NumericalError, match="form eigenvalue .* is not positive"):
        spectrum(system, 2)


def test_spectral_study_loads_no_scipy_module(fresh_run):
    # `spectrum` calls numpy's OpenBLAS, so the d=2 spectral study and a
    # direct `spectrum` call (after the smoke runs of the same fresh
    # interpreter) load no scipy module, and the eigenvalues equal those of
    # scipy.linalg.eigh, imported afterwards, to the bit
    assert (fresh_run["spectral"], fresh_run["same_bits"]) == ([], True)


def test_empty_free_set_rejected(const_field):
    lat = build_lattice(1, 1.0, [(-1, 1)], [(-1, 1)])  # every site is boundary layer
    assert len(lat.interior_ids) == 0
    with pytest.raises(ValueError):
        assemble(lat, const_field, 0.5, "global", _ones(lat))

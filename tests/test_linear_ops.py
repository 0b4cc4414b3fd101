import ctypes
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

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
    _OPENBLAS_THREADS,
    _flapack,
    _one_blas_thread,
    assemble,
    solve,
    spectrum,
)
from fraclat.weights import Constant, LogNormal, WeightField

# the p=2 functional whose stationarity is the assembled weak form A u = b
HALF_QUADRATIC = CustomPotential(
    evaluate=lambda t: 0.5 * t * t, deriv=lambda t: t, p=2.0, alpha=0.5, beta=0.5
)


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


def test_solve_nonconvergence_raises(lat5, const_field):
    system = assemble(lat5, const_field, 0.5, "global", _ones(lat5))
    with pytest.raises(NumericalError):
        solve(system, tol=1e-30, max_iter=1)


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
    lib = ctypes.CDLL(module.__file__)
    for name in _OPENBLAS_THREADS:
        if hasattr(lib, name.format("get")):
            return getattr(lib, name.format("get")), getattr(lib, name.format("set"))
    pytest.skip(f"{module.__name__} links no OpenBLAS")


@pytest.mark.parametrize("module", [np.linalg._umath_linalg, scipy.linalg._flapack], ids=["numpy", "scipy"])
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

    lib = ctypes.CDLL(_json.__file__)
    assert not any(hasattr(lib, name.format(verb)) for name in _OPENBLAS_THREADS for verb in ("get", "set"))
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
    # importing scipy.linalg at the top of this module loaded its _flapack
    # extension, which `spectrum` reuses, so the traced span holds only the
    # eigensolve's own allocations
    system = _system_m509()
    m = len(system.free_ids)
    assert m == 509
    tracemalloc.start()
    try:
        spectrum(system, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a copy of A for LAPACK would take 8 m^2 bytes, about 2.1 MB
    assert peak < 8 * m * m


def _system_m509():
    lat = build_lattice(1, 1 / 256, [(-1, 1)], [(-1.25, 1.25)])
    return assemble(lat, WeightField(LogNormal(1.0), 1), 0.5, "global", _ones(lat))


def _system_d2():
    # the constant field on a square: mu_2 = mu_3 is a degenerate pair, whose
    # eigenvectors depend on which triangle of A the solver reads
    lat = build_lattice(2, 0.125, [(-1, 1)] * 2, [(-1.5, 1.5)] * 2)
    return assemble(lat, WeightField(Constant(1.0), 0), 0.5, "global", _ones(lat))


@pytest.mark.parametrize("make", [_system_m509, _system_d2], ids=["d1_m509", "d2"])
@pytest.mark.parametrize("k", [1, 5])
def test_spectrum_matches_scipy_eigh_to_the_bit(make, k):
    system, reference = make(), make()
    rep = spectrum(system, k)
    with _one_blas_thread(_flapack()):
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


_SPECTRAL_WITHOUT_SCIPY_LINALG = """
import json, sys
import numpy as np
from fraclat.linear_ops import _one_blas_thread, assemble, spectrum
from fraclat.study import _forcing, _lattice, parse_config, run_study
from fraclat.weights import WeightField
cfg = parse_config(sys.argv[1])
run_study(cfg)
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
lat = _lattice(cfg, cfg.eps_list[0])
system = assemble(lat, WeightField(cfg.dist, 1), cfg.s, cfg.flavor, _forcing(cfg, lat))
reference = system.matrix.copy()
mu = spectrum(system, cfg.k_eigs).eigenvalues
import scipy.linalg
flapack = sys.modules["scipy.linalg._flapack"]
with _one_blas_thread(flapack):
    lam = scipy.linalg.eigh(reference.T, subset_by_index=(0, cfg.k_eigs - 1), overwrite_a=True)[0]
json.dump({"loaded": loaded, "reused": scipy.linalg.lapack._flapack is flapack,
           "same_bits": bool(np.array_equal(mu, lat.eps**lat.dim / lam))}, sys.stdout)
"""


def test_spectral_study_loads_only_the_lapack_extension():
    # a fresh interpreter: this module's own `import scipy.linalg` would hide
    # a fallback to the package import
    text = ("study=spectral\nd=2\neps_list=0.25,0.125\ndomain=-1,1,-1,1\nhalo=-1.5,1.5,-1.5,1.5\n"
            "k_eigs=3\ndist.kind=lognormal\nseeds=1\n")
    src = pathlib.Path(fraclat.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", _SPECTRAL_WITHOUT_SCIPY_LINALG, text],
                         env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, check=True, text=True)
    assert json.loads(out.stdout) == {"loaded": ["scipy.linalg._flapack"], "reused": True, "same_bits": True}


def test_empty_free_set_rejected(const_field):
    lat = build_lattice(1, 1.0, [(-1, 1)], [(-1, 1)])  # every site is boundary layer
    assert len(lat.interior_ids) == 0
    with pytest.raises(ValueError):
        assemble(lat, const_field, 0.5, "global", _ones(lat))

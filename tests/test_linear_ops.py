import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fraclat.linear_ops import apply_operator, assemble, solve, spectrum
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
    system = assemble(lat5, _kernel(lat5, const_field), "dirichlet0", _ones(lat5))
    assert system.matrix.shape == (1, 1)
    assert system.matrix[0, 0] == pytest.approx(5.0, rel=1e-12)
    assert system.rhs[0] == pytest.approx(0.5, rel=1e-12)


def test_assemble_symmetry_and_psd():
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(1.0), 3)
    system = assemble(lat, _kernel(lat, field), "dirichlet0", _ones(lat))
    a = system.matrix
    assert np.array_equal(a, a.T)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.normal(size=a.shape[0])
        assert v @ a @ v >= 0


def test_mean_zero_annihilates_constants():
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.5), 1)
    system = assemble(lat, _kernel(lat, field, "local"), "mean0", _ones(lat))
    ones = np.ones(system.matrix.shape[0])
    assert abs(ones @ system.matrix @ ones) < 1e-10 * np.abs(system.matrix).max()


def test_quadratic_form_identity():
    # u^T A u == weighted_seminorm^2 on the same index range, to 1e-12 relative
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.8), 5)
    system = assemble(lat, _kernel(lat, field, "local"), "mean0", _ones(lat))
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = rng.normal(size=system.matrix.shape[0])
        full = np.zeros(lat.n_sites)
        full[system.free_ids] = x
        u = GridFunction(lat, full)
        quad = float(x @ system.matrix @ x)
        semi = weighted_seminorm(_kernel(lat, field, "local"), u, 2) ** 2
        assert quad == pytest.approx(semi, rel=1e-12)


def test_apply_operator_oracle():
    lat3 = build_lattice(1, 0.5, [(-0.6, 0.6)], [(-0.6, 0.6)])
    field = WeightField(Constant(1.0), 0)
    u = GridFunction(lat3, [0.0, 1.0, 0.0])
    out = apply_operator(_kernel(lat3, field), u)
    assert np.allclose(out.values, [2.0, -4.0, 2.0], rtol=1e-12)
    const = GridFunction(lat3, [4.0] * 3)
    assert np.all(apply_operator(_kernel(lat3, field), const).values == 0.0)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_operator_linearity(a, b):
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.5), 2)
    rng = np.random.default_rng(3)
    u = rng.normal(size=lat.n_sites)
    v = rng.normal(size=lat.n_sites)
    kernel = _kernel(lat, field)
    lu = apply_operator(kernel, GridFunction(lat, u)).values
    lv = apply_operator(kernel, GridFunction(lat, v)).values
    lab = apply_operator(kernel, GridFunction(lat, a * u + b * v)).values
    assert np.allclose(lab, a * lu + b * lv, rtol=1e-10, atol=1e-10)


def test_solve_one_by_one(lat5, const_field):
    system = assemble(lat5, _kernel(lat5, const_field), "dirichlet0", _ones(lat5))
    u, stats = solve(system)
    center = lat5.interior_ids[0]
    assert u.values[center] == pytest.approx(0.1, rel=1e-12)


def test_solve_zero_rhs(lat5, const_field):
    f = GridFunction(lat5, np.zeros(lat5.n_sites))
    system = assemble(lat5, _kernel(lat5, const_field), "dirichlet0", f)
    u, stats = solve(system)
    assert stats.iters == 0
    assert np.all(u.values == 0.0)


def test_cg_matches_dense_direct():
    lat = build_lattice(1, 0.0625, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(1.0), 7)
    system = assemble(lat, _kernel(lat, field), "dirichlet0", _ones(lat))
    u, stats = solve(system, tol=1e-12)
    direct = scipy.linalg.solve(system.matrix, system.rhs, assume_a="pos")
    assert np.abs(u.values[system.free_ids] - direct).max() <= 10 * 1e-12 * np.abs(direct).max()


def test_mean_zero_solve_projects_rhs():
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.5), 9)
    system = assemble(lat, _kernel(lat, field, "local"), "mean0", _ones(lat))
    u, stats = solve(system, tol=1e-11)
    assert stats.rhs_projected  # f = 1 is incompatible until projected
    q = u.values[lat.q_ids]
    assert abs(q.sum()) < 1e-10 * max(1.0, np.abs(q).max()) * len(q)


def test_solve_nonconvergence_raises(lat5, const_field):
    system = assemble(lat5, _kernel(lat5, const_field), "dirichlet0", _ones(lat5))
    with pytest.raises(NumericalError):
        solve(system, tol=1e-30, max_iter=1)


def test_spectrum_one_by_one(lat5, const_field):
    system = assemble(lat5, _kernel(lat5, const_field), "dirichlet0", _ones(lat5))
    rep = spectrum(system, 1)
    assert rep.eigenvalues[0] == pytest.approx(0.1, rel=1e-12)


def test_spectrum_positive_decreasing_orthonormal():
    lat = build_lattice(1, 0.0625, [(-1, 1)], [(-1, 1)])
    field = WeightField(Constant(1.0), 0)
    system = assemble(lat, _kernel(lat, field), "dirichlet0", _ones(lat))
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
    rep1 = spectrum(assemble(lat, _kernel(lat, WeightField(Constant(1.0), 0)), "dirichlet0", f), 4)
    rep2 = spectrum(assemble(lat, _kernel(lat, WeightField(Constant(2.0), 0)), "dirichlet0", f), 4)
    assert np.allclose(rep2.eigenvalues, 0.5 * rep1.eigenvalues, rtol=1e-12)


def test_weak_form_consistency():
    # v^T A u equals the directional derivative of the p=2 functional
    # (with its one-half pair factor) at u along v, plus the forcing term back
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.6), 11)
    f = _ones(lat)
    kernel = _kernel(lat, field)
    system = assemble(lat, kernel, "dirichlet0", f)
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


def test_empty_free_set_rejected(const_field):
    lat = build_lattice(1, 1.0, [(-1, 1)], [(-1, 1)])  # every site is boundary layer
    assert len(lat.interior_ids) == 0
    with pytest.raises(ValueError):
        assemble(lat, _kernel(lat, const_field), "dirichlet0", _ones(lat))

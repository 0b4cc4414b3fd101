import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat import build_lattice
from fraclat.energy import EnergySpec, GridFunction, PowerK, PowerP, energy_value, kernel_matrix
from fraclat.linear_ops import assemble, solve
from fraclat.minimize import MinimizeOptions, MinimizeStats, minimize, project_constraint
from fraclat.weights import Constant, LogNormal, WeightField

from test_linear_ops import HALF_QUADRATIC


def _spec(**kw):
    base = dict(p=2, s=0.5, V=PowerP(2), f=None, flavor="global", constraint="dirichlet0")
    base.update(kw)
    return EnergySpec(**base)


def test_zero_forcing_gives_zero():
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.5), 1)
    u, stats = minimize(_spec(), field, MinimizeOptions(grad_tol=1e-10), lattice=lat)
    assert np.all(u.values == 0.0)
    assert stats.final_energy == 0.0


def test_p2_matches_cg():
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(1.0), 5)
    f = GridFunction(lat, np.ones(lat.n_sites))
    system = assemble(lat, kernel_matrix(lat, field, 0.5, 2.0, "global"), "dirichlet0", f)
    u_cg, _ = solve(system, tol=1e-12)
    spec = _spec(V=HALF_QUADRATIC, f=f)
    u_min, stats = minimize(spec, field, MinimizeOptions(grad_tol=1e-10, max_iter=2000), lattice=lat)
    assert np.abs(u_cg.values - u_min.values).max() <= 1e-8


def test_p4_single_site_root():
    # one free site: stationarity is a scalar cubic with a closed-form root
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    f = GridFunction(lat, np.ones(lat.n_sites))
    field = WeightField(Constant(1.0), 0)
    spec = _spec(p=4, V=PowerP(4), f=f)
    u, _ = minimize(spec, field, MinimizeOptions(grad_tol=1e-14, max_iter=2000), lattice=lat)
    # 2 eps^2 sum_y 4 u^3 / |y|^3 = eps  =>  u = (eps / coeff)^{1/3}
    coeff = 2 * 0.25 * 4 * (1 / 0.125 + 1 / 0.125 + 1 / 1 + 1 / 1)
    oracle = (0.5 / coeff) ** (1 / 3)
    center = lat.interior_ids[0]
    assert u.values[center] == pytest.approx(oracle, abs=1e-8)


def test_energy_monotone_along_iterations():
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.8), 2)
    f = GridFunction(lat, np.ones(lat.n_sites))
    spec = _spec(p=3, V=PowerP(3), f=f, G=PowerK(0.3, 2.0))
    energies = []

    real_value = energy_value

    def tracking(spec_, field_, u_):
        e = real_value(spec_, field_, u_)
        energies.append(e)
        return e

    import fraclat.minimize as mz

    old = mz.energy_value
    mz.energy_value = tracking
    try:
        minimize(spec, field, MinimizeOptions(grad_tol=1e-8, max_iter=500), lattice=lat)
    finally:
        mz.energy_value = old
    # accepted iterates only: the running minimum is attained at the end
    assert energies[-1] <= min(energies) + 1e-12


def test_minimize_builds_one_kernel_and_drops_it(monkeypatch):
    import fraclat.minimize as mz

    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.8), 2)
    spec = _spec(p=3, V=PowerP(3), f=GridFunction(lat, np.ones(lat.n_sites)))
    refs = []

    def recording(*args):
        out = kernel_matrix(*args)
        refs.append(weakref.ref(out[1]))
        return out

    monkeypatch.setattr(mz, "kernel_matrix", recording)
    _, stats = minimize(spec, field, MinimizeOptions(grad_tol=1e-8, max_iter=500), lattice=lat)
    assert stats.iters > 1
    assert len(refs) == 1
    assert refs[0]() is None


def test_uniqueness_two_starts():
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.5), 3)
    f = GridFunction(lat, np.ones(lat.n_sites))
    spec = _spec(V=HALF_QUADRATIC, f=f)
    opts0 = MinimizeOptions(grad_tol=1e-11, max_iter=2000)
    rng = np.random.default_rng(4)
    start = GridFunction(lat, rng.normal(size=lat.n_sites))
    opts1 = MinimizeOptions(grad_tol=1e-11, max_iter=2000, initial=start)
    u0, s0 = minimize(spec, field, opts0, lattice=lat)
    u1, s1 = minimize(spec, field, opts1, lattice=lat)
    assert s1.final_energy == pytest.approx(s0.final_energy, rel=1e-8, abs=1e-12)
    assert np.linalg.norm(u0.values - u1.values) < 1e-4


def test_constraint_held_exactly():
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.5), 6)
    f = GridFunction(lat, lat.positions[:, 0])
    spec = _spec(V=HALF_QUADRATIC, f=f, flavor="local", constraint="mean0")
    u, _ = minimize(spec, field, MinimizeOptions(grad_tol=1e-9, max_iter=2000), lattice=lat)
    q = u.values[lat.q_ids]
    assert abs(q.sum()) <= 1e-12 * len(q) * max(1.0, np.abs(q).max())


def test_gradient_descent_agrees_with_lbfgs():
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.5), 7)
    f = GridFunction(lat, np.ones(lat.n_sites))
    spec = _spec(V=HALF_QUADRATIC, f=f)
    u_l, _ = minimize(spec, field, MinimizeOptions(grad_tol=1e-8, max_iter=5000), lattice=lat)
    u_g, _ = minimize(
        spec, field, MinimizeOptions(grad_tol=1e-8, max_iter=20000, method="gd"), lattice=lat
    )
    assert np.abs(u_l.values - u_g.values).max() < 1e-5


def test_project_examples():
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    u = GridFunction(lat, [9.0, 1.0, 2.0, 3.0, 9.0])
    out = project_constraint(u, "mean0")
    assert np.allclose(out.values[lat.q_ids], [-1.0, 0.0, 1.0])
    d = project_constraint(u, "dirichlet0")
    assert np.all(d.values[lat.interior_ids] == u.values[lat.interior_ids])
    assert np.all(d.values[lat.boundary_ids] == 0.0)


@settings(max_examples=30, deadline=None)
@given(
    vals=st.lists(st.floats(-100, 100), min_size=5, max_size=5),
    constraint=st.sampled_from(["dirichlet0", "mean0", "zero_outside", "none"]),
)
def test_project_idempotent(vals, constraint):
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    once = project_constraint(GridFunction(lat, np.array(vals)), constraint)
    twice = project_constraint(once, constraint)
    assert np.allclose(once.values, twice.values, rtol=0, atol=1e-13 * (1 + np.abs(vals).max()))


def test_options_validation():
    with pytest.raises(ValueError):
        MinimizeOptions(grad_tol=-1)
    with pytest.raises(ValueError):
        MinimizeOptions(method="newton")

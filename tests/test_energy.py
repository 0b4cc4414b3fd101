import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat import build_lattice
from fraclat.energy import (
    EnergySpec,
    GridFunction,
    NoneTerm,
    PowerK,
    PowerP,
    SmoothedPowerP,
    embedding_denominator,
    energy_gradient,
    energy_value,
    gagliardo_seminorm,
    holder_chain_constant,
    kernel_matrix,
    lq_norm,
    pair_ids,
    weighted_seminorm,
)
from fraclat.weights import Constant, LogNormal, UnitPowerLaw, WeightField


@pytest.fixture
def lat3():
    # three sites at -0.5, 0, 0.5
    return build_lattice(1, 0.5, [(-0.6, 0.6)], [(-0.6, 0.6)])


@pytest.fixture
def const_field():
    return WeightField(Constant(1.0), 0)


def _spec(**kw):
    base = dict(p=2, s=0.5, V=PowerP(2), G=NoneTerm(), f=None, flavor="global", constraint="none")
    base.update(kw)
    return EnergySpec(**base)


def _kernel(spec, field, lat):
    return kernel_matrix(lat, field, spec.s, spec.p, spec.flavor)


def _local(field, lat, s=0.5, p=2):
    return kernel_matrix(lat, field, s, p, "local")


def test_three_site_energy(lat3, const_field):
    u = GridFunction(lat3, [0.0, 1.0, 0.0])
    assert energy_value(_spec(), _kernel(_spec(), const_field, lat3), u) == pytest.approx(4.0, rel=1e-12)


def test_constant_is_zero_energy(lat3, const_field):
    u = GridFunction(lat3, [3.7] * 3)
    assert energy_value(_spec(), _kernel(_spec(), const_field, lat3), u) == 0.0


def test_forcing_term(lat3, const_field):
    f = GridFunction(lat3, np.ones(3))
    u = GridFunction(lat3, [0.0, 1.0, 0.0])
    assert energy_value(_spec(f=f), _kernel(_spec(), const_field, lat3), u) == pytest.approx(3.5, rel=1e-12)


def test_gradient_center(lat3, const_field):
    u = GridFunction(lat3, [0.0, 1.0, 0.0])
    g = energy_gradient(_spec(), _kernel(_spec(), const_field, lat3), u)
    assert g.values[1] == pytest.approx(8.0, rel=1e-12)


def test_gradient_zero_at_constant(lat3, const_field):
    u = GridFunction(lat3, [2.0, 2.0, 2.0])
    assert np.all(energy_gradient(_spec(), _kernel(_spec(), const_field, lat3), u).values == 0.0)


def test_gradient_antisymmetry(const_field):
    # symmetric lattice, symmetric f, even u: gradient is even as well
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    x = lat.positions[:, 0]
    u = GridFunction(lat, np.where(np.abs(x) < 1, (1 - x * x), 0.0))
    f = GridFunction(lat, np.ones(lat.n_sites))
    g = energy_gradient(_spec(f=f), _kernel(_spec(), const_field, lat), u).values
    assert np.allclose(g, g[::-1], rtol=1e-12, atol=1e-12)


def test_gradient_finite_difference():
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.8), 17)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=lat.n_sites)
    spec = _spec(V=SmoothedPowerP(3.0, 1e-4), p=3.0, G=PowerK(0.5, 2.0),
                 f=GridFunction(lat, rng.normal(size=lat.n_sites)))
    u = GridFunction(lat, vals)
    kernel = _kernel(spec, field, lat)
    g = energy_gradient(spec, kernel, u).values
    h = 1e-6 * (1 + np.abs(vals).max())
    for i in (0, 3, lat.n_sites // 2, lat.n_sites - 1):
        up, dn = vals.copy(), vals.copy()
        up[i] += h
        dn[i] -= h
        fd = (energy_value(spec, kernel, GridFunction(lat, up))
              - energy_value(spec, kernel, GridFunction(lat, dn))) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5)


def test_convexity_witness():
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.5), 4)
    rng = np.random.default_rng(1)
    f = GridFunction(lat, rng.normal(size=lat.n_sites))
    spec = _spec(V=PowerP(2), G=PowerK(1.0, 2.0), f=f)
    kernel = _kernel(spec, field, lat)
    for _ in range(5):
        a = rng.normal(size=lat.n_sites)
        b = rng.normal(size=lat.n_sites)
        e_mid = energy_value(spec, kernel, GridFunction(lat, (a + b) / 2))
        e_sum = energy_value(spec, kernel, GridFunction(lat, a)) + energy_value(
            spec, kernel, GridFunction(lat, b)
        )
        assert e_mid <= 0.5 * e_sum + 1e-12


def test_constraint_enforced(lat3, const_field):
    u = GridFunction(lat3, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        energy_value(_spec(constraint="dirichlet0"), _kernel(_spec(), const_field, lat3), u)


def test_gagliardo_examples(lat3):
    # the three sites lie in Q, so Q^eps holds them all
    assert np.array_equal(lat3.q_ids, [0, 1, 2])
    u = GridFunction(lat3, [0.0, 1.0, 0.0])
    assert gagliardo_seminorm(lat3, u, 0.5, 2) == pytest.approx(2.0, rel=1e-12)
    assert gagliardo_seminorm(lat3, GridFunction(lat3, [5.0] * 3), 0.5, 2) == 0.0


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(min_value=-4, max_value=4).filter(lambda x: abs(x) > 1e-3))
def test_seminorm_homogeneity(lam):
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    rng = np.random.default_rng(2)
    vals = rng.normal(size=lat.n_sites)
    u = GridFunction(lat, vals)
    v = GridFunction(lat, lam * vals)
    ref = gagliardo_seminorm(lat, u, 0.5, 2)
    assert gagliardo_seminorm(lat, v, 0.5, 2) == pytest.approx(abs(lam) * ref, rel=1e-10)


def test_weighted_matches_unweighted_for_unit_c(const_field):
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    rng = np.random.default_rng(3)
    u = GridFunction(lat, rng.normal(size=lat.n_sites))
    a = weighted_seminorm(_local(const_field, lat), u, 2)
    b = gagliardo_seminorm(lat, u, 0.5, 2)
    assert a == pytest.approx(b, rel=1e-12)


def test_weighted_homogeneity_in_c():
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    rng = np.random.default_rng(4)
    u = GridFunction(lat, rng.normal(size=lat.n_sites))
    one = weighted_seminorm(_local(WeightField(Constant(1.0), 0), lat), u, 2)
    four = weighted_seminorm(_local(WeightField(Constant(4.0), 0), lat), u, 2)
    assert four == pytest.approx(2.0 * one, rel=1e-12)


def test_weighted_seminorm_brute_force():
    from fraclat.weights import weight

    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.6), 8)
    rng = np.random.default_rng(5)
    u = GridFunction(lat, rng.normal(size=lat.n_sites))
    total = 0.0
    qs = list(lat.q_ids)
    for i in qs:
        for j in qs:
            if i == j:
                continue
            zi, zj = lat.sites[i], lat.sites[j]
            dist = 0.5 * abs(float(zi[0] - zj[0]))
            total += weight(field, zi, zj) * abs(u.values[i] - u.values[j]) ** 2 / dist**2
    total *= 0.5**2
    assert weighted_seminorm(_local(field, lat), u, 2) == pytest.approx(total**0.5, rel=1e-12)


def test_lq_norm(lat3):
    # Q^eps holds the three sites of lat3
    u = GridFunction(lat3, [0.0, 1.0, 0.0])
    assert lq_norm(lat3, u, 2) == pytest.approx(0.5**0.5, rel=1e-12)
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    ones = GridFunction(lat, np.ones(lat.n_sites))
    assert lq_norm(lat, ones, 1) == pytest.approx(lat.eps ** lat.dim * len(lat.q_ids), rel=1e-12)
    assert lq_norm(lat3, GridFunction(lat3, [0.0, -7.0, 2.0]), float("inf")) == 7.0
    # the sites of the boundary points -1 and 1 lie outside Q^eps
    assert lq_norm(lat, GridFunction(lat, [9.0, 0.0, 1.0, 0.0, 9.0]), float("inf")) == 1.0


@pytest.mark.parametrize("flavor", ["Global", "q"])
def test_unknown_flavor_is_refused(flavor, const_field):
    # a misspelt "global" once gave the local sites: 7 here, where global has 17
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-2, 2)])
    with pytest.raises(ValueError, match="flavor"):
        pair_ids(lat, flavor)
    with pytest.raises(ValueError, match="flavor"):
        kernel_matrix(lat, const_field, 0.5, 2.0, flavor)


def test_embedding_ratio_examples(lat3):
    with pytest.raises(ValueError):
        embedding_denominator(lat3, GridFunction(lat3, np.zeros(3)), 0.5, 2)
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    rng = np.random.default_rng(6)
    u = GridFunction(lat, rng.normal(size=lat.n_sites))
    assert lq_norm(lat, u, 2) / embedding_denominator(lat, u, 0.5, 2) <= 1.0


def test_holder_chain_inequality():
    # [u]_{s',r,Q} <= C [u]_{s,p,Q,c} with the explicitly computed C
    p, s, r, s_prime = 2.0, 0.5, 1.5, 1.0 / 3.0
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    rng = np.random.default_rng(7)
    for seed in (1, 2, 3):
        field = WeightField(UnitPowerLaw(4.0), seed)
        c = holder_chain_constant(lat, field, s, p, r, s_prime)
        kernel = _local(field, lat, s, p)
        for _ in range(3):
            u = GridFunction(lat, rng.normal(size=lat.n_sites))
            lhs = gagliardo_seminorm(lat, u, s_prime, r)
            rhs = c * weighted_seminorm(kernel, u, p)
            assert lhs <= rhs * (1 + 1e-12)


def test_forcing_on_another_lattice_is_refused(const_field):
    fine = build_lattice(1, 1 / 16, [(-1, 1)], [(-1, 1)])
    coarse = build_lattice(1, 1 / 8, [(-1, 1)], [(-1, 1)])
    for f_lat, u_lat in ((fine, coarse), (coarse, fine)):
        spec = _spec(f=GridFunction(f_lat, np.ones(f_lat.n_sites)))
        kernel = _kernel(spec, const_field, u_lat)
        u = GridFunction(u_lat, np.ones(u_lat.n_sites))
        with pytest.raises(ValueError, match="another lattice"):
            energy_value(spec, kernel, u)
        with pytest.raises(ValueError, match="another lattice"):
            energy_gradient(spec, kernel, u)
    # a lattice built again with the same sites is the same lattice
    twin = build_lattice(1, 1 / 8, [(-1, 1)], [(-1, 1)])
    u = GridFunction(coarse, np.linspace(-1, 1, coarse.n_sites))
    on_twin = _spec(f=GridFunction(twin, np.ones(twin.n_sites)))
    on_coarse = _spec(f=GridFunction(coarse, np.ones(coarse.n_sites)))
    kernel = _kernel(on_coarse, const_field, coarse)
    assert energy_value(on_twin, kernel, u) == energy_value(on_coarse, kernel, u)


def test_growth_bounds():
    # the envelope alpha |t|^p <= V(t) <= c_v + beta |t|^p on a dyadic grid
    t = np.array([sgn * 2.0**k * 1e-3 for k in range(21) for sgn in (1, -1)])
    for v, alpha, beta, c_v in ((PowerP(2.0), 1.0, 1.0, 0.0), (SmoothedPowerP(2.0, 1e-8), 0.5, 1.0, 1.0),
                                (SmoothedPowerP(1.5, 1e-8), 0.5, 1.0, 1.0)):
        vals = v.value(t)
        tp = np.abs(t) ** v.p
        assert np.all(alpha * tp <= vals + 1e-15)
        assert np.all(vals <= c_v + beta * tp + 1e-15)


@pytest.mark.parametrize("delta", [1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.7])
@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0, 5.0])
def test_smoothed_power_exactly_zero_at_zero(p, delta):
    # the free-block energy drops the pairs outside the free set, which holds
    # only if V(0) is 0 to the bit, for every shape of argument
    v = SmoothedPowerP(p, delta)
    vals = np.random.default_rng(0).normal(size=40)
    vals[::3] = 0.0
    tile = vals[:8, None] - vals[None, :]
    for t in (np.zeros(1), np.zeros((7, 5)), 0.0, np.float64(0.0), tile, vals):
        zero = np.asarray(t) == 0.0
        assert np.all(np.asarray(v.value(t))[zero] == 0.0)
        assert np.all(np.asarray(v.derivative(t))[zero] == 0.0)
    # and away from 0 it is the closed form (t^2 + delta^2)^{p/2} - delta^p, up
    # to the cancellation against delta^p that both forms share
    t = np.array([-2.0, -0.3, 1e-3, 0.5, 3.0])
    closed = (t * t + delta**2) ** (p / 2) - delta**p
    np.testing.assert_allclose(v.value(t), closed, rtol=1e-12, atol=16 * np.finfo(float).eps * delta**p)
    np.testing.assert_allclose(v.derivative(t), p * t * (t * t + delta**2) ** (p / 2 - 1), rtol=1e-14)


def test_potential_basics():
    assert PowerP(2).value(np.array([0.0]))[0] == 0.0
    with pytest.raises(ValueError):
        PowerP(1.5).derivative(np.array([1.0]))
    with pytest.raises(ValueError):
        EnergySpec(p=1.0, s=0.5, V=PowerP(2))
    with pytest.raises(ValueError):
        EnergySpec(p=2.0, s=1.5, V=PowerP(2))

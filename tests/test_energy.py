import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat import build_lattice
from fraclat.energy import (
    CustomPotential,
    EnergySpec,
    GridFunction,
    NoneTerm,
    PowerK,
    PowerP,
    SmoothedPowerP,
    embedding_ratio,
    energy_gradient,
    energy_value,
    gagliardo_seminorm,
    growth_bounds_hold,
    halo_tail_bound,
    holder_chain_constant,
    kernel_matrix,
    lq_norm,
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
    u = GridFunction(lat3, [0.0, 1.0, 0.0])
    assert gagliardo_seminorm(lat3, u, 0.5, 2, "global") == pytest.approx(2.0, rel=1e-12)
    assert gagliardo_seminorm(lat3, GridFunction(lat3, [5.0] * 3), 0.5, 2, "global") == 0.0


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(min_value=-4, max_value=4).filter(lambda x: abs(x) > 1e-3))
def test_seminorm_homogeneity(lam):
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    rng = np.random.default_rng(2)
    vals = rng.normal(size=lat.n_sites)
    u = GridFunction(lat, vals)
    v = GridFunction(lat, lam * vals)
    ref = gagliardo_seminorm(lat, u, 0.5, 2, "q")
    assert gagliardo_seminorm(lat, v, 0.5, 2, "q") == pytest.approx(abs(lam) * ref, rel=1e-10)


def test_weighted_matches_unweighted_for_unit_c(const_field):
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    rng = np.random.default_rng(3)
    u = GridFunction(lat, rng.normal(size=lat.n_sites))
    a = weighted_seminorm(_local(const_field, lat), u, 2)
    b = gagliardo_seminorm(lat, u, 0.5, 2, "q")
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
    u = GridFunction(lat3, [0.0, 1.0, 0.0])
    assert lq_norm(lat3, u, 2, "global") == pytest.approx(0.5**0.5, rel=1e-12)
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    ones = GridFunction(lat, np.ones(lat.n_sites))
    assert lq_norm(lat, ones, 1, "q") == pytest.approx(lat.measure_q(), rel=1e-12)
    assert lq_norm(lat3, GridFunction(lat3, [0.0, -7.0, 2.0]), float("inf"), "global") == 7.0


def test_embedding_ratio_examples(lat3):
    with pytest.raises(ValueError):
        embedding_ratio(lat3, GridFunction(lat3, np.zeros(3)), 0.5, 2, 2)
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    rng = np.random.default_rng(6)
    u = GridFunction(lat, rng.normal(size=lat.n_sites))
    assert embedding_ratio(lat, u, 0.5, 2, 2) <= 1.0


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
            lhs = gagliardo_seminorm(lat, u, s_prime, r, "q")
            rhs = c * weighted_seminorm(kernel, u, p)
            assert lhs <= rhs * (1 + 1e-12)


def test_halo_tail_bound_dominates_enlargement():
    # energy gained by enlarging the halo is below the shell bound
    field = WeightField(LogNormal(0.7), 13)
    dom = [(-1, 1)]
    small = build_lattice(1, 0.125, dom, [(-2, 2)])
    big = build_lattice(1, 0.125, dom, [(-4, 4)])

    def tent(lat):
        x = lat.positions[:, 0]
        return GridFunction(lat, np.maximum(0.0, 1 - np.abs(x)))

    spec = _spec()
    e_small = energy_value(spec, _kernel(spec, field, small), tent(small))
    e_big = energy_value(spec, _kernel(spec, field, big), tent(big))
    delta = e_big - e_small
    assert delta >= 0
    bound = halo_tail_bound(big, field, 0.5, 2, v_max=1.0, inner_box=[(-2, 2)])
    assert delta <= bound


def test_growth_bounds():
    assert growth_bounds_hold(PowerP(2.0), 2.0)
    assert growth_bounds_hold(SmoothedPowerP(2.0, 1e-8), 2.0)
    assert growth_bounds_hold(SmoothedPowerP(1.5, 1e-8), 1.5)
    bad = CustomPotential(evaluate=lambda t: np.abs(t) ** 4, p=2.0, alpha=1.0, beta=1.0)
    assert not growth_bounds_hold(bad, 2.0)


def test_potential_basics():
    assert PowerP(2).value(np.array([0.0]))[0] == 0.0
    assert SmoothedPowerP(3, 1e-6).value(np.array([0.0]))[0] == 0.0
    with pytest.raises(ValueError):
        PowerP(1.5).derivative(np.array([1.0]))
    with pytest.raises(ValueError):
        EnergySpec(p=1.0, s=0.5, V=PowerP(2))
    with pytest.raises(ValueError):
        EnergySpec(p=2.0, s=1.5, V=PowerP(2))

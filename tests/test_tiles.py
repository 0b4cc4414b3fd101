"""Row-tiled pair sums pinned to their whole-matrix definitions."""

import numpy as np
import pytest

from fraclat import _reduction, build_lattice
from fraclat.energy import (
    EnergySpec,
    GridFunction,
    PowerP,
    energy_gradient,
    energy_value,
    gagliardo_seminorm,
    holder_chain_constant,
    kernel_matrix,
    pair_ids,
)
from fraclat.weights import (
    Constant,
    DecayingProduct,
    LogNormal,
    ShiftedPareto,
    UnitPowerLaw,
    WeightField,
    locality_scaling_sum,
    weight_pairs,
)

DISTS = [
    Constant(2.0),
    LogNormal(1.0),
    UnitPowerLaw(4.0),
    ShiftedPareto(3.0),
    DecayingProduct(LogNormal(0.5), 2.0),
]

LATTICES = {
    1: dict(d=1, eps=1 / 16, domain=[(-1, 1)], halo=[(-1.5, 1.5)]),
    2: dict(d=2, eps=1 / 4, domain=[(-1, 1)] * 2, halo=[(-1.5, 1.5)] * 2),
}


@pytest.fixture
def small_tiles(monkeypatch):
    # a 2 KiB budget splits these small lattices into many tiles
    monkeypatch.setattr(_reduction, "_TILE_BYTES", 2048)


def _whole_weights(field, za, zb):
    """The dense weight matrix from hashing every ordered pair (0 on equal sites)."""
    z1 = np.repeat(za, len(zb), axis=0)
    z2 = np.tile(zb, (len(za), 1))
    off = ~np.all(z1 == z2, axis=1)
    w = np.zeros(len(z1))
    w[off] = weight_pairs(field, z1[off], z2[off])
    return w.reshape(len(za), len(zb))


def _whole_distances(lattice, z):
    diff = (z[:, None, :] - z[None, :, :]).astype(float)
    dist = lattice.eps * np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, 1.0)
    return dist


def _whole_kernel(lattice, field, s, p, flavor):
    """The full-matrix formula that the tiled kernel build replaces."""
    z = lattice.sites[pair_ids(lattice, flavor)]
    d = lattice.dim
    k = lattice.eps ** (2 * d) * _whole_weights(field, z, z) / _whole_distances(lattice, z) ** (d + p * s)
    np.fill_diagonal(k, 0.0)
    return k


@pytest.mark.parametrize("d", [1, 2])
def test_kernel_matches_whole_matrix_formula(d, small_tiles):
    lat = build_lattice(**LATTICES[d])
    tiles = list(_reduction.triangle_tiles(lat.n_sites, 8 * d))
    lo, hi = tiles[-1]
    assert len(tiles) > 3 and hi - lo < _reduction.tile_rows(lat.n_sites - lo, 8 * d)
    for dist in DISTS:
        field = WeightField(dist, 11)
        for flavor in ("global", "local"):
            _, k = kernel_matrix(lat, field, 0.5, 2.0, flavor)
            assert np.array_equal(k, _whole_kernel(lat, field, 0.5, 2.0, flavor)), (dist, flavor)


def test_energy_matches_whole_matrix_sums():
    # real tile size: this lattice spans several energy tiles
    lat = build_lattice(1, 1 / 128, [(-1, 1)], [(-1.5, 1.5)])
    assert len(_reduction.row_tiles(lat.n_sites, lat.n_sites)) > 3
    field = WeightField(LogNormal(1.0), 4)
    spec = EnergySpec(p=3.0, s=0.4, V=PowerP(3.0))
    u = GridFunction(lat, np.random.default_rng(3).normal(size=lat.n_sites))
    kernel = kernel_matrix(lat, field, spec.s, spec.p, "global")
    _, k = kernel
    diffs = u.values[:, None] - u.values[None, :]
    value = float((k * spec.V.value(diffs)).sum())
    grad = 2.0 * (k * spec.V.derivative(diffs)).sum(axis=1)
    assert energy_value(spec, kernel, u) == pytest.approx(value, rel=1e-13, abs=0)
    np.testing.assert_allclose(energy_gradient(spec, kernel, u).values, grad, rtol=1e-13, atol=0)


def test_tiled_diagnostics_match_whole_matrix_sums(small_tiles):
    lat = build_lattice(**LATTICES[2])
    eps, d = lat.eps, lat.dim
    field = WeightField(UnitPowerLaw(4.0), 6)
    u = GridFunction(lat, np.random.default_rng(8).normal(size=lat.n_sites))

    q = lat.q_ids
    zq = lat.sites[q]
    dist = _whole_distances(lat, zq)
    vals = u.values[q]
    num = np.abs(vals[:, None] - vals[None, :]) ** 2 / dist ** (d + 0.5 * 2)
    semi = (eps ** (2 * d) * num.sum()) ** 0.5
    assert gagliardo_seminorm(lat, u, 0.5, 2.0, "q") == pytest.approx(semi, rel=1e-13)

    p, s, r, s_prime = 2.0, 0.5, 1.5, 1.0 / 3.0
    w = _whole_weights(field, zq, zq)
    beta = -d + p * r * (s - s_prime) / (p - r)
    term = np.where(w > 0, np.where(w > 0, w, 1.0) ** (-r / (p - r)) * dist**beta, 0.0)
    holder = (eps ** (2 * d) * term.sum()) ** ((p - r) / (r * p))
    assert holder_chain_constant(lat, field, s, p, r, s_prime) == pytest.approx(holder, rel=1e-13)

    w = _whole_weights(field, zq, lat.sites)
    rad = eps * np.sqrt(((zq[:, None, :] - lat.sites[None, :, :]).astype(float) ** 2).sum(axis=2))
    near = (rad > 0) & (rad < 0.6)
    kern = np.where(near, np.where(near, rad, 1.0) ** (-d + 0.5), 0.0)
    expected = eps ** (2 * d) * (w * kern).sum()
    assert locality_scaling_sum(lat, field, 0.5, 0.6) == pytest.approx(expected, rel=1e-13)

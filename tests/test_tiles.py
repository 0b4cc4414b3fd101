"""Row-tiled pair sums pinned to their whole-matrix definitions."""

from dataclasses import replace

import numpy as np
import pytest

from fraclat import _reduction, build_lattice
from fraclat.energy import (
    EnergySpec,
    FreeBlock,
    GridFunction,
    PowerK,
    PowerP,
    SmoothedPowerP,
    energy_gradient,
    energy_value,
    gagliardo_seminorm,
    held_block,
    holder_chain_constant,
    kernel_matrix,
    pair_ids,
    weighted_seminorm,
)
from fraclat.lattice import _box_points
from fraclat.linear_ops import assemble
from fraclat.weights import (
    Constant,
    DecayingProduct,
    LogNormal,
    ShiftedPareto,
    UnitPowerLaw,
    WeightField,
    _origins,
    empirical_moment,
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
    for flavor in ("global", "local"):
        # the plan that kernel_matrix runs: several triangle tiles, the last one cut short
        n = len(pair_ids(lat, flavor))
        tiles = list(_reduction.triangle_tiles(n))
        lo, hi = tiles[-1]
        assert len(tiles) > 3 and hi - lo < _reduction.tile_rows(n - lo), flavor
    for dist in DISTS:
        field = WeightField(dist, 11)
        for flavor in ("global", "local"):
            _, k = kernel_matrix(lat, field, 0.5, 2.0, flavor)
            assert np.array_equal(k, _whole_kernel(lat, field, 0.5, 2.0, flavor)), (dist, flavor)


@pytest.mark.parametrize("d", [1, 2])
def test_kernel_rows_match_full_kernel(d, small_tiles):
    lat = build_lattice(**LATTICES[d])
    for dist in (Constant(2.0), LogNormal(1.0)):
        field = WeightField(dist, 5)
        for flavor in ("global", "local"):
            ids, k = kernel_matrix(lat, field, 0.5, 2.0, flavor)
            rows = np.random.default_rng(d).permutation(ids)[: len(ids) // 2 + 1]
            assert len(_reduction.row_tiles(len(rows), len(ids))) > 1
            sums, block = kernel_matrix(lat, field, 0.5, 2.0, flavor, rows=rows)
            r = np.searchsorted(ids, rows)
            assert np.array_equal(sums, k[r].sum(axis=1)), (dist, flavor)
            assert np.array_equal(block, k[np.ix_(r, r)]), (dist, flavor)


@pytest.mark.parametrize("d", [1, 2])
def test_assemble_matches_full_kernel_formula(d, small_tiles):
    lat = build_lattice(**LATTICES[d])
    f = GridFunction(lat, np.random.default_rng(9).normal(size=lat.n_sites))
    for dist in (Constant(2.0), LogNormal(1.0)):
        field = WeightField(dist, 3)
        for flavor in ("global", "local"):
            ids, k = kernel_matrix(lat, field, 0.5, 2.0, flavor)
            free = lat.interior_ids
            # the free block is filled from several row tiles of the flavor's sites
            assert len(_reduction.row_tiles(len(free), len(ids))) > 1
            rows = np.searchsorted(ids, free)
            a = -2.0 * k[np.ix_(rows, rows)]
            np.fill_diagonal(a, 2.0 * k.sum(axis=1)[rows])
            system = assemble(lat, field, 0.5, flavor, f)
            case = (dist, flavor)
            assert np.array_equal(system.free_ids, free), case
            assert np.array_equal(system.matrix, a), case
            assert np.array_equal(system.rhs, lat.eps**d * f.values[free]), case


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


# The pair pass adds the terms of a whole-matrix sum in another order (the q/w
# form also factors out p and c0), and a free block's outer row sums lose up to
# an ulp of the whole row sums.  A pairwise sum of n terms errs by at most about
# log2(n) units of float64 roundoff of the sum of their magnitudes, and these
# sums have fewer than 2^17 terms: allow 2^5 units.
PAIR_SUM_TOL = 32 * np.finfo(float).eps


# Potentials whose pair pass takes the q/w form, and one (p < 2, no derivative)
# that the pass sums through V.value alone.
FUSED_POTENTIALS = (
    SmoothedPowerP(3.0, 1e-4),
    SmoothedPowerP(1.5, 0.1),
    SmoothedPowerP(4.0, 0.1),
    PowerP(2.0),
    PowerP(3.0),
    PowerP(4.0),
)
VALUE_ONLY_POTENTIALS = (PowerP(1.5),)


def test_every_potential_matches_whole_matrix_sums():
    # the lattice and u of test_energy_matches_whole_matrix_sums
    lat = build_lattice(1, 1 / 128, [(-1, 1)], [(-1.5, 1.5)])
    field = WeightField(LogNormal(1.0), 4)
    u = GridFunction(lat, np.random.default_rng(3).normal(size=lat.n_sites))
    zero = GridFunction(lat, np.zeros(lat.n_sites))
    for flavor in ("global", "local"):
        kernel = kernel_matrix(lat, field, 0.4, 3.0, flavor)
        ids, k = kernel
        v = u.values[ids]
        diffs = v[:, None] - v[None, :]
        for V in FUSED_POTENTIALS + VALUE_ONLY_POTENTIALS:
            spec = EnergySpec(p=3.0, s=0.4, V=V, flavor=flavor)
            case = (flavor, V)
            value = float((k * V.value(diffs)).sum())
            # a value alone on a whole kernel adds the products of the plain tiles in their order
            plain = _reduction.blocked_total(lambda lo, hi: k[lo:hi] * V.value(v[lo:hi, None] - v[None, :]),
                                             len(ids), len(ids))
            assert energy_value(spec, kernel, u) == plain, case
            assert energy_value(spec, kernel, u) == pytest.approx(value, rel=1e-13, abs=0), case
            # a held FreeBlock also sums the gradient's row sums
            assert energy_value(spec, FreeBlock(ids, k), u) == pytest.approx(value, rel=1e-13, abs=0), case
            if isinstance(V, SmoothedPowerP):
                # there c0 sum K is subtracted once, so E(0) is rounding noise
                assert energy_value(spec, kernel, zero) == 0.0, case
                assert abs(energy_value(spec, FreeBlock(ids, k), zero)) <= PAIR_SUM_TOL * V.delta**V.p * k.sum(), case
            if V in VALUE_ONLY_POTENTIALS:
                with pytest.raises(ValueError, match="SmoothedPowerP"):
                    energy_gradient(spec, kernel, u)
                continue
            terms = 2.0 * k * V.derivative(diffs)
            grad = np.zeros(lat.n_sites)
            grad[ids] = terms.sum(axis=1)
            # a row sum of terms of both signs errs relative to their magnitudes
            g_scale = np.zeros(lat.n_sites)
            g_scale[ids] = np.abs(terms).sum(axis=1)
            assert np.all(np.abs(energy_gradient(spec, kernel, u).values - grad) <= PAIR_SUM_TOL * g_scale), case
        # at p = 2 the q/w pass of a held FreeBlock adds the same products in the same order
        spec = EnergySpec(p=3.0, s=0.4, V=PowerP(2.0), flavor=flavor)
        plain = _reduction.blocked_total(lambda lo, hi: k[lo:hi] * spec.V.value(v[lo:hi, None] - v[None, :]),
                                         len(ids), len(ids))
        assert energy_value(spec, FreeBlock(ids, k), u) == plain, flavor


def _assert_reads_back(spec, spec_other, fresh, u, u_moved, case):
    """A FreeBlock from fresh() reads back its pass for a gradient at the same
    u, and sums afresh, to a fresh block's bits, at another u, V, G or f."""
    kb = fresh()
    energy_value(spec, kb, u)
    last = kb.last
    g = energy_gradient(spec, kb, u).values
    assert kb.last is last, case
    assert g.tobytes() == energy_gradient(spec, fresh(), u).values.tobytes(), case
    assert energy_value(spec, kb, u_moved) == energy_value(spec, fresh(), u_moved), case
    assert energy_gradient(spec, kb, u).values.tobytes() == g.tobytes(), case
    assert energy_value(spec_other, kb, u) == energy_value(spec_other, fresh(), u), case
    assert energy_gradient(spec, kb, u).values.tobytes() == g.tobytes(), case
    # specs that differ from spec only in G, or only in f (an equal copy is another f)
    lat = u.lattice
    others = [replace(spec, G=PowerK(0.25, 3.0)),
              replace(spec, f=GridFunction(spec.f.lattice, spec.f.values.copy())),
              replace(spec, f=GridFunction(lat, np.linspace(-1.0, 2.0, lat.n_sites)))]
    for other in others:
        energy_value(spec, kb, u)
        expected = energy_gradient(other, fresh(), u).values
        assert energy_gradient(other, kb, u).values.tobytes() == expected.tobytes(), (case, other)
        assert kb.last[1] is other, (case, other)


@pytest.mark.parametrize("d", [1, 2])
def test_free_block_energy_matches_whole_kernel(d, small_tiles):
    lat = build_lattice(**LATTICES[d])
    eps_d = lat.eps**d
    rng = np.random.default_rng(d)
    f = GridFunction(lat, rng.normal(size=lat.n_sites))
    for dist in (Constant(2.0), LogNormal(1.0), UnitPowerLaw(4.0), ShiftedPareto(3.0)):
        field = WeightField(dist, 7)
        for flavor in ("global", "local"):
            ids = pair_ids(lat, flavor)
            constraint = "dirichlet0"
            # the flavor's sites that dirichlet0 leaves free: the interior ones
            free = lat.interior_ids
            assert np.array_equal(np.intersect1d(ids, free), free)
            # the free block spans several row tiles
            assert len(_reduction.row_tiles(len(free), len(free))) > 1
            kernel = kernel_matrix(lat, field, 0.5, 3.0, flavor)
            fb = held_block(lat, field, EnergySpec(p=3.0, s=0.5, V=PowerP(3.0), flavor=flavor,
                                                   constraint=constraint))
            assert np.array_equal(fb.free, free), (dist, flavor, constraint)
            block, outer = fb.block, fb.outer
            vals = np.zeros(lat.n_sites)
            vals[free] = rng.normal(size=len(free))
            u = GridFunction(lat, vals)
            # u moved at one free site
            moved = vals.copy()
            moved[free[len(free) // 2]] += 0.5
            _, k = kernel
            v = vals[ids]
            diffs = v[:, None] - v[None, :]
            for V in FUSED_POTENTIALS + VALUE_ONLY_POTENTIALS:
                spec = EnergySpec(p=3.0, s=0.5, V=V, G=PowerK(0.5, 2.0), f=f,
                                  flavor=flavor, constraint=constraint)
                case = (dist, flavor, constraint, V)
                scale = (np.abs(k * V.value(diffs)).sum() + 2 * np.abs(k.sum(axis=1) * V.value(v)).sum()
                         + eps_d * (np.abs(spec.G.value(v)) + np.abs(v * f.values[ids])).sum())
                assert abs(energy_value(spec, fb, u) - energy_value(spec, kernel, u)) <= PAIR_SUM_TOL * scale, case
                if V in VALUE_ONLY_POTENTIALS:
                    with pytest.raises(ValueError, match="SmoothedPowerP"):
                        energy_gradient(spec, fb, u)
                    continue
                g_scale = np.zeros(lat.n_sites)
                g_scale[ids] = (2 * np.abs(k * V.derivative(diffs)).sum(axis=1)
                                + 2 * k.sum(axis=1) * np.abs(V.derivative(v))
                                + eps_d * (np.abs(spec.G.derivative(v)) + np.abs(f.values[ids])))
                # read back from the value's pass at the same u; the whole
                # kernel's gradient is also nonzero at the fixed sites
                g_block = energy_gradient(spec, fb, u).values
                g_whole = energy_gradient(spec, kernel, u).values
                assert np.all(np.abs(g_block - g_whole)[free] <= PAIR_SUM_TOL * g_scale[free]), case
                outside = np.ones(lat.n_sites, dtype=bool)
                outside[free] = False
                assert not g_block[outside].any() and not np.signbit(g_block[outside]).any(), case
                other = SmoothedPowerP(V.p, 0.5) if isinstance(V, PowerP) else PowerP(V.p + 1.0)
                spec_other = EnergySpec(p=3.0, s=0.5, V=other, flavor=flavor, constraint=constraint)
                for fresh in (lambda: FreeBlock(free, block, outer), lambda: FreeBlock(ids, k)):
                    _assert_reads_back(spec, spec_other, fresh, u, GridFunction(lat, moved), case)


@pytest.mark.parametrize("d", [1, 2])
def test_whole_kernel_reads_back_under_none(d, small_tiles):
    # none fixes no site, so minimize holds the whole kernel, and the
    # gradient is +0.0 off the flavor's sites
    lat = build_lattice(**LATTICES[d])
    rng = np.random.default_rng(10 + d)
    f = GridFunction(lat, rng.normal(size=lat.n_sites))
    field = WeightField(LogNormal(1.0), 3)
    for flavor in ("global", "local"):
        ids, k = kernel_matrix(lat, field, 0.5, 3.0, flavor)
        off = np.ones(lat.n_sites, dtype=bool)
        off[ids] = False
        vals = rng.normal(size=lat.n_sites)
        u = GridFunction(lat, vals)
        moved = vals.copy()
        moved[lat.q_ids[:2]] += (0.5, -0.5)
        for V in FUSED_POTENTIALS:
            spec = EnergySpec(p=3.0, s=0.5, V=V, G=PowerK(0.5, 2.0), f=f, flavor=flavor, constraint="none")
            spec_other = replace(spec, V=SmoothedPowerP(3.0, 0.5))
            case = (d, flavor, V)
            g = energy_gradient(spec, FreeBlock(ids, k), u).values
            assert not g[off].any() and not np.signbit(g[off]).any(), case
            assert g[ids].all(), case
            _assert_reads_back(spec, spec_other, lambda: FreeBlock(ids, k), u, GridFunction(lat, moved), case)


@pytest.mark.parametrize("d, eps", [(1, 1 / 128), (2, 1 / 10)])
def test_seminorm_and_operator_match_their_tiled_sums(d, eps):
    # real tile size: each lattice spans several row tiles
    lat = build_lattice(d, eps, [(-1, 1)] * d, [(-1.5, 1.5)] * d)
    n = lat.n_sites
    assert len(_reduction.row_tiles(n, n)) > 3
    field = WeightField(LogNormal(1.0), 4)
    # a constant u checks that the p = 2 gradient is +0.0, not -0.0
    us = [GridFunction(lat, np.random.default_rng(d).normal(size=n)), GridFunction(lat, np.full(n, 0.7))]
    for flavor in ("global", "local"):
        for p in (1.5, 2.0, 3.0):
            ids, k = kernel_matrix(lat, field, 0.5, p, flavor)
            for u in us:
                v = u.values[ids]
                total = _reduction.blocked_total(lambda lo, hi: k[lo:hi] * np.abs(v[lo:hi, None] - v[None, :]) ** p,
                                                 len(ids), len(ids))
                assert weighted_seminorm((ids, k), u, p) == total ** (1.0 / p), (flavor, p)
    # the p = 2 energy's gradient is -4 eps^d L u for the operator
    # (L u)(x) = eps^d sum_y c (u(y) - u(x)) / |x-y|^{d+2s}: 4 row sums of K (u(x) - u(y))
    kernel = kernel_matrix(lat, field, 0.5, 2.0, "global")
    k = kernel[1]
    spec = EnergySpec(p=2.0, s=0.5, V=PowerP(2.0))
    for u in us:
        vals = u.values
        op = np.empty(n)
        for lo, hi in _reduction.row_tiles(n, n):
            op[lo:hi] = (k[lo:hi] * (vals[lo:hi, None] - vals[None, :])).sum(axis=1)
        op *= 4.0
        assert energy_gradient(spec, kernel, u).values.tobytes() == op.tobytes()
    assert not np.signbit(energy_gradient(spec, kernel, us[1]).values).any()


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
    assert gagliardo_seminorm(lat, u, 0.5, 2.0) == pytest.approx(semi, rel=1e-13)

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


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("dist", DISTS, ids=lambda dist: type(dist).__name__)
def test_tiled_moment_matches_whole_pair_arrays(small_tiles, d, dist):
    # the definition the tiled fill replaces: every pair of the box at once,
    # in np.triu_indices order, one origin after the other
    field, radius, origins = WeightField(dist, 4), 3, 2
    pts = _box_points([-radius] * d, [radius] * d)
    iu, ju = np.triu_indices(len(pts), k=1)
    vals = np.concatenate([weight_pairs(field, pts[iu] + o, pts[ju] + o) ** 1.5 for o in _origins(4, origins, d)])
    est = empirical_moment(field, 1.5, radius, origins, d=d)
    expected = (vals.mean().hex(), (vals.std(ddof=1) / np.sqrt(vals.size)).hex(), vals.size)
    assert (est.mean.hex(), est.stderr.hex(), est.n) == expected

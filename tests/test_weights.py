import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclat.weights
from fraclat.errors import NumericalError
from fraclat.lattice import _box_points
from fraclat.weights import (
    AssumptionReport,
    Constant,
    DecayingProduct,
    LogNormal,
    ShiftedPareto,
    UnitPowerLaw,
    WeightField,
    check_assumption,
    critical_exponent,
    divergence_probe,
    empirical_moment,
    pair_weight_matrix,
    weight,
    weight_pairs,
)
from fraclat.weights import _ndtri, _origins

EULER_GAMMA = 0.5772156649015329

sites = st.integers(min_value=-10_000, max_value=10_000)


def test_constant():
    f = WeightField(Constant(1.0), 123)
    assert weight(f, [0], [5]) == 1.0
    assert weight(f, [3, -2], [0, 0]) == 1.0


def test_decaying_product_formula():
    f = WeightField(DecayingProduct(Constant(1.0), 3.0), 0)
    assert weight(f, [0], [2]) == pytest.approx(1 / 27, rel=1e-15)


def test_diagonal_rejected():
    f = WeightField(LogNormal(0.5), 42)
    with pytest.raises(ValueError):
        weight(f, [3], [3])


@settings(max_examples=100, deadline=None)
@given(z1=st.tuples(sites, sites), z2=st.tuples(sites, sites), seed=st.integers(0, 2**62))
def test_symmetry_and_purity(z1, z2, seed):
    if z1 == z2:
        return
    f = WeightField(LogNormal(0.5), seed)
    a = weight(f, z1, z2)
    b = weight(f, z2, z1)
    assert a > 0
    assert a == b  # bitwise
    # a second, independently constructed field with the same seed agrees exactly
    assert weight(WeightField(LogNormal(0.5), seed), z1, z2) == a


def test_pair_matrix_matches_scalar_path():
    # sorted and equal, then unsorted and overlapping site sets, d = 1 and 2
    cases = [
        (np.array([[0], [1], [2]]), np.array([[0], [1], [2]])),
        (np.array([[5], [-3], [2], [0]]), np.array([[2], [7], [-3]])),
        (np.array([[1, 0], [-2, 4], [0, 0]]), np.array([[0, 0], [1, -1], [-2, 4], [1, 0]])),
    ]
    dists = [UnitPowerLaw(4.0), Constant(3.0), LogNormal(0.8), DecayingProduct(ShiftedPareto(2.5), 1.0)]
    for dist in dists:
        f = WeightField(dist, 9)
        for za, zb in cases:
            m = pair_weight_matrix(f, za, zb)
            assert m.shape == (len(za), len(zb))
            for i in range(len(za)):
                for j in range(len(zb)):
                    if np.array_equal(za[i], zb[j]):
                        assert m[i, j] == 0.0
                    else:
                        assert m[i, j] == weight(f, za[i], zb[j])


def test_weight_pairs_broadcast_matches_flat():
    # zb repeats sites of za, so some pairs are equal sites; coordinates are
    # negative, and some are large enough that the hash words wrap around
    rng = np.random.default_rng(4)
    dists = [Constant(2.0), LogNormal(0.8), UnitPowerLaw(3.0), ShiftedPareto(2.5),
             DecayingProduct(LogNormal(0.5), 1.5)]
    for d in (1, 2):
        za = np.concatenate([rng.integers(-5, 5, size=(6, d)), rng.integers(-2**40, 2**40, size=(3, d))])
        zb = np.concatenate([za[[4, 0, 7]], rng.integers(-5, 5, size=(5, d))])
        z1 = np.repeat(za, len(zb), axis=0)
        z2 = np.tile(zb, (len(za), 1))
        equal = np.all(z1 == z2, axis=1)
        assert equal.sum() >= 3 and not equal.all()
        for dist in dists:
            f = WeightField(dist, 2**40 + 3)
            flat = weight_pairs(f, z1, z2)
            assert flat.shape == (len(z1),)
            assert np.all(flat[equal] == 0.0) and np.all(flat[~equal] > 0.0), (dist, d)
            w = weight_pairs(f, za[:, None], zb[None])
            assert w.shape == (len(za), len(zb))
            assert np.array_equal(w, flat.reshape(w.shape)), (dist, d)
            assert np.array_equal(weight_pairs(f, zb[:, None, None], za[None, :, None]), w.T[:, :, None])
            assert np.array_equal(pair_weight_matrix(f, za, zb), w), (dist, d)


def test_ndtri_matches_scipy():
    # the numpy port of Cephes ndtri against scipy's; scipy is imported here only
    from scipy.special import ndtri

    k = np.random.default_rng(8).integers(0, 2**53, 2**20)
    u = (k + 0.5) * 2.0**-53  # the uniforms weight_pairs makes
    ours, ref = _ndtri(u), ndtri(u)
    central = (u > math.exp(-2)) & (u <= 1 - math.exp(-2))
    assert central.sum() > 0.7 * u.size
    assert np.array_equal(ours[central], ref[central])
    # numpy's SIMD log may differ from libm's by 1 ulp; the roundings of
    # sqrt(-2 log y) and x - log(x)/x carry that into a few ulp of a rare tail value
    assert np.count_nonzero(ours != ref) <= 1e-4 * u.size
    assert np.all(np.abs(ours - ref) <= 8 * np.spacing(np.abs(ref)))

    e2 = 0.13533528323661269189
    edges = np.array([2.0**-54, np.nextafter(e2, 0), e2, np.nextafter(e2, 1),
                      np.nextafter(1 - e2, 0), 1 - e2, np.nextafter(1 - e2, 1),
                      1e-15, 1.3e-14, 1 - 2.0**-53, 0.0, 1.0])
    assert np.array_equal(_ndtri(edges), ndtri(edges))
    assert _ndtri(edges)[-2:].tolist() == [-np.inf, np.inf]
    # the 2-D tiles weight_pairs passes keep their shape
    tile = u[:6000].reshape(3, 2000)
    assert np.array_equal(_ndtri(tile), ours[:6000].reshape(3, 2000))


def test_ndtri_any_layout_gives_the_c_ordered_bits():
    # the tails must be written into x itself, not into a copy of a
    # non-C-ordered x, which would leave the central formula's -2.32447 at u = 0.01
    u = np.array([[0.01, 0.5, 0.99], [0.3, 0.05, 0.97]])
    assert np.array_equal(_ndtri(np.asfortranarray(u)), _ndtri(u))
    grid = np.linspace(1e-6, 1 - 1e-6, 60).reshape(6, 10)  # both tails and the center
    for view in (np.asfortranarray(grid), grid.T, grid.T[::2], grid[::2].T, grid[:, ::3], grid[::-1]):
        assert np.array_equal(_ndtri(view), _ndtri(np.ascontiguousarray(view)))


def test_top_hash_gives_finite_weight(monkeypatch):
    # the top 53 hash bits all ones make (k + 1/2) 2^-53 round to 1.0, where ndtri is inf
    real_hash = fraclat.weights._hash

    def all_ones(seed, z1, z2):
        h, diffs, equal = real_hash(seed, z1, z2)
        h[...] = np.iinfo(np.uint64).max
        return h, diffs, equal

    monkeypatch.setattr(fraclat.weights, "_hash", all_ones)
    for dist in (Constant(2.0), LogNormal(1.0), UnitPowerLaw(4.0), ShiftedPareto(2.5),
                 DecayingProduct(LogNormal(1.0), 3.0)):
        w = weight(WeightField(dist, 0), [0], [3])
        assert math.isfinite(w) and w > 0.0, dist


_PIN_DISTS = {
    "constant": Constant(2.0),
    "lognormal": LogNormal(1.0),
    "lognormal_half": LogNormal(0.5),
    "unit_power_law": UnitPowerLaw(4.0),
    "shifted_pareto": ShiftedPareto(2.5),
    "decaying_lognormal": DecayingProduct(LogNormal(1.0), 3.0),
    "decaying_power_law": DecayingProduct(UnitPowerLaw(3.0), 1.5),
}

# sha256 prefixes of weight tiles and of _ndtri's tails, recorded from the
# implementation with masked (where=) ufuncs: a faster hash, uniform map,
# _ndtri or LogNormal must give every weight the same bits
PINNED_TILES = {
    1: {
        "constant": "6f0c36ecdd87fe59",
        "lognormal": "0ed9d984dfda336d",
        "lognormal_half": "e7bb240317c1d456",
        "unit_power_law": "f700d4670c794343",
        "shifted_pareto": "637aa3d8397ae32c",
        "decaying_lognormal": "8eb99d9590b8cbec",
        "decaying_power_law": "b114381709689dbe",
    },
    2: {
        "constant": "fd990ba3358aea1d",
        "lognormal": "833d2adf386e031f",
        "lognormal_half": "0878b4837c1cb2a7",
        "unit_power_law": "2a5e53ad2baac7be",
        "shifted_pareto": "fef89528305d465a",
        "decaying_lognormal": "11e651ccbc615f6d",
        "decaying_power_law": "770075ea5fc43dd4",
    },
}
PINNED_NDTRI = "eb46a6d150a96df5"


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _pin_sites(d):
    # unsorted, overlapping row and column sets, with negative and far coordinates
    if d == 1:
        za = np.arange(40, -24, -1).reshape(-1, 1)
        zb = np.concatenate([np.arange(-260, 252), [2**40, 3 - 2**40]]).reshape(-1, 1)
    else:
        za = _box_points([-3, -4], [4, 3])[::-1]
        zb = np.concatenate([_box_points([-12, -10], [11, 9]), [[2**40, -5], [-3, -(2**40)]]])
    return za, zb


@pytest.mark.parametrize("d", sorted(PINNED_TILES))
def test_pair_weight_tiles_pinned(d):
    # every distribution's weights keep their bits, tails of LogNormal's ndtri included
    za, zb = _pin_sites(d)
    got = {
        name: _digest(pair_weight_matrix(WeightField(dist, seed), za, zb) for seed in (0, 2**62 + 5))
        for name, dist in _PIN_DISTS.items()
    }
    assert got == PINNED_TILES[d]


def test_ndtri_tails_pinned():
    e2 = 0.13533528323661269189
    k = np.arange(4096)
    u = np.concatenate([
        [0.0, 1.0, 2.0**-54, np.nextafter(e2, 0), e2, np.nextafter(e2, 1),
         np.nextafter(1 - e2, 0), 1 - e2, np.nextafter(1 - e2, 1), 1 - 2.0**-53],
        2.0 ** -np.arange(40.0, 1075.0, 7.0),  # the far lower tail, down to subnormals
        (k + 0.5) * 2.0**-53,  # the smallest uniforms weight_pairs makes ...
        (2**53 - 1 - k + 0.5) * 2.0**-53,  # ... and the largest
        np.linspace(0.0, 1.0, 4097),
    ])
    assert _digest([_ndtri(u)]) == PINNED_NDTRI


def test_origins_pinned():
    # the (seed, i, i + 7) pair hashes behind every moment estimate and probe
    assert np.array_equal(_origins(0, 5, 1), [[-405], [-439], [-619], [641], [-884]])
    assert np.array_equal(_origins(3, 5, 1), [[-83], [34], [-51], [593], [-901]])
    assert np.array_equal(_origins(0, 5, 2), [[-405, 476], [-439, -515], [-619, -170], [641, -337], [-884, -851]])
    assert np.array_equal(_origins(3, 5, 2), [[-83, -70], [34, 41], [-51, -158], [593, -922], [-901, -806]])


def test_moment_constant():
    est = empirical_moment(WeightField(Constant(2.0), 0), -1.0, 3, 2)
    assert est.mean == pytest.approx(0.5, abs=1e-15)
    assert est.stderr == pytest.approx(0.0, abs=1e-15)


def test_moment_lognormal_raw_mean():
    # E c^2 = e^{sigma^2} of the mean-one LogNormal: the square of its raw mean e^{sigma^2 / 2}
    est = empirical_moment(WeightField(LogNormal(1.0), 7), 2.0, 40, 5)
    assert abs(est.mean - math.e) < 3 * est.stderr


def test_moment_unit_power_law():
    # c = (4/3) U^{1/3}, so E c^{-2} = (9/16) E U^{-2/3} = 27/16
    est = empirical_moment(WeightField(UnitPowerLaw(3.0), 3), -2.0, 40, 5)
    assert abs(est.mean - 27 / 16) < 3 * est.stderr


def test_normalization_gives_unit_mean():
    for dist in (LogNormal(1.0), UnitPowerLaw(4.0), ShiftedPareto(2.5)):
        est = empirical_moment(WeightField(dist, 11), 1.0, 40, 4)
        assert abs(est.mean - 1.0) < 3 * est.stderr


def test_moment_overflow_reported():
    f = WeightField(UnitPowerLaw(0.01), 1)
    with pytest.raises(NumericalError):
        empirical_moment(f, -500.0, 5, 1)


def test_moment_of_underflowed_weight_reported():
    # some c underflows to 0 here, so c^q divides by zero; the suite turns
    # that warning into an error, which must not come before NumericalError
    f = WeightField(UnitPowerLaw(0.01), 1)
    with pytest.raises(NumericalError):
        empirical_moment(f, -500.0, 5, 1, d=2)


def test_stationarity_shift_invariance():
    base = empirical_moment(WeightField(LogNormal(0.7), 21), 1.0, 24, 1)
    for origins in range(2, 7):
        shifted = empirical_moment(WeightField(LogNormal(0.7), 21 + origins), 1.0, 24, 1)
        tol = 3 * math.hypot(base.stderr, shifted.stderr)
        assert abs(base.mean - shifted.mean) < tol


def test_check_assumption_examples():
    rep = check_assumption(2, 0.5, 1, 1.5)
    assert rep.satisfied and rep.witness_r is not None
    assert rep.witness_r <= 2 * 1.5 / 2.5 + 1e-12
    assert 1 < rep.witness_r < 2
    assert not check_assumption(2, 0.5, 2, 1.9).satisfied  # d/(ps) = 2 > 1.9
    rep_inf = check_assumption(2, 0.5, 1, math.inf)
    assert rep_inf.satisfied and 1 < rep_inf.witness_r < 2
    # q_max = 1 > d/(ps) = 0.74, but r/(p-r) > 1/(p-1) = 2 for every r in (1, p)
    assert check_assumption(1.5, 0.9, 1, 1.0) == AssumptionReport(False, None)


def test_critical_exponent_values():
    assert critical_exponent(2, 0.5, 2, 4) == pytest.approx(2.0)
    assert critical_exponent(2, 0.5, 1, 3) == pytest.approx(3.0)
    assert critical_exponent(2, 0.25, 1, math.inf) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        critical_exponent(2, 0.5, 1, math.inf)  # denominator d - sp = 0


def test_critical_exponent_matches_symbolic_limit():
    d, p, s = 1, 2.0, 0.25
    q = sympy.symbols("q", positive=True)
    expr = d * p * q / (2 * d + d * q - s * p * q)
    lim = float(sympy.limit(expr, q, sympy.oo))
    assert critical_exponent(p, s, d, math.inf) == pytest.approx(lim)
    # the finite-q formula approaches the limit monotonically from below here
    assert critical_exponent(p, s, d, 1000.0) == pytest.approx(lim, rel=1e-2)


# (mean, stderr, n) of empirical_moment and the divergence_probe totals, as
# float.hex, recorded before both built their box of offsets with one grid for
# every d
PINNED_DIAGNOSTICS = {
    1: ("0x1.39bb2719b2272p+0", "0x1.046afc1df01f3p-2", 42, ["0x1.493f995b5752ap+1", "0x1.ef5b867aaed24p+1"]),
    2: ("0x1.5313378b32d68p+0", "0x1.e7d0545352b6ap-5", 2352, ["0x1.7e4cb9d14a3f2p+2", "0x1.602fac4a9e5aap+3"]),
}


@pytest.mark.parametrize("d", sorted(PINNED_DIAGNOSTICS))
def test_diagnostics_pinned(d):
    field = WeightField(LogNormal(1.0), 3)
    est = empirical_moment(field, 1.5, 3, 2, d=d)
    probe = divergence_probe(field, 2.0, 0.5, (2, 5), d=d, origin_samples=2)
    assert (est.mean.hex(), est.stderr.hex(), est.n, [t.hex() for _, t in probe]) == PINNED_DIAGNOSTICS[d]


def test_divergence_probe_constant():
    f = WeightField(Constant(1.0), 0)
    out = dict(divergence_probe(f, 2, 0.5, [1, 10, 100, 1000]))
    assert out[1] == pytest.approx(2.0)
    for r in (10, 100, 1000):
        assert out[r] == pytest.approx(2 * (math.log(r) + EULER_GAMMA), rel=0.02)
    vals = [out[r] for r in (1, 10, 100, 1000)]
    assert vals == sorted(vals)


def test_divergence_probe_summable_regime():
    f = WeightField(DecayingProduct(Constant(1.0), 2.0), 0)
    out = dict(divergence_probe(f, 2, 0.5, [10, 100, 1000]))
    # c decays like |z|^{-2}, so S(R) = sum c |z|^{-1} converges
    assert out[1000] - out[100] < 0.05 * out[100]


def test_shifted_pareto_needs_heavy_tail_guard():
    with pytest.raises(ValueError):
        ShiftedPareto(0.9)


@pytest.mark.parametrize(
    "law, param",
    [(UnitPowerLaw, -0.5), (UnitPowerLaw, 0.0), (UnitPowerLaw, math.inf), (LogNormal, 40.0), (LogNormal, math.inf),
     (LogNormal, math.nan), (ShiftedPareto, math.inf)],
)
def test_law_without_a_finite_positive_scale_is_refused(law, param):
    # UnitPowerLaw(-0.5) has mean -1, so its weights and kernel entries were
    # negative; exp(40^2 / 2) overflows
    with pytest.raises(ValueError, match="normalizing scale"):
        WeightField(law(param), 1)


def test_unit_power_law_needs_a_positive():
    # a < -1 gives a finite positive scale, but not the law of the docstring's moments
    with pytest.raises(ValueError, match="needs a > 0"):
        UnitPowerLaw(-2.0)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_lognormal_tile_peak():
    # one row tile of the finest homogenize-d1 block (eps = 1/512, halo [-2, 2]):
    # 7 rows of 2049 sites.  The hash, its coordinate differences and the inverse
    # normal CDF's central-formula temporaries are each dropped after their last
    # use; held to the end they took about 8 times the tile's bytes
    za = np.arange(-1024, -1017, dtype=np.int64).reshape(7, 1)
    zb = np.arange(-1024, 1025, dtype=np.int64).reshape(2049, 1)
    field = WeightField(LogNormal(1.0), 3)
    w, peak = _traced_peak(pair_weight_matrix, field, za, zb)
    assert w.shape == (7, 2049)
    assert peak < 6 * w.nbytes


def test_moment_bytes_per_pair():
    # the c^q values (8 bytes a pair) and the deviations that std forms from
    # them (8 more), filled tile by tile; every pair at once took about 120
    radius = 20
    n_pts = (2 * radius + 1) ** 2
    n_pairs = n_pts * (n_pts - 1) // 2
    est, peak = _traced_peak(empirical_moment, WeightField(LogNormal(1.0), 3), 1.0, radius, 1, 2)
    assert est.n == n_pairs
    assert peak < 20 * n_pairs

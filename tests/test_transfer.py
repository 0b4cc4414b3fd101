import numpy as np
import pytest

from fraclat import build_lattice
from fraclat.energy import GridFunction, PowerP, lq_norm
from fraclat.transfer import (
    _GAUSS_W,
    _GAUSS_X,
    ContinuumFunction,
    average,
    continuum_energy,
    embed,
    pc_l2_distance,
    sample,
)
from fraclat.study import tent_function


def test_gauss_nodes_are_leggauss_bits():
    # the literals stand in for leggauss(5), so numpy.polynomial is never imported at start-up
    x, w = np.polynomial.legendre.leggauss(5)
    assert [v.hex() for v in _GAUSS_X] == [v.hex() for v in x]
    assert [v.hex() for v in _GAUSS_W] == [v.hex() for v in w]


def test_embed_half_open_cells():
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    u = GridFunction(lat, [1.0, 2.0, 7.0, 3.0, 4.0])
    f = embed(u)
    assert f([[0.24]])[0] == 7.0  # still in the cell of site 0
    assert f([[0.25]])[0] == 3.0  # the tie goes to the right cell
    assert f([[-0.25]])[0] == 7.0  # left edge belongs to the cell of site 0
    assert f([[-0.26]])[0] == 2.0


def test_embed_constant_and_norm_preservation():
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    rng = np.random.default_rng(0)
    u = GridFunction(lat, rng.normal(size=lat.n_sites))
    f = embed(u)
    # exact: cells have volume eps, so the L^q norms over the cells of Q^eps agree
    for q in (1.0, 2.0, 3.0):
        cell_mids = lat.positions[lat.q_ids, 0].reshape(-1, 1)
        vals = f(cell_mids)
        norm = (lat.eps * np.sum(np.abs(vals) ** q)) ** (1 / q)
        assert norm == pytest.approx(lq_norm(lat, u, q), rel=1e-14)
    const = embed(GridFunction(lat, np.full(lat.n_sites, 3.3)))
    assert np.all(const(rng.uniform(-1, 1, size=(20, 1))) == 3.3)


def test_average_examples():
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    lin = ContinuumFunction(evaluate=lambda p: p[:, 0], dim=1)
    assert np.allclose(average(lin, lat).values, lat.positions[:, 0], rtol=1e-14)
    const = ContinuumFunction(evaluate=lambda p: np.full(p.shape[0], 2.5), dim=1)
    assert np.allclose(average(const, lat).values, 2.5)


def test_duality_identity():
    # <R* v, f>_{L2} = eps^d sum v * (R f), both sides computed independently
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    rng = np.random.default_rng(1)
    v = GridFunction(lat, rng.normal(size=lat.n_sites))
    f = ContinuumFunction(evaluate=lambda p: np.sin(2.0 * p[:, 0]) + p[:, 0] ** 3, dim=1)
    rf = average(f, lat)
    rhs = lat.eps * float(v.values @ rf.values)
    # left side: integrate R*v * f over each cell by high-order quadrature
    from numpy.polynomial.legendre import leggauss

    xg, wg = leggauss(12)
    lhs = 0.0
    for pos, val in zip(lat.positions[:, 0], v.values):
        pts = pos + (lat.eps / 2) * xg
        lhs += (lat.eps / 2) * float(wg @ f(pts.reshape(-1, 1))) * val
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_sample():
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    assert np.all(sample(ContinuumFunction(lambda p: np.full(p.shape[0], 3.0), dim=1), lat).values == 3.0)
    lin = sample(ContinuumFunction(lambda p: p[:, 0], dim=1), lat)
    assert np.allclose(lin.values, [-1, -0.5, 0, 0.5, 1])


def test_continuum_energy_constant_zero():
    const = ContinuumFunction(lambda p: np.ones(p.shape[0]), dim=1, lipschitz_const=0.0)
    br = continuum_energy(const, 0.5, 2.0, PowerP(2), (-1, 1), quad_n=32)
    assert br.low == 0.0 and br.high == 0.0


def test_continuum_energy_interval_and_width_scaling():
    tent = tent_function((-2.0, 2.0))
    widths, hs = [], []
    for quad_n in (40, 80, 160, 320):
        br = continuum_energy(tent, 0.5, 2.0, PowerP(2), (-2, 2), quad_n=quad_n)
        assert br.low <= br.high
        widths.append(br.high - br.low)
        hs.append(4.0 / quad_n)
    fit = np.polyfit(np.log(hs), np.log(widths), 1)[0]
    assert fit == pytest.approx(2.0 - 1.0, rel=0.2)  # width ~ h^{p - ps}, the strip being 3h wide


def test_continuum_energy_quadrature_refinement():
    tent = tent_function((-2.0, 2.0))
    brackets = [
        continuum_energy(tent, 0.5, 2.0, PowerP(2), (-2, 2), quad_n=n) for n in (64, 128, 256)
    ]
    lo = max(b.low for b in brackets)
    hi = min(b.high for b in brackets)
    assert lo <= hi  # all brackets overlap


def test_continuum_energy_requires_lipschitz():
    rough = ContinuumFunction(lambda p: np.sign(p[:, 0]), dim=1)
    with pytest.raises(ValueError):
        continuum_energy(rough, 0.5, 2.0, PowerP(2), (-1, 1))


def test_continuum_energy_needs_positive_near_diagonal_exponent():
    # at s = 1 the bracket's exponent p - ps is 0; the check comes before any
    # arithmetic, so no division by zero warns first
    tent = tent_function((-1.0, 1.0))
    with pytest.raises(ValueError, match="p\\(1-s\\) > 0"):
        continuum_energy(tent, 1.0, 2.0, PowerP(2), (-1, 1), quad_n=16)


def test_continuum_energy_is_one_dimensional():
    plane = ContinuumFunction(lambda p: p[:, 0] + p[:, 1], dim=2, lipschitz_const=2.0)
    with pytest.raises(NotImplementedError, match="d=1"):
        continuum_energy(plane, 0.5, 2.0, PowerP(2), (-1, 1), quad_n=16)


@pytest.mark.parametrize("quad_n", [1, 2, 3])
def test_continuum_energy_without_a_far_panel_pair(quad_n):
    # no two of fewer than four panels lie three apart, so the whole integral
    # is the near-diagonal strip: low is 0 and high still bounds the energy
    tent = tent_function((-1.0, 1.0))
    br = continuum_energy(tent, 0.5, 2.0, PowerP(2), (-1, 1), quad_n=quad_n)
    assert br.low == 0.0
    assert br.high >= continuum_energy(tent, 0.5, 2.0, PowerP(2), (-1, 1), quad_n=64).low


def test_pc_l2_distance_needs_one_dimension():
    line = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    plane = build_lattice(2, 0.5, [(-1, 1)] * 2, [(-1, 1)] * 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        pc_l2_distance(GridFunction(line, np.zeros(line.n_sites)), GridFunction(plane, np.zeros(plane.n_sites)),
                       [(-1, 1)])


def test_pc_l2_distance_exact():
    lat1 = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    lat2 = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    u1 = GridFunction(lat1, np.ones(lat1.n_sites))
    u2 = GridFunction(lat2, np.zeros(lat2.n_sites))
    assert pc_l2_distance(u1, u2, [(-1, 1)]) == pytest.approx(np.sqrt(2.0), rel=1e-14)
    # step functions: embeddings disagree exactly on [-0.25, -0.125)
    step1 = GridFunction(lat1, np.where(lat1.positions[:, 0] >= 0, 1.0, 0.0))
    step2 = GridFunction(lat2, np.where(lat2.positions[:, 0] >= 0, 1.0, 0.0))
    assert pc_l2_distance(step1, step2, [(-1, 1)]) == pytest.approx(np.sqrt(0.125), rel=1e-14)


def test_d2_average_and_distance_pinned():
    # float.hex values recorded before both functions built their tensor grids
    # with lattice.grid_points.  f takes only + and *, so no libm call moves a
    # bit; the box is not square and the cell grids are not nested, so points
    # with swapped axes would change the distance.
    box = [(-1, 1), (-0.5, 0.5)]
    coarse, fine = (build_lattice(2, eps, box, [(-1.5, 1.5), (-1, 1)]) for eps in (0.25, 0.1))
    f = ContinuumFunction(lambda x: x[:, 0] * x[:, 0] * x[:, 0] - 2.0 * x[:, 0] * x[:, 1] * x[:, 1] + x[:, 1], 2)
    u_coarse, u_fine = average(f, coarse), average(f, fine)
    assert [u_coarse.values[i].hex() for i in (0, 17, 100)] == [
        "-0x1.6200000000000p+0", "0x1.8a55555555552p+0", "-0x1.92aaaaaaaaaa7p-3"]
    assert pc_l2_distance(u_coarse, u_fine, box).hex() == "0x1.876cbb98d8684p-3"

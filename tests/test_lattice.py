import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat import build_lattice
from fraclat.errors import CapacityError


def test_sites_d1():
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    assert np.array_equal(lat.positions.ravel(), [-1, -0.5, 0, 0.5, 1])
    # Q open: the endpoints are excluded from Q's sites
    assert np.array_equal(lat.positions[lat.q_ids].ravel(), [-0.5, 0, 0.5])


@pytest.mark.parametrize(
    "d, eps, halo",
    [
        (1, 0.25, [(-1.5, 0.75)]),
        (1, 0.5, [(-3, -0.5)]),
        (2, 0.25, [(-1, 0.5), (-0.75, 1.25)]),
        (2, 0.5, [(-2.5, -0.5), (-1, 1)]),
    ],
)
def test_sites_match_product_reference(d, eps, halo):
    lat = build_lattice(d, eps, halo, halo)
    b = np.asarray(halo, dtype=float)
    ranges = [range(int(np.ceil(lo / eps)), int(np.floor(hi / eps)) + 1) for lo, hi in b]
    reference = np.array(list(itertools.product(*ranges)), dtype=np.int64).reshape(-1, d)
    assert lat.sites.dtype == np.int64 and lat.sites.flags.c_contiguous
    assert np.array_equal(lat.sites, reference)


def test_boundary_layer_d1():
    # cube (-0.5) + [-0.5, 0.5] = [-1, 0] touches the boundary point -1
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    assert np.array_equal(lat.positions[lat.interior_ids].ravel(), [0])


def _brute_force_classify(d, eps, q, sites):
    """Independent classification: boundary iff the closed cube eps*z + [-eps, eps]^d
    meets the boundary of the box q; and the sites inside the open box q."""
    q = np.asarray(q, dtype=float).reshape(d, 2)
    boundary, interior, exterior, in_qs = [], [], [], []
    for i, z in enumerate(sites):
        pos = eps * np.asarray(z, dtype=float)
        lo, hi = pos - eps, pos + eps
        # the cube meets closure(Q) but is not strictly inside the open box
        meets = np.all((lo <= q[:, 1]) & (hi >= q[:, 0]))
        inside = np.all((lo > q[:, 0]) & (hi < q[:, 1]))
        in_q = np.all((pos > q[:, 0]) & (pos < q[:, 1]))
        if in_q:
            in_qs.append(i)
        if meets and not inside:
            boundary.append(i)
        elif in_q:
            interior.append(i)
        else:
            exterior.append(i)
    return boundary, interior, exterior, in_qs


def _assert_brute_force(eps, q, halo):
    """Check interior_ids and q_ids against _brute_force_classify; returns the
    lattice and the brute-force exterior sites."""
    lat = build_lattice(2, eps, q, halo)
    _, interior, exterior, in_q = _brute_force_classify(2, eps, q, lat.sites)
    assert list(lat.interior_ids) == interior
    assert list(lat.q_ids) == in_q
    return lat, exterior


def test_boundary_layer_d2_brute_force():
    lat, exterior = _assert_brute_force(1.0, [(0, 3), (0, 3)], [(0, 3), (0, 3)])
    assert lat.n_sites == 16 and not exterior
    # the four strictly inner grid points belong to Q even though their unit
    # cubes reach the boundary of the 3x3 box
    q_sites = {tuple(z) for z in lat.sites[lat.q_ids]}
    assert q_sites == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_exterior_d2_brute_force():
    # a halo wider than Q on both axes and off center holds exterior sites
    _, exterior = _assert_brute_force(0.5, [(0, 3), (-1, 1)], [(-1, 4), (-2, 2)])
    assert exterior


def test_errors():
    with pytest.raises(ValueError):
        build_lattice(1, -0.5, [(-1, 1)], [(-1, 1)])
    with pytest.raises(ValueError):
        build_lattice(1, 0.5, [(-1, 1)], [(-0.5, 1)])  # halo smaller than domain
    with pytest.raises(ValueError):
        build_lattice(3, 0.5, [(-1, 1)] * 3, [(-1, 1)] * 3)
    with pytest.raises(CapacityError):
        build_lattice(1, 1e-9, [(-1, 1)], [(-1, 1)])


def test_site_ids_bijection():
    lat = build_lattice(2, 0.5, [(0, 2), (0, 2)], [(-1, 3), (-1, 3)])
    ids = lat.site_ids(lat.sites)
    assert np.array_equal(ids, np.arange(lat.n_sites))
    with pytest.raises(ValueError):
        lat.site_ids(np.array([[99, 0]]))


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=5),
    a=st.floats(min_value=-2.0, max_value=-0.25),
    b=st.floats(min_value=0.25, max_value=2.0),
)
def test_partition_and_neighborhood(k, a, b):
    eps = 2.0**-k
    lat = build_lattice(1, eps, [(a, b)], [(a - 1, b + 1)])
    assert np.array_equal(np.intersect1d(lat.q_ids, lat.interior_ids), lat.interior_ids)
    # the sites of Q that dirichlet0 fixes, the boundary layer, sit within
    # sqrt(d)*eps of the boundary of Q; the interior ones sit farther
    for pos in lat.positions[np.setdiff1d(lat.q_ids, lat.interior_ids)].ravel():
        assert min(abs(pos - a), abs(pos - b)) <= eps * (1 + 1e-12)
    for pos in lat.positions[lat.interior_ids].ravel():
        assert min(abs(pos - a), abs(pos - b)) >= eps * (1 - 1e-12)


def test_refinement_and_measure():
    q = [(-1.0, 1.0)]
    counts = []
    for k in (2, 3, 4, 5, 6):
        eps = 2.0**-k
        lat = build_lattice(1, eps, q, q)
        counts.append(len(lat.q_ids))
        # |Q|_eps -> |Q| with relative error below 3 * eps * perimeter / |Q|
        assert abs(lat.eps ** lat.dim * len(lat.q_ids) - 2.0) / 2.0 < 3 * eps * 2 / 2.0
    for small, big in zip(counts, counts[1:]):
        assert big >= 2 * small

import itertools
import weakref
from collections import Counter, deque
from dataclasses import replace

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
    energy_value,
    kernel_matrix,
    pair_ids,
)
from fraclat.errors import NumericalError
from fraclat.linear_ops import assemble, solve
from fraclat.minimize import MinimizeOptions, _two_loop, minimize
from fraclat.weights import Constant, LogNormal, WeightField


def _spec(**kw):
    base = dict(p=2, s=0.5, V=PowerP(2), f=None, flavor="global", constraint="dirichlet0")
    base.update(kw)
    return EnergySpec(**base)


def _doubled(lat, f):
    """V = t^2 with f doubled: twice the p=2 functional (with its one-half
    pair factor) whose stationarity is the assembled weak form A u = b."""
    return _spec(V=PowerP(2), f=GridFunction(lat, 2.0 * f.values))


def test_zero_forcing_gives_zero():
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.5), 1)
    u, stats = minimize(_spec(f=GridFunction(lat, np.zeros(lat.n_sites))), field, MinimizeOptions(grad_tol=1e-10))
    assert np.all(u.values == 0.0)
    assert stats.final_energy == 0.0


def test_p2_matches_cg():
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(1.0), 5)
    f = GridFunction(lat, np.ones(lat.n_sites))
    system = assemble(lat, field, 0.5, "global", f)
    u_cg, _ = solve(system, tol=1e-12)
    # at grad_tol 2e-10 (1e-10 on the half functional) L-BFGS stalls at grad sup 7.2e-10
    u_min, stats = minimize(_doubled(lat, f), field, MinimizeOptions(grad_tol=1e-9, max_iter=2000))
    assert np.abs(u_cg.values - u_min.values).max() <= 1e-8


def test_p4_single_site_root():
    # one free site: stationarity is a scalar cubic with a closed-form root
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    f = GridFunction(lat, np.ones(lat.n_sites))
    field = WeightField(Constant(1.0), 0)
    spec = _spec(p=4, V=PowerP(4), f=f)
    u, _ = minimize(spec, field, MinimizeOptions(grad_tol=1e-14, max_iter=2000))
    # 2 eps^2 sum_y 4 u^3 / |y|^3 = eps  =>  u = (eps / coeff)^{1/3}
    coeff = 2 * 0.25 * 4 * (1 / 0.125 + 1 / 0.125 + 1 / 1 + 1 / 1)
    oracle = (0.5 / coeff) ** (1 / 3)
    center = lat.interior_ids[0]
    assert u.values[center] == pytest.approx(oracle, abs=1e-8)


def test_energy_monotone_along_iterations(monkeypatch):
    import fraclat.minimize as mz

    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.8), 2)
    f = GridFunction(lat, np.ones(lat.n_sites))
    spec = _spec(p=3, V=PowerP(3), f=f, G=PowerK(0.3, 2.0))
    energies = []
    real_gradient = mz.energy_gradient

    # the gradient is taken at the start and at accepted iterates only
    def tracking(spec_, kernel_, u_):
        energies.append(energy_value(spec_, kernel_, u_))
        return real_gradient(spec_, kernel_, u_)

    monkeypatch.setattr(mz, "energy_gradient", tracking)
    _, stats = minimize(spec, field, MinimizeOptions(grad_tol=1e-8, max_iter=500))
    assert len(energies) == stats.iters + 1 > 2
    assert all(later <= earlier for earlier, later in zip(energies, energies[1:]))


def test_gradient_only_at_accepted_points(monkeypatch):
    import fraclat.minimize as mz

    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.8), 2)
    spec = _spec(p=3, V=PowerP(3), f=GridFunction(lat, np.ones(lat.n_sites)), G=PowerK(0.3, 2.0))
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(mz, "energy_value", counting("value", mz.energy_value))
    monkeypatch.setattr(mz, "energy_gradient", counting("gradient", mz.energy_gradient))
    _, stats = minimize(spec, field, MinimizeOptions(grad_tol=1e-8, max_iter=500))
    # some line-search trial was rejected, and no gradient was spent on it
    assert calls["gradient"] < calls["value"]
    assert calls["gradient"] == stats.iters + 1
    assert stats.values == calls["value"]
    assert stats.backtracks == stats.values - stats.iters - 1 > 0


def test_minimize_builds_one_kernel_and_drops_it(monkeypatch):
    import fraclat.energy as en

    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.8), 2)
    spec = _spec(p=3, V=PowerP(3), f=GridFunction(lat, np.ones(lat.n_sites)))
    refs = []

    def recording(*args):
        out = kernel_matrix(*args)
        refs.append(weakref.ref(out[1]))
        return out

    monkeypatch.setattr(en, "kernel_matrix", recording)
    _, stats = minimize(spec, field, MinimizeOptions(grad_tol=1e-8, max_iter=500))
    assert stats.iters > 1
    assert len(refs) == 1
    assert refs[0]() is None


def _recording_kernels(monkeypatch):
    """Patch the kernel_matrix through which held_block builds minimize's
    kernel to record (args, shape, weakref) of each array it returns."""
    import fraclat.energy as en

    calls = []

    def recording(*args):
        out = kernel_matrix(*args)
        calls.append((args, out[1].shape, weakref.ref(out[1])))
        return out

    monkeypatch.setattr(en, "kernel_matrix", recording)
    return calls


@pytest.mark.parametrize("constraint", ["dirichlet0"])
def test_minimize_holds_free_block_and_drops_it(monkeypatch, constraint):
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1.5, 1.5)])
    field = WeightField(LogNormal(0.8), 2)
    spec = _spec(p=3, V=PowerP(3), f=GridFunction(lat, np.ones(lat.n_sites)), constraint=constraint)
    calls = _recording_kernels(monkeypatch)
    _, stats = minimize(spec, field, MinimizeOptions(grad_tol=1e-8, max_iter=500))
    assert stats.iters > 1
    free = lat.interior_ids
    # the one kernel held is the |F| x |F| free block, not the N x N kernel
    ((args, shape, ref),) = calls
    assert np.array_equal(args[5], free)
    assert shape == (len(free), len(free)) and len(free) < lat.n_sites
    assert ref() is None


@pytest.mark.parametrize(
    "constraint, flavor, V",
    [
        ("none", "global", SmoothedPowerP(3.0, 1e-4)),
        ("none", "local", PowerP(3)),
        ("none", "global", PowerP(3)),
    ],
)
def test_minimize_falls_back_to_whole_kernel(monkeypatch, constraint, flavor, V):
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1.5, 1.5)])
    field = WeightField(LogNormal(0.8), 2)
    spec = _spec(p=3, V=V, f=GridFunction(lat, lat.positions[:, 0]), G=PowerK(0.3, 2.0),
                 flavor=flavor, constraint=constraint)
    calls = _recording_kernels(monkeypatch)
    minimize(spec, field, MinimizeOptions(grad_tol=1e-8, max_iter=2000))
    ((args, shape, ref),) = calls
    n = len(pair_ids(lat, flavor))
    assert len(args) == 5 and shape == (n, n)  # no rows: the whole (ids, K) kernel
    assert ref() is None


@pytest.mark.parametrize("f_eps, eps", [(1 / 16, 1 / 8), (1 / 8, 1 / 16)])
def test_forcing_on_another_lattice_fails_before_the_kernel(monkeypatch, f_eps, eps):
    # minimize runs on spec.f's lattice, so an initial point elsewhere is refused
    f_lat = build_lattice(1, f_eps, [(-1, 1)], [(-1.5, 1.5)])
    lat = build_lattice(1, eps, [(-1, 1)], [(-1.5, 1.5)])
    field = WeightField(LogNormal(0.8), 2)
    spec = _spec(p=3, V=PowerP(3), f=GridFunction(f_lat, np.ones(f_lat.n_sites)))
    calls = _recording_kernels(monkeypatch)
    with pytest.raises(ValueError, match="another lattice"):
        minimize(spec, field, MinimizeOptions(initial=GridFunction(lat, np.zeros(lat.n_sites))))
    assert calls == []


def test_initial_point_on_another_lattice_fails_before_the_kernel(monkeypatch):
    lat = build_lattice(1, 1 / 8, [(-1, 1)], [(-1, 1)])
    coarse = build_lattice(1, 1 / 4, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.8), 2)
    spec = _spec(f=GridFunction(lat, np.zeros(lat.n_sites)))
    calls = _recording_kernels(monkeypatch)
    with pytest.raises(ValueError, match="another lattice"):
        minimize(spec, field, MinimizeOptions(initial=GridFunction(coarse, np.ones(coarse.n_sites))))
    assert calls == []
    # a lattice built again with the same sites is the same lattice
    twin = build_lattice(1, 1 / 8, [(-1, 1)], [(-1, 1)])
    u, _ = minimize(spec, field, MinimizeOptions(initial=GridFunction(twin, np.zeros(twin.n_sites))))
    assert u.lattice is lat and len(calls) == 1


@pytest.mark.parametrize("V, G", [(PowerP(1.5), NoneTerm()), (SmoothedPowerP(1.5), PowerK(1.0, 0.5))],
                         ids=["V0", "G0"])
def test_potential_without_derivative_fails_before_the_kernel(monkeypatch, V, G):
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    spec = _spec(p=1.5, V=V, G=G, f=GridFunction(lat, np.ones(lat.n_sites)))
    calls = _recording_kernels(monkeypatch)
    with pytest.raises(ValueError, match="SmoothedPowerP" if isinstance(V, PowerP) else "PowerK derivative"):
        minimize(spec, WeightField(LogNormal(0.8), 2), MinimizeOptions())
    assert calls == []


def _textbook_two_loop(grad, s_list, y_list):
    """The L-BFGS two-loop recursion with rho = 1 / (y @ s) computed where it is used."""
    q = grad.copy()
    alphas = []
    for s, y in zip(reversed(s_list), reversed(y_list)):
        rho = 1.0 / float(y @ s)
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if s_list:
        q *= float(s_list[-1] @ y_list[-1]) / float(y_list[-1] @ y_list[-1])
    for s, y, a in zip(s_list, y_list, reversed(alphas)):
        rho = 1.0 / float(y @ s)
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def test_two_loop_matches_textbook_bitwise():
    rng = np.random.default_rng(12)
    n = 40
    for m in range(10):
        s_list = [rng.normal(size=n) for _ in range(m)]
        y_list = [s + 0.5 * rng.normal(size=n) for s in s_list]
        grad = rng.normal(size=n)
        # the pairs as minimize stores them, rho computed once
        pairs = deque(((s, y, 1.0 / float(y @ s)) for s, y in zip(s_list, y_list)), maxlen=8)
        expected = _textbook_two_loop(grad, s_list[-8:], y_list[-8:])
        assert _two_loop(grad, pairs).tobytes() == expected.tobytes(), m


def test_uniqueness_two_starts():
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.5), 3)
    f = GridFunction(lat, np.ones(lat.n_sites))
    spec = _doubled(lat, f)
    # from 0, L-BFGS stalls at grad sup 4e-10 on this doubled energy
    opts0 = MinimizeOptions(grad_tol=1e-9, max_iter=2000)
    rng = np.random.default_rng(4)
    start = GridFunction(lat, rng.normal(size=lat.n_sites))
    opts1 = MinimizeOptions(grad_tol=1e-9, max_iter=2000, initial=start)
    u0, s0 = minimize(spec, field, opts0)
    u1, s1 = minimize(spec, field, opts1)
    assert s1.final_energy == pytest.approx(s0.final_energy, rel=1e-8, abs=1e-12)
    assert np.linalg.norm(u0.values - u1.values) < 1e-4


def test_constraint_held_exactly():
    # the sites off the held block's free ones start at +0.0 and keep it
    # through every step: dirichlet0's boundary and exterior on the free
    # block, and under none the sites off Q^eps of the local flavor's kernel
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1.5, 1.5)])
    field = WeightField(LogNormal(0.8), 6)
    f = GridFunction(lat, lat.positions[:, 0])
    start = GridFunction(lat, np.random.default_rng(6).normal(size=lat.n_sites))
    cases = (("dirichlet0", "global", lat.interior_ids), ("none", "local", lat.q_ids))
    for (constraint, flavor, free), method, initial in itertools.product(cases, ("lbfgs", "gd"), (None, start)):
        spec = _spec(p=3, V=PowerP(3), G=PowerK(0.3, 2.0), f=f, flavor=flavor, constraint=constraint)
        opts = MinimizeOptions(grad_tol=1e-8, max_iter=2000, method=method, initial=initial)
        u, stats = minimize(spec, field, opts)
        fixed = np.setdiff1d(np.arange(lat.n_sites), free)
        case = (constraint, method, initial is None)
        assert stats.iters > 1, case
        assert not u.values[fixed].any() and not np.signbit(u.values[fixed]).any(), case


def test_gradient_descent_agrees_with_lbfgs():
    lat = build_lattice(1, 0.25, [(-1, 1)], [(-1, 1)])
    field = WeightField(LogNormal(0.5), 7)
    spec = _doubled(lat, GridFunction(lat, np.ones(lat.n_sites)))
    u_l, _ = minimize(spec, field, MinimizeOptions(grad_tol=1e-8, max_iter=5000))
    u_g, stats = minimize(spec, field, MinimizeOptions(grad_tol=1e-8, max_iter=20000, method="gd"))
    assert np.abs(u_l.values - u_g.values).max() < 1e-5
    # gradient descent's path, pinned to the bit
    assert (stats.iters, stats.values, stats.final_energy.hex()) == (40, 165, "-0x1.0f16e9df7b51dp-2")


class _Start(Exception):
    """Raised by _start's patched energy_value with the values of its point."""


def _start(spec, initial):
    """The point at which minimize first evaluates the energy: its start."""
    import fraclat.minimize as mz

    def first(spec_, kernel_, u_):
        raise _Start(u_.values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mz, "energy_value", first)
        with pytest.raises(_Start) as info:
            minimize(spec, WeightField(Constant(1.0), 0), MinimizeOptions(initial=initial))
    return info.value.args[0]


def test_project_examples():
    # the start is the initial point on the held block's free sites, +0.0 elsewhere
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    u = GridFunction(lat, [9.0, 1.0, 2.0, 3.0, 9.0])
    spec = _spec(f=GridFunction(lat, np.ones(lat.n_sites)))
    assert _start(spec, u).tobytes() == np.array([0.0, 0.0, 2.0, 0.0, 0.0]).tobytes()
    # on a wider halo the exterior is fixed too; the sites at -0.5 and 0.5
    # are boundary ones, whose cubes reach the boundary points -1 and 1
    wide = build_lattice(1, 0.5, [(-1, 1)], [(-2, 2)])
    v = GridFunction(wide, -np.arange(1.0, 10.0))
    spec = _spec(f=GridFunction(wide, np.ones(wide.n_sites)))
    assert _start(spec, v).tobytes() == np.array([0.0, 0.0, 0.0, 0.0, -5, 0.0, 0.0, 0.0, 0.0]).tobytes()
    # none fixes no site of the global flavor's kernel; the local one holds Q^eps alone
    assert _start(replace(spec, constraint="none"), v).tobytes() == v.values.tobytes()
    local = replace(spec, constraint="none", flavor="local")
    assert _start(local, v).tobytes() == np.array([0.0, 0.0, 0.0, -4, -5, -6, 0.0, 0.0, 0.0]).tobytes()


@pytest.mark.parametrize("name", ["dirichlet_0", "Dirichlet0", "mean0", "bogus"])
def test_unknown_constraint_names_raise(name):
    # a misspelt name must not pass as none, which fixes no site
    with pytest.raises(ValueError, match="constraint must be one of"):
        _spec(constraint=name)


@settings(max_examples=30, deadline=None)
@given(
    vals=st.lists(st.floats(-100, 100), min_size=5, max_size=5),
    constraint=st.sampled_from(["dirichlet0", "none"]),
)
def test_project_idempotent(vals, constraint):
    # a start from minimize's own start is that start, to the bit
    lat = build_lattice(1, 0.5, [(-1, 1)], [(-1, 1)])
    spec = _spec(f=GridFunction(lat, np.ones(lat.n_sites)), constraint=constraint)
    once = _start(spec, GridFunction(lat, np.array(vals)))
    twice = _start(spec, GridFunction(lat, once))
    assert once.tobytes() == twice.tobytes()


def test_options_validation():
    with pytest.raises(ValueError):
        MinimizeOptions(grad_tol=-1)
    with pytest.raises(ValueError):
        MinimizeOptions(method="newton")
    # a NaN tolerance ran to max_iter and raised NumericalError
    with pytest.raises(ValueError, match="grad_tol"):
        MinimizeOptions(grad_tol=float("nan"))
    with pytest.raises(ValueError, match="grad_tol"):
        MinimizeOptions(grad_tol=float("inf"))
    # a fractional max_iter gave "no convergence in 2.5 iterations"
    with pytest.raises(ValueError, match="max_iter"):
        MinimizeOptions(max_iter=2.5)
    with pytest.raises(ValueError, match="max_iter"):
        MinimizeOptions(max_iter=0)
    assert MinimizeOptions(max_iter=np.int64(3)).max_iter == 3


# A small p=3 LogNormal run, (constraint, V, (iters, energy_value calls,
# final_energy as float.hex)).  The PowerP runs were recorded before the
# free-site gradient moved into the value's pass, the SmoothedPowerP run
# before its outer terms went through V.value and V.derivative.
PINNED_RUNS = {
    "dirichlet0": ("dirichlet0", PowerP(3), (23, 27, "-0x1.d3c51a533fa2cp-3")),
    # V(0) = 0, but under none no site is fixed: the whole kernel's path
    "none": ("none", PowerP(3), (29, 36, "-0x1.d7791ed7aae38p-2")),
    "dirichlet0-smoothed": ("dirichlet0", SmoothedPowerP(3.0, 1e-4), (23, 26, "-0x1.d3c50e630316fp-3")),
}


def _pinned_spec(case):
    constraint, V, _ = PINNED_RUNS[case]
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1.5, 1.5)])
    f = np.ones(lat.n_sites) if constraint == "dirichlet0" else lat.positions[:, 0]
    return _spec(p=3, V=V, G=PowerK(0.3, 2.0), f=GridFunction(lat, f), constraint=constraint)


def _pinned_run(monkeypatch, case, max_iter):
    import fraclat.minimize as mz

    spec, pinned = _pinned_spec(case), PINNED_RUNS[case][2]
    calls = Counter()
    real_value = mz.energy_value

    def counting(*args):
        calls["value"] += 1
        return real_value(*args)

    monkeypatch.setattr(mz, "energy_value", counting)
    opts = MinimizeOptions(grad_tol=1e-8, max_iter=max_iter)
    _, stats = minimize(spec, WeightField(LogNormal(0.8), 2), opts)
    assert (stats.iters, calls["value"], stats.final_energy.hex()) == pinned


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_minimize_pinned_bits(monkeypatch, case):
    _pinned_run(monkeypatch, case, 500)


def test_minimize_takes_the_lattice_of_f():
    # what the minimize-d1-p3 benchmark runs: no initial point, so minimize
    # starts from 0 on spec.f's lattice, with the bits of an initial 0 there
    lat = build_lattice(1, 0.125, [(-1, 1)], [(-1.5, 1.5)])
    spec = _spec(p=3, V=SmoothedPowerP(3.0, 1e-4), G=PowerK(0.5, 2.0), f=GridFunction(lat, np.ones(lat.n_sites)))
    field, opts = WeightField(LogNormal(1.0), 3), MinimizeOptions(grad_tol=1e-6)
    u, stats = minimize(spec, field, opts)
    u_0, stats_0 = minimize(spec, field, replace(opts, initial=GridFunction(lat, np.zeros(lat.n_sites))))
    assert u.lattice is lat and stats.iters > 1
    assert u.values.tobytes() == u_0.values.tobytes() and stats == stats_0
    # with f = None and V, G >= 0 the minimizer is u = 0, and there is no lattice
    with pytest.raises(ValueError, match="forcing term"):
        minimize(replace(spec, f=None), field, opts)


def test_minimize_converges_on_its_last_allowed_step(monkeypatch):
    # dirichlet0's gradient meets grad_tol (sup 7.7e-9 <= 1e-8) after its 23rd
    # step, which max_iter=23 allows
    _pinned_run(monkeypatch, "dirichlet0", 23)


def test_minimize_raises_after_max_iter(monkeypatch):
    # one step short of test_minimize_converges_on_its_last_allowed_step
    with pytest.raises(NumericalError, match="no convergence in 22 iterations"):
        _pinned_run(monkeypatch, "dirichlet0", 22)


def test_lost_descent_restarts_on_the_gradient(monkeypatch):
    import fraclat.minimize as mz

    real, memory = mz._two_loop, []

    def ascent_once(grad, pairs):
        memory.append(len(pairs))
        q = real(grad, pairs)
        return -q if len(memory) == 3 else q

    monkeypatch.setattr(mz, "_two_loop", ascent_once)
    spec = _pinned_spec("dirichlet0")
    _, stats = minimize(spec, WeightField(LogNormal(0.8), 2), MinimizeOptions(grad_tol=1e-8))
    # the third direction ascends, so minimize drops both pairs and steps along -g
    assert memory[:4] == [0, 1, 2, 1]
    assert stats.grad_norm <= 1e-8
    assert stats.final_energy == pytest.approx(float.fromhex(PINNED_RUNS["dirichlet0"][2][2]), rel=1e-12)


def test_line_search_underflow_raises(monkeypatch):
    import fraclat.minimize as mz

    real, calls = mz.energy_value, []

    def rising(*args):
        # every trial reads higher than the start
        calls.append(args)
        return real(*args) + (1.0 if len(calls) > 1 else 0.0)

    monkeypatch.setattr(mz, "energy_value", rising)
    with pytest.raises(NumericalError, match="line search underflow at iteration 0"):
        minimize(_pinned_spec("dirichlet0"), WeightField(LogNormal(0.8), 2), MinimizeOptions())
    # steps 1, 1/2, ..., 2^-66 are rejected; 2^-67 < 1e-20 is not tried
    assert len(calls) == 1 + 67

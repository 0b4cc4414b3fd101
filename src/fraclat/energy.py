"""Discrete nonlocal energies, their gradients, and discrete norms.

The core object is

    E(u) = eps^{2d} sum_{x != y} c_{x,y} V(u(x)-u(y)) / |x-y|^{d+ps}
           + eps^d sum G(u(x)) - eps^d sum u(x) f(x)

with the pair sum running over all halo sites ("global", halo-truncated) or
over Q^eps x Q^eps only ("local").  The pair factor
eps^{2d} c_{x,y} / |x-y|^{d+ps} is the kernel K: `kernel_matrix` builds it as
an explicit (ids, K) value, which callers build once and pass to every
function that sums over pairs.  All pair sums exclude the diagonal and go
through the fixed-order row-tiled reduction, so values are reproducible to
the bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Union

import numpy as np

from ._reduction import blocked_row_sum, blocked_total, triangle_tiles
from .errors import CapacityError, NumericalError
from .lattice import LatticeDomain, PairOffsets, pair_offsets
from .weights import WeightField, pair_weight_matrix

FLAVORS = ("global", "local")
CONSTRAINTS = ("none", "dirichlet0", "mean0", "zero_outside")

# mean-zero is "exact" up to accumulated rounding of the mean subtraction
MEAN_ZERO_SLACK = 1e-12


# ---------------------------------------------------------------------------
# potentials V and zero-order terms G
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerP:
    """V(t) = |t|^p."""

    p: float

    def value(self, t: np.ndarray) -> np.ndarray:
        return np.abs(t) ** self.p

    def derivative(self, t: np.ndarray) -> np.ndarray:
        if self.p < 2:
            raise ValueError("PowerP derivative needs p >= 2; use SmoothedPowerP")
        return self.p * np.abs(t) ** (self.p - 1) * np.sign(t)

    # growth envelope alpha |t|^p <= V <= c_v + beta |t|^p
    growth = property(lambda self: (1.0, 1.0, 0.0))


@dataclass(frozen=True)
class SmoothedPowerP:
    """V(t) = (t^2 + delta^2)^{p/2} - delta^p; smooth at 0, V(0) = 0."""

    p: float
    delta: float = 1e-8

    def value(self, t: np.ndarray) -> np.ndarray:
        return (t * t + self.delta**2) ** (self.p / 2) - self.delta**self.p

    def derivative(self, t: np.ndarray) -> np.ndarray:
        return self.p * t * (t * t + self.delta**2) ** (self.p / 2 - 1)

    growth = property(lambda self: (0.5, 1.0, 1.0))


@dataclass(frozen=True)
class CustomPotential:
    evaluate: Callable
    deriv: Optional[Callable] = None
    p: float = 2.0
    alpha: float = 1.0
    beta: float = 1.0
    c_v: float = 0.0

    def value(self, t):
        return self.evaluate(t)

    def derivative(self, t):
        if self.deriv is None:
            raise ValueError("potential has no derivative")
        return self.deriv(t)

    growth = property(lambda self: (self.alpha, self.beta, self.c_v))


Potential = Union[PowerP, SmoothedPowerP, CustomPotential]


def growth_bounds_hold(v: Potential, p: float) -> bool:
    """Sample the envelope alpha|t|^p <= V(t) <= c_v + beta|t|^p on a dyadic grid."""
    alpha, beta, c_v = v.growth
    t = np.array([math.copysign(2.0**k * 1e-3, sgn) for k in range(21) for sgn in (1, -1)])
    vals = v.value(t)
    tp = np.abs(t) ** p
    return bool(np.all(alpha * tp <= vals + 1e-15) and np.all(vals <= c_v + beta * tp + 1e-15))


@dataclass(frozen=True)
class NoneTerm:
    def value(self, t: np.ndarray) -> np.ndarray:
        return np.zeros_like(t)

    def derivative(self, t: np.ndarray) -> np.ndarray:
        return np.zeros_like(t)


@dataclass(frozen=True)
class PowerK:
    """G(t) = alpha |t|^k."""

    alpha: float
    k: float

    def value(self, t: np.ndarray) -> np.ndarray:
        return self.alpha * np.abs(t) ** self.k

    def derivative(self, t: np.ndarray) -> np.ndarray:
        if self.k < 1:
            raise ValueError("PowerK derivative needs k >= 1")
        if self.k == 1:
            return self.alpha * np.sign(t)
        return self.alpha * self.k * np.abs(t) ** (self.k - 1) * np.sign(t)


ZeroOrderTerm = Union[NoneTerm, PowerK]


# ---------------------------------------------------------------------------
# grid functions and energy specification
# ---------------------------------------------------------------------------


@dataclass
class GridFunction:
    lattice: LatticeDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.lattice.n_sites,):
            raise ValueError(
                f"values shape {self.values.shape} does not match {self.lattice.n_sites} sites"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function has non-finite entries")

    def copy(self) -> "GridFunction":
        return GridFunction(self.lattice, self.values.copy())


@dataclass(frozen=True)
class EnergySpec:
    p: float
    s: float
    V: Potential
    G: ZeroOrderTerm = NoneTerm()
    f: Optional[GridFunction] = None
    flavor: str = "global"
    constraint: str = "none"

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not 0 < self.s < 1:
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if self.flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}")
        if self.constraint not in CONSTRAINTS:
            raise ValueError(f"constraint must be one of {CONSTRAINTS}")


def check_constraint(u: GridFunction, constraint: str) -> None:
    """Raise unless u lies in the constrained space (exactly, not approximately)."""
    lat, vals = u.lattice, u.values
    if constraint == "dirichlet0":
        fixed = np.concatenate([lat.boundary_ids, lat.exterior_ids])
        if np.any(vals[fixed] != 0.0):
            raise ValueError("dirichlet0 constraint violated: nonzero boundary/exterior values")
    elif constraint == "mean0":
        total = float(vals[lat.q_ids].sum())
        cap = MEAN_ZERO_SLACK * len(lat.q_ids) * max(1.0, float(np.abs(vals).max()))
        if abs(total) > cap:
            raise ValueError(f"mean0 constraint violated: sum over Q sites is {total:g}")
    elif constraint == "zero_outside":
        if np.any(vals[lat.exterior_ids] != 0.0):
            raise ValueError("zero_outside constraint violated: nonzero exterior values")


# ---------------------------------------------------------------------------
# kernel assembly and pair sums
# ---------------------------------------------------------------------------


def pair_ids(lattice: LatticeDomain, flavor: str) -> np.ndarray:
    return np.arange(lattice.n_sites) if flavor == "global" else lattice.q_ids


def _distance_powers(offsets: PairOffsets, eps: float, exponent: float) -> np.ndarray:
    """|x-y|^exponent for every entry of the offset table; the zero offset gets 1."""
    dist = offsets.distance(eps)
    dist[offsets.center] = 1.0
    return dist**exponent


def kernel_matrix(lattice: LatticeDomain, field: WeightField, s: float, p: float, flavor: str):
    """The kernel (ids, K): K[i,j] = eps^{2d} c_{ij} / |x_i-x_j|^{d+ps} over
    the flavor's sites ids, zero diagonal.

    K is filled in row tiles over its upper triangle, each mirrored into the
    lower one, so every pair is hashed once; |x_i-x_j|^{d+ps} comes from the
    offset table.  K is the only N x N array allocated.  Raises CapacityError
    before allocating when K would not fit in physical memory.
    """
    ids = pair_ids(lattice, flavor)
    n = len(ids)
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if 8 * n * n > ram:
        raise CapacityError(
            f"dense kernel over {n} sites needs {8 * n * n / 1e9:.1f} GB, "
            f"physical memory is {ram / 1e9:.1f} GB"
        )
    z = lattice.sites[ids]
    eps, d = lattice.eps, lattice.dim
    offsets = pair_offsets(lattice)
    codes = offsets.codes[ids]
    denom = _distance_powers(offsets, eps, d + p * s)
    scale = eps ** (2 * d)
    k = np.empty((n, n))
    for lo, hi in triangle_tiles(n, 8 * d):
        tile = pair_weight_matrix(field, z[lo:hi], z[lo:])
        tile *= scale
        tile /= denom[offsets.index(codes[lo:hi], codes[lo:])]
        k[lo:hi, lo:] = tile
        k[lo:, lo:hi] = tile.T
    return ids, k


def _pair_terms(k: np.ndarray, vals: np.ndarray, fn):
    """Tile function for rows lo:hi of the pair matrix K * fn(u(x) - u(y))."""

    def tile(lo, hi):
        out = k[lo:hi] * fn(vals[lo:hi, None] - vals[None, :])
        if not np.all(np.isfinite(out)):
            i, j = np.argwhere(~np.isfinite(out))[0]
            raise NumericalError(f"non-finite pair contribution at site pair ({lo + i}, {j})")
        return out

    return tile


# ---------------------------------------------------------------------------
# energies and norms
# ---------------------------------------------------------------------------


def energy_value(spec: EnergySpec, kernel: tuple, u: GridFunction) -> float:
    """E(u) with the kernel of (spec.s, spec.p, spec.flavor) on u's lattice."""
    check_constraint(u, spec.constraint)
    lat = u.lattice
    ids, k = kernel
    vals = u.values[ids]
    nonlocal_part = blocked_total(_pair_terms(k, vals, spec.V.value), len(ids), len(ids))
    epsd = lat.eps**lat.dim
    zero_order = epsd * float(spec.G.value(vals).sum())
    forcing = 0.0
    if spec.f is not None:
        forcing = epsd * float((vals * spec.f.values[ids]).sum())
    total = nonlocal_part + zero_order - forcing
    if not math.isfinite(total):
        raise NumericalError("energy value is non-finite")
    return total


def energy_gradient(spec: EnergySpec, kernel: tuple, u: GridFunction) -> GridFunction:
    """d/du(x) of energy_value, projected onto the constraint's tangent space."""
    check_constraint(u, spec.constraint)
    lat = u.lattice
    ids, k = kernel
    vals = u.values[ids]
    grad = np.zeros(lat.n_sites)
    grad[ids] = 2.0 * blocked_row_sum(_pair_terms(k, vals, spec.V.derivative), len(ids), len(ids))
    epsd = lat.eps**lat.dim
    grad[ids] += epsd * spec.G.derivative(vals)
    if spec.f is not None:
        grad[ids] -= epsd * spec.f.values[ids]
    grad = project_direction(lat, grad, spec.constraint)
    return GridFunction(lat, grad)


def project_direction(lattice: LatticeDomain, g: np.ndarray, constraint: str) -> np.ndarray:
    """Project a gradient/search direction onto the constraint's tangent space."""
    g = np.asarray(g, dtype=float).copy()
    if constraint == "dirichlet0":
        g[lattice.boundary_ids] = 0.0
        g[lattice.exterior_ids] = 0.0
    elif constraint == "mean0":
        q = lattice.q_ids
        g[q] -= g[q].mean()
    elif constraint == "zero_outside":
        g[lattice.exterior_ids] = 0.0
    return g


def _range_ids(lattice: LatticeDomain, rng: str) -> np.ndarray:
    if rng == "global":
        return np.arange(lattice.n_sites)
    if rng == "q":
        return lattice.q_ids
    raise ValueError(f"range must be 'global' or 'q', got {rng!r}")


def gagliardo_seminorm(lattice: LatticeDomain, u: GridFunction, s: float, p: float, rng: str = "q") -> float:
    """[u]_{s,p,eps}: p-th root of eps^{2d} sum sum |u(x)-u(y)|^p / |x-y|^{d+sp}."""
    ids = _range_ids(lattice, rng)
    eps, d = lattice.eps, lattice.dim
    offsets = pair_offsets(lattice)
    codes = offsets.codes[ids]
    denom = _distance_powers(offsets, eps, d + s * p)
    vals = u.values[ids]

    def tile(lo, hi):
        num = np.abs(vals[lo:hi, None] - vals[None, :]) ** p
        return num / denom[offsets.index(codes[lo:hi], codes)]

    return float((eps ** (2 * d) * blocked_total(tile, len(ids), len(ids))) ** (1.0 / p))


def weighted_seminorm(kernel: tuple, u: GridFunction, p: float) -> float:
    """[u]_{s,p,eps,c}: as gagliardo_seminorm with the weight c inserted.

    The kernel of (s, p) fixes s and the range: the global flavor sums over
    all halo sites, the local one over Q^eps.
    """
    ids, k = kernel
    vals = u.values[ids]

    def tile(lo, hi):
        return k[lo:hi] * np.abs(vals[lo:hi, None] - vals[None, :]) ** p

    return float(blocked_total(tile, len(ids), len(ids)) ** (1.0 / p))


def lq_norm(lattice: LatticeDomain, u: GridFunction, q: float, rng: str = "q") -> float:
    """(eps^d sum |u|^q)^{1/q}; q = inf gives max |u|."""
    ids = _range_ids(lattice, rng)
    vals = np.abs(u.values[ids])
    if math.isinf(q):
        return float(vals.max()) if vals.size else 0.0
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return float((lattice.eps**lattice.dim * (vals**q).sum()) ** (1.0 / q))


def embedding_ratio(
    lattice: LatticeDomain,
    u: GridFunction,
    s: float,
    p: float,
    q: float,
    weighted: Optional[tuple] = None,
) -> float:
    """||u||_q / (||u||_p^p + [u]^p)^{1/p}, or ||u||_q / [u]_c with a local
    kernel of (s, p) as `weighted`."""
    num = lq_norm(lattice, u, q, "q")
    if weighted is None:
        den = (lq_norm(lattice, u, p, "q") ** p + gagliardo_seminorm(lattice, u, s, p, "q") ** p) ** (1.0 / p)
    else:
        den = weighted_seminorm(weighted, u, p)
    if den == 0.0:
        raise ValueError("embedding ratio undefined: zero denominator (constant function?)")
    return num / den


def holder_chain_constant(
    lattice: LatticeDomain,
    field: WeightField,
    s: float,
    p: float,
    r: float,
    s_prime: float,
) -> float:
    """Explicit constant C with [u]_{s',r,Q} <= C [u]_{s,p,Q,c} for every u.

    Hoelder with exponents p/r and p/(p-r) on the Q-pair sum gives
    C = K^{(p-r)/(rp)} with K = eps^{2d} sum sum c^{-r/(p-r)} |x-y|^{beta},
    beta = -d + p r (s - s') / (p - r).
    """
    if not (1.0 <= r < p and 0 < s_prime < s):
        raise ValueError("need 1 <= r < p and 0 < s' < s")
    ids = lattice.q_ids
    z = lattice.sites[ids]
    eps, d = lattice.eps, lattice.dim
    offsets = pair_offsets(lattice)
    codes = offsets.codes[ids]
    dist_beta = _distance_powers(offsets, eps, -d + p * r * (s - s_prime) / (p - r))

    def tile(lo, hi):
        w = pair_weight_matrix(field, z[lo:hi], z)
        mask = w > 0
        term = np.zeros_like(w)
        term[mask] = w[mask] ** (-r / (p - r)) * dist_beta[offsets.index(codes[lo:hi], codes)][mask]
        return term

    k_sum = eps ** (2 * d) * blocked_total(tile, len(ids), len(ids), 8 * d)
    return float(k_sum ** ((p - r) / (r * p)))


def halo_tail_bound(
    lattice: LatticeDomain,
    field: WeightField,
    s: float,
    p: float,
    v_max: float,
    inner_box,
) -> float:
    """Upper bound on the pair-sum energy omitted by truncating to inner_box.

    For u supported inside inner_box and bounded so that V(u(x) - u(y)) <= v_max
    on every omitted pair, the omitted mass is at most

        v_max * eps^{2d} sum_{x in, y out} c_{x,y} / |x-y|^{d+ps},

    evaluated here shell-by-shell over dyadic distance bands (each band uses its
    minimal distance, so the bound dominates term by term).
    """
    eps, d = lattice.eps, lattice.dim
    box = np.asarray(inner_box, dtype=float).reshape(d, 2)
    pos = lattice.positions
    inside = np.all((pos >= box[:, 0]) & (pos <= box[:, 1]), axis=1)
    zi = lattice.sites[inside]
    zo = lattice.sites[~inside]
    if zi.shape[0] == 0 or zo.shape[0] == 0:
        return 0.0
    w = pair_weight_matrix(field, zi, zo)
    diff = (zi[:, None, :] - zo[None, :, :]).astype(float)
    dist = eps * np.sqrt((diff * diff).sum(axis=2))
    dmin = float(dist.min())
    total = 0.0
    lo = dmin
    while True:
        hi = 2.0 * lo
        band = (dist >= lo) & (dist < hi)
        if band.any():
            total += lo ** -(d + p * s) * float(w[band].sum())
        if lo > float(dist.max()):
            break
        lo = hi
    return 2.0 * v_max * eps ** (2 * d) * total

"""Discrete nonlocal energies, their gradients, and discrete norms.

The core object is

    E(u) = eps^{2d} sum_{x != y} c_{x,y} V(u(x)-u(y)) / |x-y|^{d+ps}
           + eps^d sum G(u(x)) - eps^d sum u(x) f(x)

with the pair sum running over all halo sites ("global", halo-truncated) or
over Q^eps x Q^eps only ("local").  The pair factor
eps^{2d} c_{x,y} / |x-y|^{d+ps} is the kernel K: `kernel_matrix` builds it as
an explicit (ids, K) value, which callers build once and pass to every
function that sums over pairs.  It also builds the block of K over a set of
sites, with the whole row sums, from which `linear_ops.assemble` builds the
p=2 system without ever holding K, and `held_block` the FreeBlock on which
`minimize` evaluates the energy of a u that is 0 off the free sites.

Every sum over a held kernel, a whole one taken as the FreeBlock with no outer
term, is one pass over its row tiles: the energy and its gradient, and the
value total of `weighted_seminorm`.  On a FreeBlock that the caller holds, the
value's pass also forms the whole gradient on the block's sites and keeps it,
keyed by u and the spec; nothing else is cached between calls.  All pair
sums exclude the diagonal and go through the fixed-order row tiles, so values
are reproducible to the bit; on a held FreeBlock a SmoothedPowerP's E(0) is
rounding noise, not 0.  The FreeBlock's outer terms, one per free site, go
through V.value and V.derivative; only the pair pass has a fused form.

`held_block` alone decides which sites a constraint fixes at u = 0:
dirichlet0 the sites off the interior, none no site.  A block with an outer
term refuses a u that is nonzero off its free sites, and every gradient is
+0.0 off the kernel's sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from ._reduction import blocked_total, row_tiles, triangle_tiles
from .errors import ConfigError, NumericalError, require_memory
from .lattice import LatticeDomain, PairOffsets, pair_offsets, same_lattice
from .weights import WeightField, pair_weight_matrix

FLAVORS = ("global", "local")
CONSTRAINTS = ("none", "dirichlet0")


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
        if not self.has_derivative:
            raise ValueError("PowerP derivative needs p >= 2; use SmoothedPowerP")
        return self.p * np.abs(t) ** (self.p - 1) * np.sign(t)

    has_derivative = property(lambda self: self.p >= 2)

    # V = q w - c0 and, for p >= 2, V' = p t w with q = t^2, w = q^{p/2-1}
    # and c0 = 0: the form of SmoothedPowerP at delta = 0
    _c0 = 0.0

    def _q_w(self, t):
        q = np.square(t)
        return q, q ** (self.p / 2 - 1)


@dataclass(frozen=True)
class SmoothedPowerP:
    """V(t) = (t^2 + delta^2)^{p/2} - delta^p; smooth at 0, V(0) = 0 exactly.

    V and V' take one power per entry: with q = t^2 + delta^2 and
    w = q^{p/2-1}, V = q w - c0 and V' = p t w (at p = 3, numpy computes w
    as a square root).  c0 is q w at t = 0 by the same operations, so V(0)
    is 0 to the bit; a held FreeBlock's pair sum at u = 0 is not (`_pair_pass`).
    """

    p: float
    delta: float = 1e-8

    def _q_w(self, t):
        # q as an array, so that a scalar t takes the same power as an array
        q = np.asarray(np.square(t, dtype=float))
        q += self.delta**2
        return q, q ** (self.p / 2 - 1)

    @cached_property
    def _c0(self) -> float:
        q0, w0 = self._q_w(np.zeros(1))
        return float(q0[0] * w0[0])

    def value(self, t: np.ndarray) -> np.ndarray:
        q, w = self._q_w(t)
        q *= w
        q -= self._c0
        return q

    def derivative(self, t: np.ndarray) -> np.ndarray:
        _, w = self._q_w(t)
        w *= t
        w *= self.p
        return w

    has_derivative = True


Potential = Union[PowerP, SmoothedPowerP]


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
        if not np.isfinite(self.values).all():
            raise ValueError("grid function has non-finite entries")


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


# ---------------------------------------------------------------------------
# kernel assembly and pair sums
# ---------------------------------------------------------------------------


def pair_ids(lattice: LatticeDomain, flavor: str) -> np.ndarray:
    """The flavor's sites: every halo site (global) or Q^eps (local).  Raises
    ValueError on a name outside FLAVORS."""
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    return np.arange(lattice.n_sites) if flavor == "global" else lattice.q_ids


@dataclass
class FreeBlock:
    """The kernel that `energy_value` and `energy_gradient` sum: block =
    K[F, F] over sites F, and outer[x] = sum of K[x, y] over the flavor's
    sites y outside F.

    A whole kernel (ids, K) is FreeBlock(ids, K), with no outer term, and
    takes any u.  With one, it is the kernel of a constraint that fixes u = 0
    off F, and takes only a u that is 0 there: since V(0) = 0 and G(0) = 0,
    pairs outside F add nothing, and the pairs (x, y) and (y, x) with x in F,
    y outside F add K[x, y] (V(u(x)) + V(-u(x))) = 2 K[x, y] V(u(x)), since
    every V is even.

    `last` holds the latest call that formed the gradient: (bytes of the
    values on F, spec, E, gradient on F).  That gradient is the whole one on
    F, 2 (row sums + outer V'(u)) + eps^d G'(u) - eps^d f.
    A call at bitwise the same values with the very same spec object reads it
    back, so `energy_gradient` after `energy_value` at the same u costs no
    pair pass and gives the same bits.  Nothing else is kept.
    """

    free: np.ndarray
    block: np.ndarray
    outer: Optional[np.ndarray] = None
    last: Optional[tuple] = None

    @cached_property
    def block_total(self) -> float:
        return float(self.block.sum())


def _distance_powers(offsets: PairOffsets, eps: float, exponent: float) -> np.ndarray:
    """|x-y|^exponent for every entry of the offset table; the zero offset gets 1."""
    dist = offsets.distance(eps)
    dist[offsets.center] = 1.0
    return dist**exponent


def kernel_matrix(
    lattice: LatticeDomain,
    field: WeightField,
    s: float,
    p: float,
    flavor: str,
    rows: Optional[np.ndarray] = None,
):
    """The kernel (ids, K): K[i,j] = eps^{2d} c_{ij} / |x_i-x_j|^{d+ps} over
    the flavor's sites ids, zero diagonal.

    K is filled in row tiles over its upper triangle, each mirrored into the
    lower one, so every pair is hashed once; |x_i-x_j|^{d+ps} comes from the
    offset table.

    With `rows`, an array of site ids among the flavor's sites, the result is
    (sums, B) instead: B = K[r][:, r] for the positions r of those sites, and
    sums the whole row sums of K[r].  Both are filled from one tile of whole
    rows at a time, so only B and one tile are held.  They equal the entries
    and row sums of K to the bit, since the weight, |x-y| and its table entry
    take the same values for (x, y) and (y, x).

    Raises CapacityError before allocating when the result would not fit in
    physical memory.
    """
    ids = pair_ids(lattice, flavor)
    n = len(ids)
    if rows is None:
        require_memory(8 * n * n, f"dense kernel over {n} sites")
    else:
        require_memory(8 * len(rows) ** 2, f"kernel block over {len(rows)} of {n} sites")
    z = lattice.sites[ids]
    eps, d = lattice.eps, lattice.dim
    offsets = pair_offsets(lattice)
    codes = offsets.codes[ids]
    denom = _distance_powers(offsets, eps, d + p * s)
    scale = eps ** (2 * d)

    def factors(za, ca, zb, cb):
        out = pair_weight_matrix(field, za, zb)
        out *= scale
        out /= denom[offsets.index(ca, cb)]
        return out

    if rows is not None:
        zr, cr = lattice.sites[rows], offsets.codes[rows]
        cols = np.searchsorted(ids, rows)
        sums = np.empty(len(rows))
        block = np.empty((len(rows), len(rows)))
        for lo, hi in row_tiles(len(rows), n):
            tile = factors(zr[lo:hi], cr[lo:hi], z, codes)
            sums[lo:hi] = tile.sum(axis=1)
            np.take(tile, cols, axis=1, out=block[lo:hi])
            del tile  # before the next tile is built
        return sums, block
    k = np.empty((n, n))
    for lo, hi in triangle_tiles(n):
        tile = factors(z[lo:hi], codes[lo:hi], z[lo:], codes[lo:])
        k[lo:hi, lo:] = tile
        k[lo:, lo:hi] = tile.T
        del tile
    return ids, k


def held_block(lattice: LatticeDomain, field: WeightField, spec: EnergySpec) -> FreeBlock:
    """The FreeBlock of spec's kernel that a caller holds across calls, and the
    one reader of spec.constraint: under dirichlet0, K[F, F] over the interior
    sites F that it leaves free, with the outer row sums, 8 |F|^2 bytes; under
    none, which fixes no site, the whole kernel over the flavor's sites."""
    if spec.constraint == "none":
        return FreeBlock(*kernel_matrix(lattice, field, spec.s, spec.p, spec.flavor))
    # the interior sites, which dirichlet0 leaves free, lie among both flavors' sites
    free = lattice.interior_ids
    sums, block = kernel_matrix(lattice, field, spec.s, spec.p, spec.flavor, free)
    return FreeBlock(free, block, sums - block.sum(axis=1))


# ---------------------------------------------------------------------------
# energies and norms
# ---------------------------------------------------------------------------


def _pair_pass(kernel: FreeBlock, V, vals: np.ndarray, rows: bool) -> tuple:
    """(sum of K V(t), row sums of K V'(t)) over the block, t = u(x) - u(y),
    from one pass over its row tiles; the row sums only with `rows` (else NaN).

    With rows, V has a derivative, and every such potential is V = q w - c0
    with V' = p t w: each tile takes t, q, w and K w once, then sum (K w) q
    and the row sums of (K w) t, and c0 sum K and the factor p are applied to
    the reduced sums, so with c0 > 0 a zero u gives rounding noise, not 0.
    Else a tile takes K V(t).  A non-finite entry makes its row sum and the
    total non-finite, so callers check the reduced sums.
    """
    k = kernel.block

    def tile(lo, hi):
        # the temporaries are freed on return, before the next tile allocates
        t = vals[lo:hi, None] - vals[None, :]
        if not rows:
            return float((k[lo:hi] * V.value(t)).sum()), np.nan
        q, w = V._q_w(t)
        w *= k[lo:hi]
        q *= w
        w *= t
        return float(q.sum()), w.sum(axis=1)

    total, sums = 0.0, np.empty(len(vals))
    for lo, hi in row_tiles(len(vals), len(vals)):
        part, sums[lo:hi] = tile(lo, hi)
        total += part
    if rows:
        total -= V._c0 * kernel.block_total if V._c0 else 0.0
        sums *= V.p
    return total, sums


def _energy_pass(spec: EnergySpec, block: FreeBlock, vals: np.ndarray, epsd: float, grad: bool) -> tuple:
    """(E, gradient on block.free) for u with values vals on the block's
    sites; the gradient only with `grad` (else None).

    With grad the result is kept in block.last, and a call that matches it
    (see FreeBlock) reads it back.  The outer terms are 2 outer V(u) and
    outer V'(u).
    """
    last, key, V, G, f = block.last, vals.tobytes(), spec.V, spec.G, spec.f
    if last is not None and last[1] is spec and last[0] == key:
        return last[2], last[3]
    outer = block.outer
    total, sums = _pair_pass(block, V, vals, grad)
    if outer is not None:
        # doubling is exact, so this is sum outer (V(u) + V(-u)) to the bit
        total += 2.0 * float((outer * V.value(vals)).sum())
        if grad:
            sums += outer * V.derivative(vals)
    f_vals = None if f is None else f.values[block.free]
    total += epsd * float(G.value(vals).sum())
    if f is not None:
        total -= epsd * float((vals * f_vals).sum())
    if not grad:
        return total, None
    sums *= 2.0
    sums += epsd * G.derivative(vals)
    if f is not None:
        sums -= epsd * f_vals
    block.last = (key, spec, total, sums)
    return total, sums


def check_derivative(V: Potential) -> None:
    """Raise ValueError unless V has the derivative that a gradient needs."""
    if not V.has_derivative:
        raise ValueError(f"the gradient needs the derivative of V, which {V!r} lacks; use SmoothedPowerP")


def _block_values(spec: EnergySpec, kernel, u: GridFunction) -> tuple:
    """(FreeBlock, u on its sites), a whole kernel taken as FreeBlock(ids, K).
    Raises ValueError when the block has an outer term and u is nonzero off
    its sites, or when spec.f lies on another lattice than u, whose site ids
    index its values."""
    if spec.f is not None and not same_lattice(spec.f.lattice, u.lattice):
        raise ValueError("the forcing term f lies on another lattice than u")
    block = kernel if isinstance(kernel, FreeBlock) else FreeBlock(*kernel)
    vals = u.values[block.free]
    # the free sites are distinct, so u is 0 off them iff they hold all of its nonzeros
    if block.outer is not None and np.count_nonzero(vals) != np.count_nonzero(u.values):
        raise ValueError("u is nonzero at sites that the kernel's constraint fixes to 0")
    return block, vals


def energy_value(spec: EnergySpec, kernel, u: GridFunction) -> float:
    """E(u) with the kernel of (spec.s, spec.p, spec.flavor) on u's lattice,
    whole or as a FreeBlock; on a held FreeBlock the pass also forms the
    gradient and keeps it in block.last."""
    block, vals = _block_values(spec, kernel, u)
    lat = u.lattice
    grad = isinstance(kernel, FreeBlock) and spec.V.has_derivative
    total = _energy_pass(spec, block, vals, lat.eps**lat.dim, grad)[0]
    if not math.isfinite(total):
        raise NumericalError("energy value is non-finite")
    return total


def energy_gradient(spec: EnergySpec, kernel, u: GridFunction) -> GridFunction:
    """d/du(x) of energy_value at the kernel's sites, +0.0 off them: the
    gradient on the block's sites scattered into zeros.  On a FreeBlock with an
    outer term, the sites that its constraint fixes are off them."""
    check_derivative(spec.V)
    block, vals = _block_values(spec, kernel, u)
    lat = u.lattice
    grad_free = _energy_pass(spec, block, vals, lat.eps**lat.dim, True)[1]
    if not np.isfinite(grad_free).all():
        bad = block.free[np.flatnonzero(~np.isfinite(grad_free))[0]]
        raise NumericalError(f"non-finite gradient at site {bad}")
    grad = np.zeros(lat.n_sites)
    grad[block.free] = grad_free
    return GridFunction(lat, grad)


def gagliardo_seminorm(lattice: LatticeDomain, u: GridFunction, s: float, p: float) -> float:
    """[u]_{s,p,eps}: p-th root of eps^{2d} sum sum |u(x)-u(y)|^p / |x-y|^{d+sp}
    over Q^eps."""
    ids = lattice.q_ids
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
    all halo sites, the local one over Q^eps.  The p-th power is the pair
    pass's value-only total at V = |t|^p.
    """
    ids, k = kernel
    return float(_pair_pass(FreeBlock(ids, k), PowerP(p), u.values[ids], rows=False)[0] ** (1.0 / p))


def lq_norm(lattice: LatticeDomain, u: GridFunction, q: float) -> float:
    """(eps^d sum |u|^q)^{1/q} over Q^eps; q = inf gives max |u|."""
    vals = np.abs(u.values[lattice.q_ids])
    if math.isinf(q):
        return float(vals.max()) if vals.size else 0.0
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return float((lattice.eps**lattice.dim * (vals**q).sum()) ** (1.0 / q))


def embedding_denominator(
    lattice: LatticeDomain,
    u: GridFunction,
    s: float,
    p: float,
    weighted: Optional[tuple] = None,
) -> float:
    """(||u||_p^p + [u]^p)^{1/p}, or [u]_c with a local kernel of (s, p) as
    `weighted`: the q-independent denominator of the embedding ratio
    ||u||_q / den."""
    if weighted is None:
        den = (lq_norm(lattice, u, p) ** p + gagliardo_seminorm(lattice, u, s, p) ** p) ** (1.0 / p)
    else:
        den = weighted_seminorm(weighted, u, p)
    if den == 0.0:
        # in a study, an eps so coarse that a test function samples to a constant
        raise ConfigError(f"embedding ratio undefined at eps={lattice.eps:g}: "
                          "zero denominator (constant function?)")
    return den


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

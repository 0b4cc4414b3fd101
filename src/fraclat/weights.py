"""Stationary ergodic random weights c_{x,y} on integer site pairs.

The field is a pure function of (seed, unordered pair): a counter-based hash of
the canonical pair encoding (lexicographic minimum, coordinate difference) is
mapped to a uniform in (0, 1) and pushed through the chosen distribution.  Weights
over distinct unordered pairs are therefore i.i.d., which is stationary and
ergodic under shifts in both variables, and everything is reproducible with
O(1) memory.  Because a weight depends on nothing but (seed, pair), callers may
hash any subset of pairs in any order: the kernel build hashes only the upper
triangle, tile by tile, and mirrors it; `weight_pairs` broadcasts two site
arrays, so a tile is one call.  `Constant` weights are never hashed.
`LogNormal` uses `_ndtri`, a numpy port of Cephes ndtri, so hashing imports no
scipy.  `_ndtri` evaluates the central rational function on the whole tile,
then gathers the lower tail (u <= exp(-2)) and the upper tail
(u > 1 - exp(-2)) with one `flatnonzero` each, computes both from
r = sqrt(-2 log y) in one array, with y = u or 1 - u, and scatters them back,
the lower tail negated.  The uniform is (k + 1/2) 2^-53 for the top 53 hash
bits k, clamped to 1 - 2^-53 where k = 2^53 - 1 would round it to 1.0 (a
LogNormal weight of inf).

Every distribution but `Constant` is rescaled by its `scale`, 1 over its
analytic mean, so its mean is 1; the homogenized limit then matches the
constant-weight reference directly.  A `Constant` value, and every other
law's scale, must be finite and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._reduction import _TILE_BYTES, blocked_total, triangle_tiles
from .errors import NumericalError, require_memory
from .lattice import _box_points, pair_offsets


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions, 1989), the algorithm of
# scipy.special.ndtri.  The Q tables start with the leading 1 that Cephes' p1evl leaves implicit.
_EXPM2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0, -1.40256079171354495875e-1,
       -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2, 3.01581553508235416007e-4,
       2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Horner's rule in Cephes' order; a leading 1 is added, not multiplied, as p1evl does."""
    out = x + coef[1] if coef[0] == 1.0 else x * coef[0] + coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF, in Cephes' operation order; 0 and 1 give -inf and +inf.

    Bit-identical to scipy.special.ndtri for exp(-2) < u <= 1 - exp(-2).  In the tails numpy's
    SIMD log may differ from libm's by 1 ulp, which moves a rare value by a few ulp.
    """
    # the central formula in u - 1/2, on the whole array: its Q0 denominator stays in
    # [-1.18, -2.7e-4] for |u - 1/2| <= 1/2, so the tail entries raise no warning.
    # x is C-ordered whatever u's layout, so x.reshape(-1) below is a view of x
    x = np.subtract(u, 0.5, order="C")
    x2 = x * x
    t = _polevl(x2, _P0)
    t *= x2
    t /= _polevl(x2, _Q0)
    t *= x
    x += t
    del x2, t  # tile-sized, and the tails below allocate their own
    x *= 2.50662827463100050242  # sqrt(2 pi)
    # the tails, from r = sqrt(-2 log y): y = u below exp(-2), y = 1 - u above 1 - exp(-2)
    flat = u.reshape(-1)
    low = np.flatnonzero(flat <= _EXPM2)
    high = np.flatnonzero(flat > 1.0 - _EXPM2)
    if low.size or high.size:
        n = low.size
        y = np.empty(n + high.size)
        np.take(flat, low, out=y[:n])
        np.subtract(1.0, flat[high], out=y[n:])
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(-2.0 * np.log(y))
            z = 1.0 / r
            r1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
            far = np.flatnonzero(r >= 8.0)  # y < exp(-32)
            if far.size:
                r1[far] = z[far] * _polevl(z[far], _P2) / _polevl(z[far], _Q2)
            tail = r - np.log(r) / r
        tail -= r1
        tail[y == 0.0] = np.inf
        np.negative(tail[:n], out=tail[:n])
        out = x.reshape(-1)
        out[low] = tail[:n]
        out[high] = tail[n:]
    return x


@dataclass(frozen=True)
class Constant:
    value: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"Constant needs a finite positive value, got {self.value}")

    def q_max(self) -> float:
        return math.inf

    def _transform(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(u, self.value)

    scale = 1.0  # never rescaled


class _MeanOne:
    """A law rescaled by its `scale`, 1 over its analytic mean, which must be
    finite and positive: a raising or non-finite one raises ValueError."""

    def __post_init__(self):
        try:
            scale = self.scale
        except (OverflowError, ZeroDivisionError):
            scale = math.nan
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"{self} has no finite positive normalizing scale (1 / its mean)")


@dataclass(frozen=True)
class LogNormal(_MeanOne):
    sigma: float

    def q_max(self) -> float:
        return math.inf

    def _transform(self, u: np.ndarray) -> np.ndarray:
        x = _ndtri(u)
        x *= self.sigma
        return np.exp(x, out=x)

    @property
    def scale(self) -> float:
        return 1.0 / math.exp(self.sigma**2 / 2)


@dataclass(frozen=True)
class UnitPowerLaw(_MeanOne):
    """c = U^{1/a} (a + 1) / a with U uniform on (0,1), so E(c) = 1; E(c^{-q}) < infinity iff q < a.

    a must be positive: a < -1 gives a positive mean too, but a c bounded
    below, with every negative moment finite, so the claim fails there.
    """

    a: float

    def __post_init__(self):
        super().__post_init__()
        if not self.a > 0:
            raise ValueError(f"{self} needs a > 0")

    def q_max(self) -> float:
        return self.a

    def _transform(self, u: np.ndarray) -> np.ndarray:
        return u ** (1.0 / self.a)

    @property
    def scale(self) -> float:
        return 1.0 / (self.a / (self.a + 1))


@dataclass(frozen=True)
class ShiftedPareto(_MeanOne):
    """c = (1 + Pareto(a)) (a - 1) / (2a - 1), Pareto of scale 1, so E(c) = 1 and c is bounded
    below by 2 (a - 1) / (2a - 1): all negative moments exist."""

    a: float

    def __post_init__(self):
        if self.a <= 1:
            raise ValueError("ShiftedPareto needs a > 1 for a finite mean")
        super().__post_init__()

    def q_max(self) -> float:
        return math.inf

    def _transform(self, u: np.ndarray) -> np.ndarray:
        return 1.0 + u ** (-1.0 / self.a)

    @property
    def scale(self) -> float:
        return 1.0 / (1.0 + self.a / (self.a - 1))


@dataclass(frozen=True)
class DecayingProduct:
    """c_{x,y} = base(x,y) * (1 + |x-y|)^{-alpha}.

    For alpha > 0 the derived jump rates omega = c |z|^{-(d+ps)} have a summable
    ps-moment, the regime where the nonlocal part of the energy vanishes in the
    limit.  Never rescaled (its mean is not a single number); only its base's
    scale applies.
    """

    base: Union[Constant, LogNormal, UnitPowerLaw, ShiftedPareto]
    alpha: float

    def __post_init__(self):
        if isinstance(self.base, DecayingProduct):
            raise ValueError("a DecayingProduct's base cannot be another DecayingProduct")

    def q_max(self) -> float:
        return self.base.q_max()


WeightDistribution = Union[Constant, LogNormal, UnitPowerLaw, ShiftedPareto, DecayingProduct]


@dataclass(frozen=True)
class WeightField:
    dist: WeightDistribution
    seed: int


# ---------------------------------------------------------------------------
# counter-based generator
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _mix(h: np.ndarray) -> np.ndarray:
    """MurmurHash3's fmix64 finalizer, in place."""
    h ^= h >> np.uint64(33)
    h *= _M1
    h ^= h >> np.uint64(33)
    h *= _M2
    h ^= h >> np.uint64(33)
    return h


def _encode(a) -> np.ndarray:
    """The hash input word a * GOLDEN + GOLDEN (mod 2^64) of int64 coordinates."""
    v = np.asarray(a, dtype=np.int64).view(np.uint64) * _GOLDEN
    v += _GOLDEN
    return v


def _hash(seed: int, z1: np.ndarray, z2: np.ndarray):
    """uint64 hash of (seed, lexicographic minimum, difference) of each pair of
    int64 sites z1, z2 (shape (..., d), broadcast), with the per-axis
    differences and the mask of equal sites.  fmix64 absorbs the seed, then
    per axis the minimum's coordinate and the difference; the first round
    needs one site only, so it runs per site and the swap mask picks one."""
    init = (int(seed) + 0x9E3779B97F4A7C15) % 2**64
    h0 = _mix(np.array([init], dtype=np.uint64))[0]
    diffs = [z2[..., c] - z1[..., c] for c in range(z1.shape[-1])]
    swap = diffs[0] < 0
    equal = diffs[0] == 0
    for diff in diffs[1:]:
        swap |= equal & (diff < 0)
        equal &= diff == 0
    np.abs(diffs[0], out=diffs[0])  # swapped exactly where it is negative
    for diff in diffs[1:]:
        np.negative(diff, out=diff, where=swap)
    first1, first2 = (_mix(_encode(z[..., 0]) ^ h0) for z in (z1, z2))
    h = np.where(swap, first2, first1)
    for c, diff in enumerate(diffs):
        if c:
            h ^= _encode(np.where(swap, z2[..., c], z1[..., c]))
            _mix(h)
        h ^= _encode(diff)
        _mix(h)
    return h, diffs, equal


def weight_pairs(field: WeightField, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Weights of the pairs of integer sites z1, z2 (shape (..., d)), broadcast
    against each other, so za[:, None] and zb[None] give a matrix; equal sites
    get 0."""
    z1 = np.atleast_2d(np.asarray(z1, dtype=np.int64))
    z2 = np.atleast_2d(np.asarray(z2, dtype=np.int64))
    h, diffs, equal = _hash(field.seed, z1, z2)
    h >>= np.uint64(11)
    # below 2^53 either conversion is exact, and numpy's int64 one is ~8x faster
    u = np.add(h.view(np.int64), 0.5)
    del h  # each tile-sized array is dropped after its last use, which lowers the peak
    u *= 2.0**-53
    np.minimum(u, _BELOW_ONE, out=u)  # only k = 2^53 - 1 rounds to 1.0
    dist = field.dist
    if isinstance(dist, DecayingProduct):
        decay = (1.0 + np.sqrt(sum(diff.astype(float) ** 2 for diff in diffs))) ** (-dist.alpha)
        del diffs
        w = dist.base._transform(u) * dist.base.scale
        w *= decay
    else:
        del diffs
        w = dist._transform(u)
        w *= dist.scale
    w[equal] = 0.0
    return w


def weight(field: WeightField, z1, z2) -> float:
    """Weight of a single site pair; pure, positive, symmetric."""
    z1, z2 = (np.asarray(z, dtype=np.int64).reshape(1, -1) for z in (z1, z2))
    if np.array_equal(z1, z2):
        raise ValueError("weight is undefined on the diagonal z1 == z2")
    return float(weight_pairs(field, z1, z2)[0])


def pair_weight_matrix(field: WeightField, za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Dense (len(za), len(zb)) weight matrix; diagonal pairs (equal sites) get 0.

    Constant weights are filled in without hashing.
    """
    za = np.asarray(za, dtype=np.int64)
    zb = np.asarray(zb, dtype=np.int64)
    if isinstance(field.dist, Constant):
        equal = np.logical_and.reduce([za[:, None, c] == zb[None, :, c] for c in range(za.shape[1])])
        out = np.full(equal.shape, field.dist.value * field.dist.scale)
        out[equal] = 0.0
        return out
    return weight_pairs(field, za[:, None], zb[None])


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    stderr: float
    n: int


def _origins(seed: int, m: int, d: int) -> np.ndarray:
    idx = np.arange(m, dtype=np.int64).reshape(m, 1)
    h, _, _ = _hash(seed ^ 0x5EED0F0F, idx, idx + 7)
    out = np.zeros((m, d), dtype=np.int64)
    for col in range(d):
        h = _mix(h + _GOLDEN)
        out[:, col] = (h % np.uint64(2001)).astype(np.int64) - 1000
    return out


def empirical_moment(
    field: WeightField, exponent: float, box_radius: int, origin_samples: int, d: int = 1
) -> MomentEstimate:
    """Monte-Carlo estimate of E(c^q) over unordered pairs in shifted boxes.

    Pairs are drawn from the box [-R, R]^d around each of `origin_samples`
    origins derived deterministically from the seed.  The c^q values, 8 bytes
    per pair and origin, fill one array in row tiles of the pairs' upper
    triangle, in the order of `np.triu_indices`, so only one tile of pairs is
    held besides them; `std` then forms one more array of that size.  Raises
    CapacityError before allocating when the two would not fit in physical
    memory.
    """
    if box_radius < 1 or origin_samples < 1:
        raise ValueError("box_radius and origin_samples must be >= 1")
    n_pts = (2 * box_radius + 1) ** d
    n_pairs = n_pts * (n_pts - 1) // 2
    # the values and the deviations that `std` forms from them, two copies of
    # the box points, and one tile's temporaries
    require_memory(16 * origin_samples * n_pairs + 16 * d * n_pts + 16 * _TILE_BYTES,
                   f"moment estimate over {n_pairs} pairs")
    pts = _box_points([-box_radius] * d, [box_radius] * d)
    vals = np.empty(origin_samples * n_pairs)
    at = 0
    for origin in _origins(field.seed, origin_samples, d):
        z = pts + origin
        for lo, hi in triangle_tiles(n_pts):
            # rows lo:hi against columns lo:, of which the pairs j > i are kept, row by row
            upper = np.arange(lo, n_pts) > np.arange(lo, hi)[:, None]
            w = weight_pairs(field, z[lo:hi, None], z[None, lo:])[upper]
            with np.errstate(over="ignore", divide="ignore"):
                w **= exponent
            bad = ~np.isfinite(w)
            if bad.any():
                i, j = (a[np.flatnonzero(bad)[0]] for a in np.nonzero(upper))
                raise NumericalError(f"c^{exponent} non-finite for pair {z[lo + i].tolist()}, {z[lo + j].tolist()}")
            vals[at:at + w.size] = w
            at += w.size
    n = vals.size
    stderr = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MomentEstimate(mean=float(vals.mean()), stderr=stderr, n=n)


@dataclass(frozen=True)
class AssumptionReport:
    satisfied: bool
    witness_r: float | None


def check_assumption(p: float, s: float, d: int, q_max: float) -> AssumptionReport:
    """Feasibility of the moment condition: q_max > d/(ps) and some r in (1,p)
    with q_max >= r/(p-r) > d/(ps)."""
    if not (p > 1 and 0 < s < 1 and d >= 1 and q_max > 0):
        raise ValueError("need p > 1, s in (0,1), d >= 1, q_max > 0")
    thresh = d / (p * s)
    if not q_max > thresh:
        return AssumptionReport(False, None)
    # r/(p-r) is increasing on (1, p) with range (1/(p-1), inf)
    ratio_lo = max(thresh, 1.0 / (p - 1.0))
    if not q_max > ratio_lo:
        return AssumptionReport(False, None)
    r_lo = max(1.0, p * ratio_lo / (1.0 + ratio_lo))
    r_hi = p if math.isinf(q_max) else p * q_max / (1.0 + q_max)
    # q_max > ratio_lo gives 1 <= r_lo < r_hi <= p, so the midpoint lies in (1, p)
    return AssumptionReport(True, 0.5 * (r_lo + r_hi))


def critical_exponent(p: float, s: float, d: int, q_max: float) -> float:
    """p*_q = d*p*q / (2d + d*q - s*p*q); the q -> infinity limit is dp/(d - sp)."""
    if not check_assumption(p, s, d, q_max).satisfied:
        raise ValueError("moment assumption not satisfied for these parameters")
    if math.isinf(q_max):
        den = d - s * p
    else:
        den = 2 * d / q_max + d - s * p
    if den <= 0:
        raise ValueError(f"critical exponent formula leaves the admissible range (denominator {den:g})")
    return d * p / den


def divergence_probe(field: WeightField, p: float, s: float, radii, d: int = 1, origin_samples: int = 1):
    """Partial sums S(R) = sum_{0<|z|<=R} omega_{x,x+z} |z|^{ps} averaged over origins,
    with omega the jump-rate view omega(z1,z2) = c(z1,z2) |z1-z2|^{-(d+ps)}.

    The |z|^{ps} factors cancel: S(R) = sum c(x, x+z) |z|^{-d}, which grows like
    a harmonic sum when E(c) is a positive constant and stays bounded in the
    decaying-product regime.  Raises CapacityError before allocating when the
    offset arrays would not fit in physical memory.
    """
    radii = sorted(int(r) for r in radii)
    rmax = radii[-1]
    n_offsets = (2 * rmax + 1) ** d
    # measured peak: about 89 bytes per offset of the box
    require_memory(96 * n_offsets, f"divergence probe over {n_offsets} offsets")
    zs = _box_points([-rmax] * d, [rmax] * d)
    zs = zs[np.any(zs != 0, axis=1)]
    norms = np.sqrt((zs.astype(float) ** 2).sum(axis=1))
    keep = norms <= rmax
    zs, norms = zs[keep], norms[keep]
    totals = np.zeros(len(radii))
    for origin in _origins(field.seed, origin_samples, d):
        w = weight_pairs(field, np.broadcast_to(origin, zs.shape), origin + zs)
        term = w * norms ** (-d)
        for i, r in enumerate(radii):
            totals[i] += term[norms <= r].sum()
    return [(r, float(t / origin_samples)) for r, t in zip(radii, totals)]


def locality_scaling_sum(lattice, field: WeightField, alpha: float, xi: float) -> float:
    """eps^{2d} sum_{x in Q^eps} sum_{0<|x-y|<xi} c * |x-y|^{-d+alpha}.

    Bounded by C * xi^alpha with C stable in eps; the fitted xi-exponent is an
    ergodic-averaging diagnostic.
    """
    eps, d = lattice.eps, lattice.dim
    ids_q = lattice.q_ids
    za = lattice.sites[ids_q]
    zb = lattice.sites
    offsets = pair_offsets(lattice)
    rows, cols = offsets.codes[ids_q], offsets.codes
    r = offsets.distance(eps)
    mask = (r > 0) & (r < xi)
    kern = np.zeros_like(r)
    kern[mask] = r[mask] ** (-d + alpha)

    def tile(lo, hi):
        return pair_weight_matrix(field, za[lo:hi], zb) * kern[offsets.index(rows[lo:hi], cols)]

    return float(eps ** (2 * d) * blocked_total(tile, len(ids_q), len(zb), 8 * d))

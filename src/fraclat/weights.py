"""Stationary ergodic random weights c_{x,y} on integer site pairs.

The field is a pure function of (seed, unordered pair): a counter-based hash of
the canonical pair encoding (lexicographic minimum, coordinate difference) is
mapped to a uniform in (0,1) and pushed through the chosen distribution.  Weights
over distinct unordered pairs are therefore i.i.d., which is stationary and
ergodic under shifts in both variables, and everything is reproducible with
O(1) memory.  Because a weight depends on nothing but (seed, pair), callers may
hash any subset of pairs in any order: the kernel build hashes only the upper
triangle, tile by tile, and mirrors it.  `Constant` weights are never hashed.

Distributions are rescaled at construction so the analytic mean is 1 unless
`normalize=False`; the homogenized limit then matches the constant-weight
reference directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import ndtri

from ._reduction import blocked_total
from .errors import NumericalError
from .lattice import pair_offsets


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    value: float = 1.0

    def raw_mean(self) -> float:
        return self.value

    def raw_moment(self, q: float) -> float:
        return self.value**q

    def q_max(self) -> float:
        return math.inf

    def _transform(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(u, self.value)

    scale = 1.0  # never rescaled


@dataclass(frozen=True)
class LogNormal:
    sigma: float
    normalize: bool = True

    def raw_mean(self) -> float:
        return math.exp(self.sigma**2 / 2)

    def raw_moment(self, q: float) -> float:
        return math.exp(q**2 * self.sigma**2 / 2)

    def q_max(self) -> float:
        return math.inf

    def _transform(self, u: np.ndarray) -> np.ndarray:
        return np.exp(self.sigma * ndtri(u))

    @property
    def scale(self) -> float:
        return 1.0 / self.raw_mean() if self.normalize else 1.0


@dataclass(frozen=True)
class UnitPowerLaw:
    """c = U^{1/a} with U uniform on (0,1); E(c^{-q}) < infinity iff q < a."""

    a: float
    normalize: bool = True

    def raw_mean(self) -> float:
        return self.a / (self.a + 1)

    def raw_moment(self, q: float) -> float:
        if q <= -self.a:
            return math.inf
        return self.a / (self.a + q)

    def q_max(self) -> float:
        return self.a

    def _transform(self, u: np.ndarray) -> np.ndarray:
        return u ** (1.0 / self.a)

    @property
    def scale(self) -> float:
        return 1.0 / self.raw_mean() if self.normalize else 1.0


@dataclass(frozen=True)
class ShiftedPareto:
    """c = 1 + Pareto(a) (scale 1), so c >= 2 and all negative moments exist."""

    a: float
    normalize: bool = True

    def __post_init__(self):
        if self.a <= 1:
            raise ValueError("ShiftedPareto needs a > 1 for a finite mean")

    def raw_mean(self) -> float:
        return 1.0 + self.a / (self.a - 1)

    def raw_moment(self, q: float) -> float:
        raise NotImplementedError("no closed form; use empirical_moment")

    def q_max(self) -> float:
        return math.inf

    def _transform(self, u: np.ndarray) -> np.ndarray:
        return 1.0 + u ** (-1.0 / self.a)

    @property
    def scale(self) -> float:
        return 1.0 / self.raw_mean() if self.normalize else 1.0


@dataclass(frozen=True)
class DecayingProduct:
    """c_{x,y} = base(x,y) * (1 + |x-y|)^{-alpha}.

    For alpha > 0 the derived jump rates omega = c |z|^{-(d+ps)} have a summable
    ps-moment, the regime where the nonlocal part of the energy vanishes in the
    limit.  Never rescaled (its mean is not a single number).
    """

    base: Union[Constant, LogNormal, UnitPowerLaw, ShiftedPareto]
    alpha: float

    def raw_mean(self) -> float:
        raise NotImplementedError("mean depends on the pair distance")

    def q_max(self) -> float:
        return self.base.q_max()

    scale = 1.0


WeightDistribution = Union[Constant, LogNormal, UnitPowerLaw, ShiftedPareto, DecayingProduct]


@dataclass(frozen=True)
class WeightField:
    dist: WeightDistribution
    seed: int
    symmetrized: bool = True


# ---------------------------------------------------------------------------
# counter-based generator
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)


def _mix(h: np.ndarray) -> np.ndarray:
    """MurmurHash3's fmix64 finalizer, in place."""
    h ^= h >> np.uint64(33)
    h *= _M1
    h ^= h >> np.uint64(33)
    h *= _M2
    h ^= h >> np.uint64(33)
    return h


def _hash_pairs(seed: int, zmin: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Hash (seed, zmin, diff) -> uint64 per pair, from (d, m) coordinate columns."""
    init = (int(seed) + 0x9E3779B97F4A7C15) % 2**64
    h = np.full(zmin.shape[1], _mix(np.array([init], dtype=np.uint64))[0])
    for zmin_col, diff_col in zip(zmin, diff):
        for arr in (zmin_col, diff_col):
            v = arr.astype(np.int64).view(np.uint64)
            v *= _GOLDEN
            v += _GOLDEN
            h ^= v
            _mix(h)
    return h


def _uniforms(seed: int, zmin: np.ndarray, diff: np.ndarray) -> np.ndarray:
    h = _hash_pairs(seed, zmin, diff)
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def _canonical(z1: np.ndarray, z2: np.ndarray):
    """Lexicographic-minimum representative of each unordered pair and the
    coordinate difference to the other site, as (d, m) column arrays (numpy is
    slow along a length-d inner axis), and a mask of equal sites."""
    delta = np.ascontiguousarray((z2 - z1).T)
    swap = np.zeros(delta.shape[1], dtype=bool)
    equal = np.ones(delta.shape[1], dtype=bool)
    for col in delta:
        swap |= equal & (col < 0)
        equal &= col == 0
    zmin = np.where(swap, z2.T, z1.T)
    np.negative(delta, out=delta, where=swap)
    return zmin, delta, equal


def weight_pairs(field: WeightField, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Weights for rows of integer coordinates z1, z2 (shape (m, d))."""
    z1 = np.atleast_2d(np.asarray(z1, dtype=np.int64))
    z2 = np.atleast_2d(np.asarray(z2, dtype=np.int64))
    zmin, diff, equal = _canonical(z1, z2)
    if equal.any():
        raise ValueError("weight is undefined on the diagonal z1 == z2")
    u = _uniforms(field.seed, zmin, diff)
    dist = field.dist
    if isinstance(dist, DecayingProduct):
        base = dist.base._transform(u) * dist.base.scale
        r = np.sqrt((diff.astype(float) ** 2).sum(axis=0))
        return base * (1.0 + r) ** (-dist.alpha)
    return dist._transform(u) * dist.scale


def weight(field: WeightField, z1, z2) -> float:
    """Weight of a single site pair; pure, positive, symmetric."""
    return float(weight_pairs(field, np.asarray([z1]).reshape(1, -1), np.asarray([z2]).reshape(1, -1))[0])


def pair_weight_matrix(field: WeightField, za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Dense (len(za), len(zb)) weight matrix; diagonal pairs (equal sites) get 0.

    Constant weights are filled in without hashing.
    """
    za = np.asarray(za, dtype=np.int64)
    zb = np.asarray(zb, dtype=np.int64)
    z1 = np.repeat(za, zb.shape[0], axis=0)
    z2 = np.tile(zb, (za.shape[0], 1))
    off = z1[:, 0] != z2[:, 0]
    for col in range(1, z1.shape[1]):
        off |= z1[:, col] != z2[:, col]
    out = np.zeros(z1.shape[0])
    if isinstance(field.dist, Constant):
        out[off] = field.dist.value * field.dist.scale
    elif off.any():
        # compress, unlike a boolean index, copies whole rows at memcpy speed
        out[off] = weight_pairs(field, z1.compress(off, axis=0), z2.compress(off, axis=0))
    return out.reshape(za.shape[0], zb.shape[0])


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    stderr: float
    n: int


def _origins(seed: int, m: int, d: int) -> np.ndarray:
    idx = np.arange(m, dtype=np.int64).reshape(1, m)
    h = _hash_pairs(seed ^ 0x5EED0F0F, idx, idx * 0 + 7)
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
    origins derived deterministically from the seed.
    """
    if box_radius < 1 or origin_samples < 1:
        raise ValueError("box_radius and origin_samples must be >= 1")
    side = np.arange(-box_radius, box_radius + 1, dtype=np.int64)
    if d == 1:
        pts = side.reshape(-1, 1)
    else:
        pts = np.array(np.meshgrid(side, side, indexing="ij")).reshape(2, -1).T
    iu, ju = np.triu_indices(pts.shape[0], k=1)
    samples = []
    for origin in _origins(field.seed, origin_samples, d):
        w = weight_pairs(field, pts[iu] + origin, pts[ju] + origin)
        with np.errstate(over="ignore"):
            vals = w**exponent
        bad = ~np.isfinite(vals)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise NumericalError(
                f"c^{exponent} non-finite for pair {(pts[iu[k]] + origin).tolist()}, "
                f"{(pts[ju[k]] + origin).tolist()}"
            )
        samples.append(vals)
    vals = np.concatenate(samples)
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
    witness = min(r_hi, 0.5 * (r_lo + r_hi))
    if not (1.0 < witness < p):
        witness = 0.5 * (r_lo + r_hi)
    return AssumptionReport(True, witness)


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
    decaying-product regime.
    """
    radii = sorted(int(r) for r in radii)
    rmax = radii[-1]
    if d == 1:
        zs = np.concatenate([np.arange(-rmax, 0), np.arange(1, rmax + 1)]).reshape(-1, 1)
    else:
        side = np.arange(-rmax, rmax + 1)
        zs = np.array(np.meshgrid(side, side, indexing="ij")).reshape(2, -1).T
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

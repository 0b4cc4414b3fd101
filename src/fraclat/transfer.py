"""Bridges between grid functions and continuum functions.

Piecewise-constant embedding (half-open cells x_i + [-eps/2, eps/2)), cell
averaging by tensor Gauss quadrature, multilinear finite-element interpolation,
pointwise sampling, mollified recovery, and a bracketed continuum energy for
limit comparisons.  The near-diagonal part of the continuum double integral is
never evaluated numerically: it is bracketed between 0 and an explicit
Lipschitz bound, so quadrature bias cannot masquerade as convergence.

scipy.integrate is imported on first use, inside `mollified_recovery`, its
only user: with the scipy.optimize and scipy.sparse it pulls in, it would add
about 0.4 s to the start-up of every run, and no study driver calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .energy import GridFunction
from .errors import require_memory
from .lattice import LatticeDomain, grid_points

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


@dataclass(frozen=True)
class ContinuumFunction:
    evaluate: Callable  # (n, d) array of points -> (n,) values
    dim: int
    support_box: Optional[np.ndarray] = None  # (d, 2); zero outside when set
    lipschitz_const: Optional[float] = None  # None when no Lipschitz constant is known

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.asarray(self.evaluate(pts), dtype=float)
        if self.support_box is not None:
            box = self.support_box
            inside = np.all((pts >= box[:, 0]) & (pts <= box[:, 1]), axis=1)
            vals = np.where(inside, vals, 0.0)
        return vals


def embed(u: GridFunction) -> ContinuumFunction:
    """Piecewise-constant extension: value u(x_i) on the half-open cell
    x_i + [-eps/2, eps/2)^d."""
    lat = u.lattice

    def evaluate(pts: np.ndarray) -> np.ndarray:
        z = np.floor(pts / lat.eps + 0.5).astype(np.int64)
        ids = lat.site_ids(z)  # raises outside the halo
        return u.values[ids]

    return ContinuumFunction(evaluate=evaluate, dim=lat.dim)


def average(f: ContinuumFunction, lattice: LatticeDomain) -> GridFunction:
    """Cell averages eps^{-d} int_{cell} f by tensor Gauss quadrature (order 5)."""
    d = lattice.dim
    # tensor nodes/weights on [-eps/2, eps/2]^d, normalized to average
    offsets = grid_points([lattice.eps / 2.0 * _GAUSS_X] * d)
    wts = grid_points([_GAUSS_W / 2.0] * d).prod(axis=1)  # leggauss weights sum to 2
    pos = lattice.positions
    vals = np.zeros(lattice.n_sites)
    for off, w in zip(offsets, wts):
        vals += w * f(pos + off)
    return GridFunction(lattice, vals)


def fe_interpolate(u: GridFunction) -> ContinuumFunction:
    """Continuous multilinear interpolation: agrees with u at sites, multilinear
    on each cell eps*z + [0, eps)^d."""
    lat = u.lattice
    eps, d = lat.eps, lat.dim
    zmin = lat.sites.min(axis=0)
    zmax = lat.sites.max(axis=0)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        z0 = np.floor(pts / eps).astype(np.int64)
        z0 = np.clip(z0, zmin, zmax - 1)
        frac = pts / eps - z0
        out = np.zeros(pts.shape[0])
        for corner in range(2**d):
            kappa = np.array([(corner >> ax) & 1 for ax in range(d)])
            w = np.ones(pts.shape[0])
            for ax in range(d):
                w *= frac[:, ax] if kappa[ax] else 1.0 - frac[:, ax]
            out += w * u.values[lat.site_ids(z0 + kappa)]
        return out

    slopes = []
    for ax in range(d):
        shift = np.zeros(d, dtype=np.int64)
        shift[ax] = 1
        keep = lat.sites[:, ax] < zmax[ax]
        ids_hi = lat.site_ids(lat.sites[keep] + shift)
        slopes.append(np.abs(u.values[ids_hi] - u.values[keep]).max() / eps if keep.any() else 0.0)
    lip = float(np.linalg.norm(slopes))
    return ContinuumFunction(evaluate=evaluate, dim=d, lipschitz_const=lip)


def sample(f: ContinuumFunction, lattice: LatticeDomain) -> GridFunction:
    """Pointwise values of f at the lattice sites."""
    return GridFunction(lattice, f(lattice.positions))


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def _bump(t: float, norm: float) -> float:
    if abs(t) >= 1.0:
        return 0.0
    return norm * math.exp(-1.0 / (1.0 - t * t))


def mollified_recovery(f: ContinuumFunction, k: int) -> ContinuumFunction:
    """Convolution with the unit-mass bump at scale 1/k (d=1): smooth, sup-norm
    non-increasing, support grown by 1/k.  A non-negative unit-mass kernel keeps
    f's Lipschitz constant, so the result carries it."""
    if f.dim != 1:
        raise NotImplementedError("mollified recovery implemented for d=1")
    if k < 1:
        raise ValueError("k must be a positive integer")
    from scipy.integrate import quad

    # normalization of the standard bump exp(-1/(1-t^2)) on (-1, 1)
    norm = 1.0 / quad(lambda t: math.exp(-1.0 / (1.0 - t * t)), -1.0, 1.0, epsabs=1e-14)[0]

    def evaluate(pts: np.ndarray) -> np.ndarray:
        out = np.empty(pts.shape[0])
        for i, x in enumerate(pts[:, 0]):
            val, _ = quad(
                lambda y: f(np.array([[x - y]]))[0] * k * _bump(k * y, norm),
                -1.0 / k,
                1.0 / k,
                epsabs=1e-8,
                epsrel=1e-8,
                limit=200,
            )
            out[i] = val
        return out

    support = None
    if f.support_box is not None:
        support = f.support_box + np.array([-1.0 / k, 1.0 / k])
    return ContinuumFunction(evaluate=evaluate, dim=1, support_box=support, lipschitz_const=f.lipschitz_const)


# ---------------------------------------------------------------------------
# continuum energy bracket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyBracket:
    low: float
    high: float


def continuum_energy(
    f: ContinuumFunction,
    s: float,
    p: float,
    V,
    domain,
    quad_n: int = 128,
    xi: Optional[float] = None,
) -> EnergyBracket:
    """Bracket of the double integral over Q x Q of V(f(x)-f(y)) / |x-y|^{1+ps}.

    Tile pairs separated by at least xi are integrated with tensor Gauss
    quadrature; the remaining near-diagonal strip |x-y| < xi + 2h is bracketed
    between 0 and the Lipschitz bound  beta * C_L^p * |Q| * 2 delta^{p-ps}/(p-ps),
    delta = xi + 2h.  d=1 only.  Raises CapacityError before allocating when
    the quadrature arrays would not fit in physical memory.
    """
    if f.dim != 1:
        raise NotImplementedError("continuum energy implemented for d=1")
    if f.lipschitz_const is None:
        raise ValueError("continuum energy needs a Lipschitz function with a known constant")
    # measured peak: about 976 bytes per panel, from the (5, 5 quad_n) arrays of a tile row
    require_memory(1000 * quad_n, f"continuum energy quadrature over {quad_n} panels")
    a, b = np.asarray(domain, dtype=float).reshape(2)
    h = (b - a) / quad_n
    if xi is None:
        xi = 2.0 * h
    # panel Gauss nodes/values
    centers = a + h * (np.arange(quad_n) + 0.5)
    nodes = (centers[:, None] + (h / 2.0) * _GAUSS_X[None, :]).ravel()
    wts = np.tile((h / 2.0) * _GAUSS_W, quad_n)
    fv = f(nodes.reshape(-1, 1))
    # include tile pairs whose minimal separation reaches xi
    min_gap = int(math.ceil(xi / h)) + 1
    far = 0.0
    for i in range(quad_n):
        js = np.concatenate(
            [np.arange(0, max(0, i - min_gap + 1)), np.arange(min(quad_n, i + min_gap), quad_n)]
        )
        if js.size == 0:
            continue
        xi_nodes = slice(5 * i, 5 * i + 5)
        jn = (js[:, None] * 5 + np.arange(5)[None, :]).ravel()
        dx = np.abs(nodes[xi_nodes, None] - nodes[None, jn])
        vals = V.value(fv[xi_nodes, None] - fv[None, jn]) / dx ** (1.0 + p * s)
        far += float((wts[xi_nodes, None] * wts[None, jn] * vals).sum())
    delta = min_gap * h  # every omitted pair satisfies |x-y| < delta
    c_l = f.lipschitz_const
    # sharpest constant of V(t) <= beta * |t|^p on the omitted difference range
    ts = c_l * delta * 2.0 ** -np.arange(0, 40.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = float(np.nanmax(V.value(ts) / ts**p)) if c_l > 0 else 0.0
    near_high = beta * c_l**p * (b - a) * 2.0 * delta ** (p - p * s) / (p - p * s)
    if p - p * s <= 0:
        raise ValueError("near-diagonal bracket needs p(1-s) > 0")
    return EnergyBracket(low=far, high=far + near_high)


# ---------------------------------------------------------------------------
# exact distances between piecewise-constant embeddings
# ---------------------------------------------------------------------------


def _axis_breaks(lattice: LatticeDomain, axis: int, lo: float, hi: float) -> np.ndarray:
    zs = np.arange(lattice.sites[:, axis].min(), lattice.sites[:, axis].max() + 1)
    edges = lattice.eps * (zs - 0.5)
    edges = np.append(edges, lattice.eps * (zs[-1] + 0.5))
    return edges[(edges > lo) & (edges < hi)]


def pc_l2_distance(u1: GridFunction, u2: GridFunction, box) -> float:
    """Exact L2(box) distance between the piecewise-constant embeddings of u1, u2,
    computed on the common refinement of the two cell grids."""
    d = u1.lattice.dim
    if u2.lattice.dim != d:
        raise ValueError("dimension mismatch")
    box = np.asarray(box, dtype=float).reshape(d, 2)
    f1, f2 = embed(u1), embed(u2)
    mids, lens = [], []
    for ax in range(d):
        lo, hi = box[ax]
        breaks = np.unique(
            np.concatenate(
                [[lo, hi], _axis_breaks(u1.lattice, ax, lo, hi), _axis_breaks(u2.lattice, ax, lo, hi)]
            )
        )
        mids.append(0.5 * (breaks[:-1] + breaks[1:]))
        lens.append(np.diff(breaks))
    pts = grid_points(mids)
    wts = grid_points(lens).prod(axis=1)
    diff = f1(pts) - f2(pts)
    return float(math.sqrt(float((wts * diff * diff).sum())))

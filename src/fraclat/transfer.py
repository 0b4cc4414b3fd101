"""Bridges between grid functions and continuum functions.

Piecewise-constant embedding (half-open cells x_i + [-eps/2, eps/2)), cell
averaging by tensor Gauss quadrature, pointwise sampling, exact L2 distances
between embeddings, and a bracketed continuum energy for limit comparisons.
The near-diagonal part of the continuum double integral is never evaluated
numerically: it is bracketed between 0 and an explicit Lipschitz bound, so
quadrature bias cannot masquerade as convergence.

The five Gauss-Legendre nodes and weights are fixed literals, the bits of
`numpy.polynomial.legendre.leggauss(5)`: computing them at import would load
`numpy.polynomial` and run its companion-matrix eigensolve, which costs every
run about 1.8 MiB of resident memory that it never gives back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .energy import GridFunction
from .errors import CapacityError
from .lattice import LatticeDomain, grid_points

# leggauss(5), to the bit; the weights sum to 2
_GAUSS_X = np.array([float.fromhex(h) for h in (
    "-0x1.cff6ce0533a69p-1", "-0x1.13b23fd99b705p-1", "0x0p+0", "0x1.13b23fd99b705p-1", "0x1.cff6ce0533a69p-1")])
_GAUSS_W = np.array([float.fromhex(h) for h in (
    "0x1.e539ec36e0393p-3", "0x1.ea1da25ae4158p-2", "0x1.23456789abcddp-1", "0x1.ea1da25ae4158p-2",
    "0x1.e539ec36e0393p-3")])


@dataclass(frozen=True)
class ContinuumFunction:
    evaluate: Callable  # (n, d) array of points -> (n,) values
    dim: int
    lipschitz_const: Optional[float] = None  # None when no Lipschitz constant is known

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.evaluate(pts), dtype=float)


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


def sample(f: ContinuumFunction, lattice: LatticeDomain) -> GridFunction:
    """Pointwise values of f at the lattice sites."""
    return GridFunction(lattice, f(lattice.positions))


# ---------------------------------------------------------------------------
# continuum energy bracket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyBracket:
    low: float
    high: float


# The panel-pair loop takes 0.25-0.42 us per panel^2 (d=1 tent, 500-4000
# panels, one core of a 2-vCPU machine), so the cap is 1-2 minutes of work.
# Its arrays, about 1 kB per panel, then stay far below any machine's memory.
QUAD_N_CAP = 16_384


def continuum_energy(
    f: ContinuumFunction,
    s: float,
    p: float,
    V,
    domain,
    quad_n: int = 128,
) -> EnergyBracket:
    """Bracket of the double integral over Q x Q of V(f(x)-f(y)) / |x-y|^{1+ps}.

    Q is cut into quad_n panels of width h.  Panel pairs at least two panels
    apart are integrated with tensor Gauss quadrature; the remaining
    near-diagonal strip |x-y| < delta = 3h is bracketed between 0 and the
    Lipschitz bound  beta * C_L^p * |Q| * 2 delta^{p-ps}/(p-ps).  d=1 only.
    Raises CapacityError before any work when quad_n exceeds QUAD_N_CAP.
    """
    if p - p * s <= 0:
        raise ValueError("near-diagonal bracket needs p(1-s) > 0")
    if f.dim != 1:
        raise NotImplementedError("continuum energy implemented for d=1")
    if f.lipschitz_const is None:
        raise ValueError("continuum energy needs a Lipschitz function with a known constant")
    if quad_n > QUAD_N_CAP:
        raise CapacityError(
            f"continuum energy quadrature over {quad_n} panels: its time grows as quad_n^2, "
            f"about 0.3 us per panel^2, and the cap is {QUAD_N_CAP} panels"
        )
    a, b = np.asarray(domain, dtype=float).reshape(2)
    h = (b - a) / quad_n
    # panel Gauss nodes/values
    centers = a + h * (np.arange(quad_n) + 0.5)
    nodes = (centers[:, None] + (h / 2.0) * _GAUSS_X[None, :]).ravel()
    wts = np.tile((h / 2.0) * _GAUSS_W, quad_n)
    fv = f(nodes.reshape(-1, 1))
    # panel pairs whose indices differ by min_gap or more are integrated
    min_gap = 3
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

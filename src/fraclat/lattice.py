"""Epsilon-lattices on boxes with Dirichlet boundary layers.

Sites are identified by their integer coordinates z (physical position x = eps*z),
so weight lookups and hashing stay exact.  A lattice holds every z with eps*z in
a closed halo box B containing the open domain box Q, in lexicographic order
over that full integer box, so its first and last sites are the box's corners
and a site's id is index arithmetic on them.  The sites are partitioned into

  * interior:  eps*z in Q and the cube eps*z + [-eps, eps]^d misses the boundary of Q,
  * boundary:  the cube eps*z + [-eps, eps]^d meets the boundary of Q,
  * exterior:  eps*z outside Q and the cube misses the boundary.

Boundary sites may lie inside or outside Q; sites of Q itself ("Q^eps") are the
interior sites plus the boundary sites inside Q.  A lattice keeps the ids of
the interior, which the Dirichlet constraint leaves free, and of Q^eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError

DEFAULT_SITE_CAP = 1_000_000

# relative slack for "touching" comparisons; dyadic eps and rational box bounds
# are exact in binary so this only papers over accumulated rounding
_REL_TOL = 1e-12


@dataclass(frozen=True)
class LatticeDomain:
    dim: int
    eps: float
    sites: np.ndarray  # shape (N, d) integer coordinates, lexicographic
    interior_ids: np.ndarray
    q_ids: np.ndarray  # sites with eps*z in Q (interior + boundary-inside-Q)

    @property
    def n_sites(self) -> int:
        return self.sites.shape[0]

    @property
    def positions(self) -> np.ndarray:
        return self.eps * self.sites

    def site_ids(self, z: np.ndarray) -> np.ndarray:
        """Dense ids for integer coordinates z (shape (m, d)); the halo grid is
        a full tensor product from corner sites[0] to sites[-1], so the id is
        pure index arithmetic."""
        z = np.atleast_2d(np.asarray(z, dtype=np.int64))
        rel = z - self.sites[0]
        counts = self.sites[-1] - self.sites[0] + 1
        if np.any(rel < 0) or np.any(rel >= counts):
            raise ValueError("site outside halo box")
        return rel @ _row_major_strides(counts)


def same_lattice(a: LatticeDomain, b: LatticeDomain) -> bool:
    """Whether a and b have the same eps and sites, so a site id means the same site on both."""
    return a is b or (a.dim == b.dim and a.eps == b.eps and np.array_equal(a.sites, b.sites))


def _as_box(box, d: int) -> np.ndarray:
    arr = np.asarray(box, dtype=float).reshape(d, 2)
    if np.any(arr[:, 0] >= arr[:, 1]):
        raise ValueError(f"degenerate box {arr.tolist()}")
    return arr


def check_boxes(d: int, domain, halo):
    """The domain and halo boxes as (d, 2) arrays; raises ValueError unless d is
    1 or 2, neither box is degenerate and the halo contains the closure of the
    domain."""
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    q = _as_box(domain, d)
    b = _as_box(halo, d)
    tol = _REL_TOL * max(1.0, float(np.abs(b).max()))
    if np.any(b[:, 0] > q[:, 0] + tol) or np.any(b[:, 1] < q[:, 1] - tol):
        raise ValueError("halo box must contain the closure of the domain box")
    return q, b


def _row_major_strides(counts: np.ndarray) -> np.ndarray:
    strides = np.ones(len(counts), dtype=np.int64)
    for i in range(len(counts) - 2, -1, -1):
        strides[i] = strides[i + 1] * counts[i + 1]
    return strides


def grid_points(axes) -> np.ndarray:
    """The tensor grid of the 1-d arrays in `axes`, shape (n, d), in
    lexicographic order (the first axis varies slowest)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _box_points(los, his) -> np.ndarray:
    """Every integer point of the box prod [lo, hi], shape (n, d), lexicographic."""
    return grid_points([np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(los, his)])


def build_lattice(d: int, eps: float, domain, halo) -> LatticeDomain:
    """Construct the lattice of all z with eps*z in the closed halo box, with the
    interior that the Dirichlet boundary layer leaves and Q^eps."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    q, b = check_boxes(d, domain, halo)
    tol = _REL_TOL * max(1.0, float(np.abs(b).max()))

    los = np.ceil(b[:, 0] / eps - _REL_TOL).astype(np.int64)
    his = np.floor(b[:, 1] / eps + _REL_TOL).astype(np.int64)
    counts = his - los + 1
    n = int(np.prod(counts.astype(object)))
    if n > DEFAULT_SITE_CAP:
        raise CapacityError(f"lattice would have {n} sites, cap is {DEFAULT_SITE_CAP}")
    if n <= 0:
        raise ConfigError(f"halo box contains no lattice sites at eps={eps:g}")

    sites = _box_points(los, his)

    pos = eps * sites
    # cube eps*z + [-eps, eps]^d meets closure(Q) on every axis
    meets = np.all((pos - eps <= q[:, 1] + tol) & (pos + eps >= q[:, 0] - tol), axis=1)
    # cube strictly inside the open box Q
    contained = np.all((pos - eps > q[:, 0] + tol) & (pos + eps < q[:, 1] - tol), axis=1)
    boundary = meets & ~contained
    in_q = np.all((pos > q[:, 0] + tol) & (pos < q[:, 1] - tol), axis=1)
    interior = in_q & ~boundary

    return LatticeDomain(
        dim=d,
        eps=float(eps),
        sites=sites,
        interior_ids=np.flatnonzero(interior),
        q_ids=np.flatnonzero(in_q),
    )


@dataclass(frozen=True)
class PairOffsets:
    """Every pair offset of a lattice's sites, indexed through one small table.

    With the per-site codes c, sites[j] - sites[i] == offsets[c[j] - c[i] + center].
    A function of the offset alone (a distance, a power of it) is then evaluated
    once per table entry, at most (2 extent + 1)^d of them, and gathered per
    pair instead of being recomputed N^2 times.
    """

    codes: np.ndarray  # (N,) int64, one per site
    offsets: np.ndarray  # (T, d) int64, lexicographic
    center: int  # table index of the zero offset

    def index(self, row_codes: np.ndarray, col_codes: np.ndarray) -> np.ndarray:
        """(len(row_codes), len(col_codes)) table indices of the site pairs."""
        return (self.center - row_codes)[:, None] + col_codes

    def distance(self, eps: float) -> np.ndarray:
        """Physical distance eps * |offset| of every table entry (0 at the center)."""
        diff = self.offsets.astype(float)
        return eps * np.sqrt((diff * diff).sum(axis=1))


def pair_offsets(lattice: LatticeDomain) -> PairOffsets:
    """The offset table of a lattice; O(N) codes plus the small table."""
    extent = lattice.sites[-1] - lattice.sites[0]  # largest |offset| on each axis
    strides = _row_major_strides(2 * extent + 1)
    offsets = _box_points(-extent, extent)
    return PairOffsets(
        codes=(lattice.sites - lattice.sites[0]) @ strides,
        offsets=offsets,
        center=int(extent @ strides),
    )

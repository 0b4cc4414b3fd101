"""Quadratic-case (p=2) pathway: bilinear form assembly, operator application,
conjugate-gradient solves, and the spectrum of the solution operator.

The assembled matrix A over the free sites satisfies

    u^T A v = eps^{2d} sum sum c (u(y)-u(x)) (v(y)-v(x)) / |x-y|^{d+2s}

(sums over the kernel's site range, u and v extended by zero off the free set),
so A is symmetric positive semi-definite and definite under the Dirichlet
constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._reduction import blocked_row_sum
from .energy import GridFunction
from .errors import NumericalError
from .lattice import LatticeDomain


@dataclass(frozen=True)
class BilinearSystem:
    lattice: LatticeDomain
    free_ids: np.ndarray
    matrix: np.ndarray  # dense symmetric, over free_ids
    rhs: np.ndarray  # eps^d * f on free_ids
    constraint: str


@dataclass(frozen=True)
class SolveStats:
    iters: int
    residual: float
    residual_history: tuple
    rhs_projected: bool = False


@dataclass(frozen=True)
class SpectralReport:
    eps: float
    eigenvalues: np.ndarray  # mu_1 >= mu_2 >= ... of the solution operator
    eigenvectors: list  # GridFunctions, L2(Q^eps)-orthonormal


def assemble(lattice: LatticeDomain, kernel: tuple, constraint: str, f: GridFunction) -> BilinearSystem:
    """The p=2 weak form over the free sites, from a kernel of (s, p=2)."""
    if constraint == "dirichlet0":
        free = lattice.interior_ids
    elif constraint == "mean0":
        free = lattice.q_ids
    else:
        raise ValueError(f"constraint must be 'dirichlet0' or 'mean0', got {constraint!r}")
    if len(free) == 0:
        raise ValueError("empty free set: no unconstrained sites")
    ids, k = kernel
    # map free site ids to rows of the kernel over its site range
    lookup = -np.ones(lattice.n_sites, dtype=np.int64)
    lookup[ids] = np.arange(len(ids))
    rows = lookup[free]
    if np.any(rows < 0):
        raise ValueError("free set not contained in the kernel's site range")
    row_sums = blocked_row_sum(lambda lo, hi: k[lo:hi], len(ids), len(ids))
    a = -2.0 * k[np.ix_(rows, rows)]
    np.fill_diagonal(a, 2.0 * row_sums[rows])
    a = 0.5 * (a + a.T)  # exact symmetry regardless of summation order
    epsd = lattice.eps**lattice.dim
    rhs = epsd * f.values[free]
    return BilinearSystem(lattice=lattice, free_ids=free, matrix=a, rhs=rhs, constraint=constraint)


def apply_operator(kernel: tuple, u: GridFunction) -> GridFunction:
    """(L u)(x) = eps^d sum_{y != x} c (u(y)-u(x)) / |x-y|^{d+2s} over all halo
    sites, from the global kernel of (s, p=2)."""
    lattice = u.lattice
    ids, k = kernel
    vals = u.values[ids]
    # k carries eps^{2d}; the operator carries a single eps^d
    out = blocked_row_sum(lambda lo, hi: k[lo:hi] * (vals[None, :] - vals[lo:hi, None]), len(ids), len(ids))
    out /= lattice.eps**lattice.dim
    return GridFunction(lattice, out)


def _project_mean(v: np.ndarray) -> np.ndarray:
    return v - v.mean()


def solve(system: BilinearSystem, tol: float = 1e-10, max_iter: int = 10_000):
    """Conjugate gradients on the free set; returns (full GridFunction, SolveStats)."""
    a, b = system.matrix, system.rhs.copy()
    mean_zero = system.constraint == "mean0"
    projected = False
    if mean_zero:
        mean = float(b.mean())
        if abs(mean) > 1e-15 * max(1.0, float(np.abs(b).max())):
            projected = True
        b = _project_mean(b)
    bnorm = float(np.linalg.norm(b))
    history = []
    x = np.zeros_like(b)
    if bnorm == 0.0:
        stats = SolveStats(iters=0, residual=0.0, residual_history=(), rhs_projected=projected)
        return _embed(system, x), stats
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    it = 0
    while it < max_iter:
        res = float(np.sqrt(rs)) / bnorm
        history.append(res)
        if res <= tol:
            break
        ap = a @ p
        if mean_zero:
            ap = _project_mean(ap)
        alpha = rs / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
        it += 1
    else:
        raise NumericalError(
            f"conjugate gradients did not reach tol={tol:g} in {max_iter} iterations; "
            f"residual history tail {history[-5:]}"
        )
    if mean_zero:
        x = _project_mean(x)
    stats = SolveStats(iters=it, residual=history[-1], residual_history=tuple(history), rhs_projected=projected)
    return _embed(system, x), stats


def _embed(system: BilinearSystem, x: np.ndarray) -> GridFunction:
    full = np.zeros(system.lattice.n_sites)
    full[system.free_ids] = x
    return GridFunction(system.lattice, full)


def spectrum(system: BilinearSystem, k: int) -> SpectralReport:
    """k largest eigenvalues mu_j of the solution operator, i.e. mu_j = eps^d / lambda_j
    for the k smallest eigenvalues of A, with L2(Q^eps)-orthonormal eigenvectors."""
    if system.constraint != "dirichlet0":
        raise ValueError("spectrum requires the Dirichlet constraint")
    n = system.matrix.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    try:
        lam, vecs = scipy.linalg.eigh(system.matrix, subset_by_index=(0, k - 1))
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"dense eigensolver failed: {exc}") from exc
    if lam[0] <= 0:
        raise NumericalError(f"form eigenvalue {lam[0]:g} is not positive")
    eps, d = system.lattice.eps, system.lattice.dim
    mu = eps**d / lam  # lam ascending -> mu descending
    funcs = []
    for j in range(k):
        v = vecs[:, j] * eps ** (-d / 2)
        nz = np.flatnonzero(v)
        if nz.size and v[nz[0]] < 0:
            v = -v
        funcs.append(_embed(system, v))
    return SpectralReport(eps=eps, eigenvalues=mu, eigenvectors=funcs)

"""Quadratic-case (p=2) pathway: bilinear form assembly, conjugate-gradient
solves, and the spectrum of the solution operator.

The assembled matrix A over the free sites satisfies

    u^T A v = eps^{2d} sum sum c (u(y)-u(x)) (v(y)-v(x)) / |x-y|^{d+2s}

(sums over the flavor's site range, u and v extended by zero off the free set).
The free sites are the interior ones: the p=2 problem here is the Dirichlet
one (u = 0 off the interior) with no zero-order term, and A is symmetric
positive definite.  `assemble` needs only the free rows of the kernel K: A
holds -2 K[free, free] and, on its diagonal, twice the whole row sums, which
fold in every interaction with the constrained sites.  `kernel_matrix` fills
that block and the row sums one tile of rows at a time, and A is the block
scaled in place, so the N x N kernel is never held and peak memory is the
8 |free|^2 bytes of A plus one tile.

`solve` and `spectrum` run inside `_one_blas_thread`, which sets the OpenBLAS
that numpy or scipy links to one thread and restores the old count after the
call.  A threaded product or factorization sums in another order, so a
report's bits would depend on the BLAS thread count; on one thread they do
not, and no BLAS worker thread wakes to spin-wait.  Where no OpenBLAS is found
(MKL, Accelerate), the count is left alone.  `spectrum` works in A's own
buffer, so `assemble`'s capacity check covers the whole spectral study.

`spectrum` calls LAPACK's dsyevr through scipy's own extension module
`scipy.linalg._flapack`, which `_flapack` loads from its file on first use
without running the scipy.linalg package: after numpy, that package's imports
take about 0.28 s and 29 MB, the extension alone 4 ms and 2.6 MB.  ctypes is
imported only when a solve or `spectrum` pins the BLAS thread count.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .energy import GridFunction, kernel_matrix
from .errors import ConfigError, NumericalError, require_memory
from .lattice import LatticeDomain
from .weights import WeightField


@dataclass(frozen=True)
class BilinearSystem:
    lattice: LatticeDomain
    free_ids: np.ndarray
    matrix: np.ndarray  # dense symmetric, over free_ids; `spectrum` overwrites it
    rhs: np.ndarray  # eps^d * f on free_ids


@dataclass(frozen=True)
class SolveStats:
    iters: int
    residual: float


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray  # mu_1 >= mu_2 >= ... of the solution operator
    eigenvectors: list  # GridFunctions, L2(Q^eps)-orthonormal


def assemble(
    lattice: LatticeDomain, field: WeightField, s: float, flavor: str, f: GridFunction
) -> BilinearSystem:
    """The p=2 weak form over the interior sites, from the kernel K of (s, p=2, flavor).

    A = -2 K[free, free] off the diagonal and twice the row sums of K on it.
    `kernel_matrix` builds K[free, free] and the row sums tile by tile, and A
    is that block scaled in place, so no N x N array is allocated.  A is
    symmetric to the bit, because K[x, y] and K[y, x] are.  Raises
    CapacityError before allocating when A would not fit in physical memory.
    """
    free = lattice.interior_ids
    if len(free) == 0:
        raise ConfigError(f"empty free set: no unconstrained sites at eps={lattice.eps:g}")
    m = len(free)
    require_memory(8 * m * m, f"assembled matrix over {m} free sites")
    # free sites lie inside both flavors' ranges
    row_sums, a = kernel_matrix(lattice, field, s, 2.0, flavor, rows=free)
    a *= -2.0
    np.fill_diagonal(a, 2.0 * row_sums)
    epsd = lattice.eps**lattice.dim
    rhs = epsd * f.values[free]
    return BilinearSystem(lattice=lattice, free_ids=free, matrix=a, rhs=rhs)


# the thread count's get/set names in numpy wheels' OpenBLAS, scipy wheels' and a system one
_OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")


@contextmanager
def _one_blas_thread(module):
    """Run the body with the OpenBLAS that the extension `module` links on one
    thread, restoring the count on exit; where no name resolves, run it as is.
    `ctypes.CDLL` of a loaded module returns its handle, and a symbol lookup on
    that handle searches the module's dependencies too."""
    import ctypes

    lib = ctypes.CDLL(module.__file__)
    name = next((n for n in _OPENBLAS_THREADS if hasattr(lib, n.format("get"))), None)
    if name is None:
        yield
        return
    old = getattr(lib, name.format("get"))()
    getattr(lib, name.format("set"))(1)
    try:
        yield
    finally:
        getattr(lib, name.format("set"))(old)


def solve(system: BilinearSystem, tol: float = 1e-10, max_iter: int = 10_000):
    """Conjugate gradients on the free set; returns (full GridFunction, SolveStats).

    Each product a @ p is written into one preallocated vector on one thread
    of the OpenBLAS behind numpy's matmul, which numpy's linalg extension
    links too, so the iterates have the one-thread bits at any thread count.
    """
    a, b = system.matrix, system.rhs
    bnorm = float(np.linalg.norm(b))
    history = []
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return _embed(system, x), SolveStats(iters=0, residual=0.0)
    ap = np.empty_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    it = 0
    with _one_blas_thread(np.linalg._umath_linalg):
        while it < max_iter:
            res = float(np.sqrt(rs)) / bnorm
            history.append(res)
            if res <= tol:
                break
            np.matmul(a, p, out=ap)
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
    return _embed(system, x), SolveStats(iters=it, residual=history[-1])


def _embed(system: BilinearSystem, x: np.ndarray) -> GridFunction:
    full = np.zeros(system.lattice.n_sites)
    full[system.free_ids] = x
    return GridFunction(system.lattice, full)


def _flapack():
    """scipy's LAPACK extension `scipy.linalg._flapack`, loaded from its file
    under the scipy package directory, which `find_spec` locates without
    importing scipy.  The module goes into `sys.modules` under its own name, so
    a later `import scipy.linalg` reuses it; where the file is missing, it is
    imported the usual way, through the package."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(root, "linalg", "_flapack" + suffix)
        if os.path.exists(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            sys.modules[name] = module
            return module
    from scipy.linalg import _flapack

    return _flapack


def spectrum(system: BilinearSystem, k: int) -> SpectralReport:
    """k largest eigenvalues mu_j of the solution operator, i.e. mu_j = eps^d / lambda_j
    for the k smallest eigenvalues of A, with L2(Q^eps)-orthonormal eigenvectors.

    The eigenpairs come from LAPACK's dsyevr over A's lower triangle, the call
    that `scipy.linalg.eigh(A.T, subset_by_index=(0, k - 1), overwrite_a=True)`
    makes, to the bit.  It consumes `system.matrix`: A is symmetric to the
    bit, so A.T is A in Fortran order, and dsyevr overwrites that buffer
    instead of copying 8 m^2 bytes that `assemble`'s capacity check never
    counted.  It runs on one BLAS thread, so its bits do not depend on the
    thread count.  A non-finite entry of A raises NumericalError first.
    """
    n = system.matrix.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"k must lie in 1..{n} (the free sites at eps={system.lattice.eps:g}), got {k}")
    a = system.matrix.T
    if not np.isfinite(a).all():
        raise NumericalError("assembled matrix holds a non-finite entry")
    lapack = _flapack()
    with _one_blas_thread(lapack):
        work, iwork, _ = lapack.dsyevr_lwork(n, lower=1)
        lam, vecs, found, _, info = lapack.dsyevr(
            a, compute_v=1, range="I", il=1, iu=k, lower=1, lwork=int(work), liwork=int(iwork), overwrite_a=1
        )
    if info != 0 or found < k:
        raise NumericalError(f"dense eigensolver dsyevr failed: info={info}, {found} of {k} eigenpairs")
    lam, vecs = lam[:found], vecs[:, :found]
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
    return SpectralReport(eigenvalues=mu, eigenvectors=funcs)

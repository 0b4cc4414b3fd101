"""Quadratic-case (p=2) pathway: bilinear form assembly, Cholesky and
conjugate-gradient solves, and the spectrum of the solution operator.

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

`solve` factors A by a panel-blocked Cholesky in A's own buffer (dpotf2 on
each 32-wide diagonal block, dtrsm below it, dsyrk on the trailing triangle),
solves with two CBLAS dtrsv calls, and restores A; `cg` then checks the
residual from that start and takes no step where it already meets `tol`.
The narrow panel keeps OpenBLAS's Level-3 buffer to about 0.5 MB of peak RSS,
where LAPACK's blocked dpotrf pages in about 3.5 MB at m = 1021.
Where the factor fails, `cg` runs from 0.  `cg` from 0 alone serves the
`solve` study, whose report reads its iteration count.

`solve`, `cg` and `spectrum` run inside `_one_blas_thread`, which sets the
OpenBLAS that numpy or scipy links to one thread and restores the old count
after the call.  A threaded product or factorization sums in another order,
so a report's bits would depend on the BLAS thread count; on one thread they
do not, and no BLAS worker thread wakes to spin-wait.  Where no OpenBLAS is
found (MKL, Accelerate), the count is left alone.  `_openblas` is the one
lookup of OpenBLAS's own functions (its thread count and build string):
`_one_blas_thread` calls it, and so does `blas_env`, whose record of what
a run ran on goes into the report's `env`.  A CLI process also starts
numpy's OpenBLAS on one thread (`fraclat.cli` sets `OPENBLAS_NUM_THREADS=1`
where it is unset and numpy is not yet loaded), so it builds no thread pool;
`_one_blas_thread` keeps the bits where a caller loaded numpy first or set
more threads.  `solve` and `spectrum`
work in A's own buffer, so `assemble`'s capacity check covers the whole p=2
pathway.

dpotf2, dtrsm, dsyrk, dtrsv and LAPACKE's dsyevr come from the ILP64
OpenBLAS that numpy's wheels link and export under `scipy_`-prefixed names
(`_numpy_blas`), called through ctypes, so no p=2 run loads a scipy module
or a second BLAS.  Where numpy exports no such symbol (an MKL, Accelerate or
conda numpy), `solve` is CG from 0, and `spectrum` calls dsyevr through
scipy's `scipy.linalg._flapack`, which imports the scipy.linalg package.
"""

from __future__ import annotations

import ctypes
import math
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


# OpenBLAS's own function names in numpy wheels' ILP64 build, scipy wheels' build and a system one
_OPENBLAS = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}")


def _openblas(module):
    """(get_num_threads, set_num_threads, get_config) of the OpenBLAS that the
    extension `module` links, or None where no name resolves (MKL, Accelerate).
    `ctypes.CDLL` of a loaded module returns its handle, and a symbol lookup on
    that handle searches the module's dependencies too."""
    lib = ctypes.CDLL(module.__file__)
    name = next((n for n in _OPENBLAS if hasattr(lib, n.format("get_num_threads"))), None)
    if name is None:
        return None
    get_config = getattr(lib, name.format("get_config"))
    get_config.restype = ctypes.c_char_p
    return getattr(lib, name.format("get_num_threads")), getattr(lib, name.format("set_num_threads")), get_config


@contextmanager
def _one_blas_thread(module):
    """Run the body with the OpenBLAS that the extension `module` links on one
    thread, restoring the count on exit; where it links none, run it as is."""
    blas = _openblas(module)
    if blas is None:
        yield
        return
    get, set_, _ = blas
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


# routines of the ILP64 OpenBLAS that numpy's wheels link and export under
# these names: LAPACKE's dsyevr, LAPACK's unblocked Cholesky dpotf2, BLAS's
# triangular solve with many right-hand sides dtrsm and symmetric rank-k update
# dsyrk, and CBLAS's triangular solve dtrsv
_DSYEVR = "scipy_LAPACKE_dsyevr64_"
_DPOTF2 = "scipy_dpotf2_64_"
_DTRSM = "scipy_dtrsm_64_"
_DSYRK = "scipy_dsyrk_64_"
_DTRSV = "scipy_cblas_dtrsv64_"
# the panel width of `_cholesky_start`'s blocked factor: at m = 1021 it
# factors about 4x faster than one dpotf2, and wider panels gain little time
# for more of OpenBLAS's Level-3 buffer (about 0.5 MB of peak RSS at 32,
# 0.7-0.85 MB at 64)
_NB = 32
# LAPACKE's and CBLAS's codes for a column-major (Fortran-order) matrix, and
# CBLAS's for its lower triangle, no transpose or a transpose, and a non-unit diagonal
_COL_MAJOR, _LOWER, _NO_TRANS, _TRANS, _NON_UNIT = 102, 122, 111, 112, 131


def _numpy_blas(name: str):
    """The function `name` of the OpenBLAS that numpy's linalg extension links,
    or None where it exports no such symbol (an MKL, Accelerate or conda numpy)."""
    return getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), name, None)


def blas_env() -> dict:
    """What the p=2 pathway of this process runs on, for a run's `env` record.

    `openblas` is the build string of numpy's OpenBLAS and `blas_threads` the
    thread count it runs with outside `_one_blas_thread` (both None where
    numpy links no OpenBLAS); `spectrum` is "dsyevr" where it calls numpy's
    LAPACKE and "scipy" where it falls back to scipy's `_flapack`, and
    `solve` is "cholesky" where it starts from `_cholesky_start` and "cg"
    where a routine is missing and CG runs from 0.
    """
    blas = _openblas(np.linalg._umath_linalg)
    cholesky = None not in [_numpy_blas(name) for name in (_DPOTF2, _DTRSM, _DSYRK, _DTRSV)]
    return {"openblas": blas and blas[2]().decode(), "blas_threads": blas and blas[0](),
            "spectrum": "scipy" if _numpy_blas(_DSYEVR) is None else "dsyevr",
            "solve": "cholesky" if cholesky else "cg"}


def solve(system: BilinearSystem, tol: float = 1e-10, max_iter: int = 10_000):
    """The p=2 solution on the free set; returns (full GridFunction, SolveStats).

    A Cholesky factor gives the start (`_cholesky_start`), and `cg` from
    there tests `tol`: where the start meets it, as on every seed-0
    `homogenize-d1` system, it takes no step, and it raises as `cg` raises.
    Where numpy's OpenBLAS lacks one of `_DPOTF2`, `_DTRSM`, `_DSYRK` and
    `_DTRSV`, where A is not numerically positive definite, or where the
    start is not finite, CG runs from 0, as `cg(system, tol, max_iter)` does.
    """
    return cg(system, tol, max_iter, x=_cholesky_start(system))


def _cholesky_start(system: BilinearSystem):
    """x with L L^T x = b for the Cholesky factor L of A, or None where there is none.

    A right-looking blocked Cholesky factors A in its own buffer, in numpy's
    ILP64 OpenBLAS on one thread, panel by panel of `_NB` columns: dpotf2
    factors the diagonal block, dtrsm solves the panel below it and dsyrk
    updates the trailing lower triangle.  A is symmetric to the bit, so its
    C-order buffer is A in Fortran order: the factor is written over the
    Fortran lower (C-order upper) triangle, and the other one stays intact.
    Two CBLAS dtrsv calls solve with L and L^T.  Then the intact triangle and
    the saved diagonal are copied back, so `system.matrix` leaves as it came in.
    """
    routines = [_numpy_blas(name) for name in (_DPOTF2, _DTRSM, _DSYRK, _DTRSV)]
    if None in routines:
        return None
    dpotf2, dtrsm, dsyrk, dtrsv = routines
    a = system.matrix
    m = a.shape[0]
    fortran = np.ctypeslib.ndpointer(np.float64, 2, (m, m), "F_CONTIGUOUS")
    int64p, doublep, pointer = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double), ctypes.c_void_p
    for routine in routines:
        routine.restype = None
    dpotf2.argtypes = [ctypes.c_char_p, int64p, pointer, int64p, int64p]
    dtrsm.argtypes = [ctypes.c_char_p] * 4 + [int64p, int64p, doublep, pointer, int64p, pointer, int64p]
    dsyrk.argtypes = [ctypes.c_char_p] * 2 + [int64p, int64p, doublep, pointer, int64p, doublep, pointer, int64p]
    dtrsv.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int64, fortran,
                      ctypes.c_int64, np.ctypeslib.ndpointer(np.float64, 1, (m,), "C_CONTIGUOUS"), ctypes.c_int64]

    def at(i, j):  # the Fortran-order A[i:, j:], leading dimension m
        return pointer(a.ctypes.data + 8 * (i + j * m))

    diagonal = a.diagonal().copy()
    x = system.rhs.copy()
    lda, info = ctypes.byref(ctypes.c_int64(m)), ctypes.c_int64()
    one, minus_one = ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(-1.0))
    with _one_blas_thread(np.linalg._umath_linalg):
        for j in range(0, m, _NB):
            width, below = ctypes.byref(ctypes.c_int64(min(_NB, m - j))), m - j - _NB
            dpotf2(b"L", width, at(j, j), lda, ctypes.byref(info))
            if info.value != 0:
                break
            if below > 0:
                rows = ctypes.byref(ctypes.c_int64(below))
                dtrsm(b"R", b"L", b"T", b"N", rows, width, one, at(j, j), lda, at(j + _NB, j), lda)
                dsyrk(b"L", b"N", rows, width, minus_one, at(j + _NB, j), lda, one, at(j + _NB, j + _NB), lda)
        else:
            for trans in (_NO_TRANS, _TRANS):
                dtrsv(_COL_MAJOR, _LOWER, trans, _NON_UNIT, m, a.T, m, x, 1)
    for i in range(m - 1):
        a[i, i + 1:] = a[i + 1:, i]
    np.fill_diagonal(a, diagonal)
    return x if info.value == 0 and np.isfinite(x).all() else None


def cg(system: BilinearSystem, tol: float = 1e-10, max_iter: int = 10_000, x=None):
    """Conjugate gradients on the free set from x (from 0 where x is None);
    returns (full GridFunction, SolveStats).

    Each product a @ p is written into one preallocated vector on one thread
    of the OpenBLAS behind numpy's matmul, which numpy's linalg extension
    links too, so the iterates have the one-thread bits at any thread count.
    Raises NumericalError at the first non-finite residual or non-positive
    p^T A p, where A is not numerically positive definite.
    """
    a, b = system.matrix, system.rhs
    bnorm = float(np.linalg.norm(b))
    history = []
    if bnorm == 0.0:
        return _embed(system, np.zeros_like(b)), SolveStats(iters=0, residual=0.0)
    ap = np.empty_like(b)
    it = 0
    with _one_blas_thread(np.linalg._umath_linalg):
        if x is None:
            x, r = np.zeros_like(b), b.copy()
        else:
            np.matmul(a, x, out=ap)
            r = b - ap
        p = r.copy()
        rs = float(r @ r)
        while True:
            # the residual after the last allowed step is tested too
            res = float(np.sqrt(rs)) / bnorm
            history.append(res)
            if res <= tol:
                break
            if not math.isfinite(res):
                raise NumericalError(f"conjugate gradients residual is {res} at iteration {it}")
            if it >= max_iter:
                raise NumericalError(
                    f"conjugate gradients did not reach tol={tol:g} in {max_iter} iterations; "
                    f"residual history tail {history[-5:]}"
                )
            np.matmul(a, p, out=ap)
            pap = float(p @ ap)
            if not pap > 0:
                raise NumericalError(f"conjugate gradients met p^T A p = {pap:g} at iteration {it}")
            alpha = rs / pap
            x = x + alpha * p
            r = r - alpha * ap
            rs_new = float(r @ r)
            p = r + (rs_new / rs) * p
            rs = rs_new
            it += 1
    return _embed(system, x), SolveStats(iters=it, residual=history[-1])


def _embed(system: BilinearSystem, x: np.ndarray) -> GridFunction:
    full = np.zeros(system.lattice.n_sites)
    full[system.free_ids] = x
    return GridFunction(system.lattice, full)


def _lapacke_dsyevr(dsyevr, a, k):
    """The k smallest eigenpairs of the symmetric Fortran-order matrix `a`, from
    its lower triangle, by the LAPACKE function `dsyevr` with int64 integers
    on one BLAS thread: (eigenvalues, eigenvectors as columns, number found,
    info).  Column-major LAPACKE hands `a` to dsyevr without a copy, and
    dsyevr overwrites it."""
    n = a.shape[0]
    vector = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    dsyevr.restype = ctypes.c_int64
    dsyevr.argtypes = [
        ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
        np.ctypeslib.ndpointer(np.float64, 2, (n, n), "F_CONTIGUOUS"), ctypes.c_int64,
        ctypes.c_double, ctypes.c_double, ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
        ctypes.POINTER(ctypes.c_int64), vector, vector, ctypes.c_int64,
        np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"),
    ]
    w = np.empty(n)
    z = np.empty((k, n))  # the n x k Fortran-order eigenvector block, ldz = n
    isuppz = np.empty(2 * k, dtype=np.int64)
    found = ctypes.c_int64()
    with _one_blas_thread(np.linalg._umath_linalg):
        info = dsyevr(_COL_MAJOR, b"V", b"I", b"L", n, a, n, 0.0, 0.0, 1, k, 0.0, ctypes.byref(found),
                      w, z, n, isuppz)
    return w, z.T, found.value, info


def spectrum(system: BilinearSystem, k: int) -> SpectralReport:
    """k largest eigenvalues mu_j of the solution operator, i.e. mu_j = eps^d / lambda_j
    for the k smallest eigenvalues of A, with L2(Q^eps)-orthonormal eigenvectors.

    The eigenpairs come from LAPACK's dsyevr over A's lower triangle, the call
    that `scipy.linalg.eigh(A.T, subset_by_index=(0, k - 1), overwrite_a=True)`
    makes, to the bit.  It runs in numpy's OpenBLAS through LAPACKE where
    numpy exports `_DSYEVR`, and through scipy's `_flapack` where it does
    not.  It consumes `system.matrix`: A is symmetric to the bit, so A.T is A
    in Fortran order, and dsyevr overwrites that buffer instead of copying
    8 m^2 bytes that `assemble`'s capacity check never counted.  It runs on
    one BLAS thread, so its bits do not depend on the thread count.  A
    non-finite entry of A raises NumericalError first.
    """
    n = system.matrix.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"k must lie in 1..{n} (the free sites at eps={system.lattice.eps:g}), got {k}")
    a = system.matrix.T
    if not np.isfinite(a).all():
        raise NumericalError("assembled matrix holds a non-finite entry")
    dsyevr = _numpy_blas(_DSYEVR)
    if dsyevr is None:
        from scipy.linalg import _flapack as lapack

        with _one_blas_thread(lapack):
            work, iwork, _ = lapack.dsyevr_lwork(n, lower=1)
            lam, vecs, found, _, info = lapack.dsyevr(
                a, compute_v=1, range="I", il=1, iu=k, lower=1, lwork=int(work), liwork=int(iwork), overwrite_a=1
            )
    else:
        lam, vecs, found, info = _lapacke_dsyevr(dsyevr, a, k)
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

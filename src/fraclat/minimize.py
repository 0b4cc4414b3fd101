"""Minimization of the discrete energies over constrained spaces.

L-BFGS with backtracking line search.  Gradient descent, the slow
cross-check (method "gd"), is the same loop with no memory: the two-loop
recursion over no pairs returns the gradient itself (Nocedal & Wright,
Numerical Optimization, 2nd ed., section 7.2).  The kernel is
`energy.held_block`, which decides the free sites; every other site starts
at +0.0 and keeps it: the gradient is +0.0 there, so the L-BFGS pairs (s, y)
and both directions are zero there, and so is every step * direction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from numbers import Integral
from typing import Optional

import numpy as np

from .energy import (
    EnergySpec,
    GridFunction,
    check_derivative,
    energy_gradient,
    energy_value,
    held_block,
)
from .errors import NumericalError
from .lattice import same_lattice
from .weights import WeightField

# Armijo backtracking (step factor, decrease fraction) and the L-BFGS memory; "gd" keeps none
SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4
MEMORY = 8


@dataclass(frozen=True)
class MinimizeOptions:
    grad_tol: float = 1e-8
    max_iter: int = 500
    initial: Optional[GridFunction] = None  # None means start from zero
    method: str = "lbfgs"  # or "gd"

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        if not isinstance(self.max_iter, Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.method not in ("lbfgs", "gd"):
            raise ValueError(f"method must be 'lbfgs' or 'gd', got {self.method!r}")


@dataclass(frozen=True)
class MinimizeStats:
    """iters accepted steps, `values` energy values (the start and every
    line-search trial), of which `backtracks` were rejected trials."""

    iters: int
    final_energy: float
    grad_norm: float
    values: int
    backtracks: int


def _two_loop(grad: np.ndarray, pairs) -> np.ndarray:
    """Standard L-BFGS two-loop recursion for the quasi-Newton direction;
    pairs holds (s, y, rho) with rho = 1 / (y @ s), oldest first."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s.dot(q))
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= float(s.dot(y)) / float(y.dot(y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y.dot(q))
        q += (a - b) * s
    return q


def minimize(spec: EnergySpec, field: WeightField, opts: MinimizeOptions = MinimizeOptions()):
    """Minimize the energy over u on the lattice of spec.f; returns
    (GridFunction, MinimizeStats).

    The kernel is `held_block(spec.f.lattice, field, spec)`, built once per
    call and dropped when the call returns.  The start is opts.initial (else
    0) on the kernel's free sites and 0 elsewhere.  The energy is evaluated at
    every line-search trial, and its pass also forms the whole gradient on the
    kernel's sites, which the block keeps in `last` keyed by u and spec.  The
    gradient is taken only at the starting point and at each accepted trial,
    where it reads that back.  Iterates, directions and trials are plain
    N-vectors; each energy call wraps its point in one GridFunction.

    Raises ValueError before building the kernel when V or G has no
    derivative, when spec.f is None (with V, G >= 0 the minimizer is then
    u = 0), or when opts.initial lies on another lattice than spec.f.
    """
    check_derivative(spec.V)
    spec.G.derivative(np.zeros(1))  # raises ValueError when G has no derivative
    if spec.f is None:
        raise ValueError("minimize needs a forcing term f: with f = None the minimizer is u = 0")
    lat = spec.f.lattice
    if opts.initial is not None and not same_lattice(opts.initial.lattice, lat):
        raise ValueError("the initial point lies on another lattice than the forcing term f")
    kernel = held_block(lat, field, spec)
    u = np.zeros(lat.n_sites)
    if opts.initial is not None:
        u[kernel.free] = opts.initial.values[kernel.free]

    def value(vals):
        return energy_value(spec, kernel, GridFunction(lat, vals))

    def gradient(vals):
        return energy_gradient(spec, kernel, GridFunction(lat, vals)).values

    e, g = value(u), gradient(u)
    pairs: deque = deque(maxlen=MEMORY if opts.method == "lbfgs" else 0)
    it = backtracks = 0
    while True:
        # the gradient after the last allowed step is tested too
        gnorm = float(np.abs(g).max())
        if gnorm <= opts.grad_tol:
            break
        if it >= opts.max_iter:
            raise NumericalError(f"no convergence in {opts.max_iter} iterations; grad sup {gnorm:.3g}")
        direction = -_two_loop(g, pairs)
        slope = float(g.dot(direction))
        if slope >= 0:  # quasi-Newton direction lost descent; restart on the gradient
            pairs.clear()
            direction = -g
            slope = float(g.dot(direction))
        step = 1.0
        while True:
            trial = u + step * direction
            e_trial = value(trial)
            if e_trial <= e + SUFFICIENT_DECREASE * step * slope:
                break
            step *= SHRINK
            backtracks += 1
            if step < 1e-20:
                raise NumericalError(
                    f"line search underflow at iteration {it}: energy {e:.6g}, grad sup {gnorm:.3g}"
                )
        # the gradient is needed only at the accepted trial
        g_trial = gradient(trial)
        s_vec = trial - u
        y_vec = g_trial - g
        sy = float(s_vec.dot(y_vec))
        if sy > 1e-14 * math.sqrt(s_vec.dot(s_vec)) * math.sqrt(y_vec.dot(y_vec)):
            pairs.append((s_vec, y_vec, 1.0 / sy))  # a no-op with no memory
        u, e, g = trial, e_trial, g_trial
        it += 1
    return GridFunction(lat, u), MinimizeStats(iters=it, final_energy=e, grad_norm=float(np.abs(g).max()),
                                               values=1 + it + backtracks, backtracks=backtracks)

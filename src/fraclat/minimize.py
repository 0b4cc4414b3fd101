"""Minimization of the discrete energies over constrained spaces.

L-BFGS with backtracking line search.  Gradient descent, the slow
cross-check (method "gd"), is the same loop with no memory: the two-loop
recursion over no pairs returns the gradient itself (Nocedal & Wright,
Numerical Optimization, 2nd ed., section 7.2).  Every constraint fixes a set
of sites at u = 0, and only the starting point is projected onto it: the
gradient is +0.0 on the fixed sites, so the L-BFGS pairs (s, y) and both
directions are zero there, and every trial u + step * direction keeps +0.0.
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
    check_forcing,
    energy_gradient,
    energy_value,
    held_block,
    project_direction,
)
from .errors import NumericalError
from .lattice import LatticeDomain, same_lattice
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


def project_constraint(u: GridFunction, constraint: str) -> GridFunction:
    """Nearest point (in the natural coordinates) of the constrained space."""
    return GridFunction(u.lattice, project_direction(u.lattice, u.values, constraint))


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


def minimize(spec: EnergySpec, field: WeightField, opts: MinimizeOptions = MinimizeOptions(), lattice: Optional[LatticeDomain] = None):
    """Minimize the energy; returns (GridFunction, MinimizeStats).

    The kernel is `held_block(lattice, field, spec)`, built once per call and
    dropped when the call returns: K[F, F] and the outer row sums when the
    constraint fixes u = 0 off a free set F, else the whole kernel.  The
    energy is evaluated at every line-search trial, and its pass also forms
    the whole gradient on the kernel's sites, which the block keeps in `last`
    keyed by u and spec.  The gradient is taken only at the starting point and
    at each accepted trial, where it reads that back.  Iterates, directions and
    trials are plain N-vectors; each energy call wraps its point in one
    GridFunction.

    Raises ValueError before building the kernel when V has no derivative,
    when opts.initial lies on another lattice than `lattice`, or when spec.f
    lies on another lattice than the one minimized over.
    """
    check_derivative(spec.V)
    if opts.initial is not None:
        lat = opts.initial.lattice
        if lattice is not None and not same_lattice(lattice, lat):
            raise ValueError("the initial point lies on another lattice than `lattice`")
        u = project_constraint(opts.initial, spec.constraint).values
    else:
        if lattice is None:
            if spec.f is None:
                raise ValueError("pass a lattice, an initial point, or a forcing term")
            lattice = spec.f.lattice
        lat = lattice
        u = np.zeros(lat.n_sites)
    check_forcing(spec, lat)
    kernel = held_block(lat, field, spec)

    def value(vals):
        return energy_value(spec, kernel, GridFunction(lat, vals))

    def gradient(vals):
        return energy_gradient(spec, kernel, GridFunction(lat, vals)).values

    e, g = value(u), gradient(u)
    pairs: deque = deque(maxlen=MEMORY if opts.method == "lbfgs" else 0)
    it = backtracks = 0
    while it < opts.max_iter:
        gnorm = float(np.abs(g).max())
        if gnorm <= opts.grad_tol:
            break
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
    else:
        raise NumericalError(f"no convergence in {opts.max_iter} iterations; grad sup {float(np.abs(g).max()):.3g}")
    return GridFunction(lat, u), MinimizeStats(iters=it, final_energy=e, grad_norm=float(np.abs(g).max()),
                                               values=1 + it + backtracks, backtracks=backtracks)

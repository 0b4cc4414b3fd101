"""Minimization of the discrete energies over constrained spaces.

L-BFGS with backtracking line search as the default, plain projected gradient
descent as a slow cross-check.  Constraints are handled by projection: every
iterate and every search direction is projected, so the constraint holds
exactly at each accepted step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import EnergySpec, GridFunction, energy_gradient, energy_value, kernel_matrix, project_direction
from .errors import NumericalError
from .lattice import LatticeDomain
from .weights import WeightField


@dataclass(frozen=True)
class MinimizeOptions:
    grad_tol: float = 1e-8
    max_iter: int = 500
    shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    initial: Optional[GridFunction] = None  # None means start from zero
    method: str = "lbfgs"  # or "gd"
    memory: int = 8

    def __post_init__(self):
        if self.grad_tol <= 0 or self.max_iter < 1 or self.memory < 1:
            raise ValueError("tolerances must be positive, max_iter and memory >= 1")
        if self.method not in ("lbfgs", "gd"):
            raise ValueError(f"method must be 'lbfgs' or 'gd', got {self.method!r}")


@dataclass(frozen=True)
class MinimizeStats:
    iters: int
    final_energy: float
    grad_norm: float


def project_constraint(u: GridFunction, constraint: str) -> GridFunction:
    """Nearest point (in the natural coordinates) of the constrained space."""
    lat = u.lattice
    vals = u.values.copy()
    if constraint == "dirichlet0":
        vals[lat.boundary_ids] = 0.0
        vals[lat.exterior_ids] = 0.0
    elif constraint == "mean0":
        q = lat.q_ids
        vals[q] -= vals[q].mean()
    elif constraint == "zero_outside":
        vals[lat.exterior_ids] = 0.0
    return GridFunction(lat, vals)


def _two_loop(grad: np.ndarray, s_list, y_list) -> np.ndarray:
    """Standard L-BFGS two-loop recursion for the quasi-Newton direction."""
    q = grad.copy()
    alphas = []
    for s, y in zip(reversed(s_list), reversed(y_list)):
        rho = 1.0 / float(y @ s)
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y), a in zip(zip(s_list, y_list), reversed(alphas)):
        rho = 1.0 / float(y @ s)
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def minimize(spec: EnergySpec, field: WeightField, opts: MinimizeOptions = MinimizeOptions(), lattice: Optional[LatticeDomain] = None):
    """Minimize the energy; returns (GridFunction, MinimizeStats).

    The kernel is built once per call and dropped when the call returns.
    """
    if opts.initial is not None:
        lat = opts.initial.lattice
        u = project_constraint(opts.initial, spec.constraint).values
    else:
        if lattice is None:
            if spec.f is None:
                raise ValueError("pass a lattice, an initial point, or a forcing term")
            lattice = spec.f.lattice
        lat = lattice
        u = np.zeros(lat.n_sites)
    kernel = kernel_matrix(lat, field, spec.s, spec.p, spec.flavor)

    def fg(vals):
        gf = GridFunction(lat, vals)
        return energy_value(spec, kernel, gf), energy_gradient(spec, kernel, gf).values

    e, g = fg(u)
    s_list: list = []
    y_list: list = []
    it = 0
    while it < opts.max_iter:
        gnorm = float(np.abs(g).max())
        if gnorm <= opts.grad_tol:
            break
        if opts.method == "lbfgs" and s_list:
            direction = -_two_loop(g, s_list, y_list)
        else:
            direction = -g
        direction = project_direction(lat, direction, spec.constraint)
        slope = float(g @ direction)
        if slope >= 0:  # quasi-Newton direction lost descent; restart on the gradient
            s_list.clear()
            y_list.clear()
            direction = project_direction(lat, -g, spec.constraint)
            slope = float(g @ direction)
        step = 1.0
        while True:
            # re-project to kill rounding drift in the affine constraints
            trial = project_constraint(GridFunction(lat, u + step * direction), spec.constraint).values
            e_trial, g_trial = fg(trial)
            if e_trial <= e + opts.sufficient_decrease * step * slope:
                break
            step *= opts.shrink
            if step < 1e-20:
                raise NumericalError(
                    f"line search underflow at iteration {it}: energy {e:.6g}, grad sup {gnorm:.3g}"
                )
        if opts.method == "lbfgs":
            s_vec = trial - u
            y_vec = g_trial - g
            if float(s_vec @ y_vec) > 1e-14 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
                s_list.append(s_vec)
                y_list.append(y_vec)
                if len(s_list) > opts.memory:
                    s_list.pop(0)
                    y_list.pop(0)
        u, e, g = trial, e_trial, g_trial
        it += 1
    else:
        raise NumericalError(f"no convergence in {opts.max_iter} iterations; grad sup {float(np.abs(g).max()):.3g}")
    out = project_constraint(GridFunction(lat, u), spec.constraint)
    return out, MinimizeStats(iters=it, final_energy=e, grad_norm=float(np.abs(g).max()))

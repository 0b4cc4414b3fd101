"""Desk-scale laboratory for nonlocal lattice energies with random long-range weights.

The names below load lazily (PEP 562): `import fraclat` imports no numpy, and
the first use of a name imports its submodule, so `fraclat.cli` can set
numpy's OpenBLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# each exported name, keyed to the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "lattice": "LatticeDomain build_lattice",
    "weights": "Constant DecayingProduct LogNormal ShiftedPareto UnitPowerLaw WeightField check_assumption"
               " critical_exponent divergence_probe empirical_moment weight",
    "energy": "EnergySpec GridFunction NoneTerm PowerK PowerP SmoothedPowerP energy_gradient energy_value"
              " gagliardo_seminorm lq_norm weighted_seminorm",
    "errors": "CapacityError ConfigError NumericalError",
}.items() for name in names.split()}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)

"""Desk-scale laboratory for nonlocal lattice energies with random long-range weights."""

__version__ = "0.1.0"

from .lattice import LatticeDomain, build_lattice
from .weights import (
    Constant,
    DecayingProduct,
    LogNormal,
    ShiftedPareto,
    UnitPowerLaw,
    WeightField,
    check_assumption,
    critical_exponent,
    divergence_probe,
    empirical_moment,
    weight,
)
from .energy import (
    EnergySpec,
    GridFunction,
    NoneTerm,
    PowerK,
    PowerP,
    SmoothedPowerP,
    energy_gradient,
    energy_value,
    gagliardo_seminorm,
    lq_norm,
    weighted_seminorm,
)
from .errors import CapacityError, ConfigError, NumericalError

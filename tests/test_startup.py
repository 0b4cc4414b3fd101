"""What importing fraclat costs: the package's exports load lazily, and a CLI
process starts numpy's OpenBLAS on one thread unless told otherwise."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import fraclat

SRC = pathlib.Path(fraclat.__file__).parents[1]

# every name that `fraclat` exported when it imported its submodules eagerly,
# by the submodule that defines it
EXPORTS = {
    "lattice": ["LatticeDomain", "build_lattice"],
    "weights": ["Constant", "DecayingProduct", "LogNormal", "ShiftedPareto", "UnitPowerLaw", "WeightField",
                "check_assumption", "critical_exponent", "divergence_probe", "empirical_moment", "weight"],
    "energy": ["EnergySpec", "GridFunction", "NoneTerm", "PowerK", "PowerP", "SmoothedPowerP", "energy_gradient",
               "energy_value", "gagliardo_seminorm", "lq_norm", "weighted_seminorm"],
    "errors": ["CapacityError", "ConfigError", "NumericalError"],
}

# prints numpy's OpenBLAS thread count (or "none" where numpy links no
# OpenBLAS) and OPENBLAS_NUM_THREADS, after `fraclat.cli` was imported
THREADS = """
import os, sys
{before}
env = dict(os.environ)
import fraclat.cli
import numpy as np
from fraclat.linear_ops import _openblas
blas = _openblas(np.linalg._umath_linalg)
print(blas[0]() if blas else "none", os.environ.get("OPENBLAS_NUM_THREADS"), os.environ == env)
"""


def _run(code, **env_vars):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_vars, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def _threads(before="", **env_vars):
    count, variable, untouched = _run(THREADS.format(before=before), **env_vars)
    if count == "none":
        pytest.skip("numpy links no OpenBLAS")
    return int(count), variable, untouched == "True"


def test_import_fraclat_loads_no_numpy():
    assert _run("import sys, fraclat; fraclat.__version__; print('numpy' in sys.modules)") == ["False"]


def test_cli_starts_openblas_on_one_thread():
    assert _threads() == (1, "1", False)


def test_cli_keeps_an_explicit_thread_count():
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its thread count at the number of CPUs")
    assert _threads(OPENBLAS_NUM_THREADS="2") == (2, "2", True)


def test_cli_leaves_the_environment_alone_when_numpy_loaded_first():
    _, variable, untouched = _threads(before="import numpy")
    assert variable == "None" and untouched


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_lazy_export_is_the_defining_module_attribute(module, name):
    assert getattr(fraclat, name) is getattr(importlib.import_module(f"fraclat.{module}"), name)


def test_all_lists_exactly_the_exports():
    assert sorted(fraclat.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fraclat.no_such_name

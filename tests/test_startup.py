"""What importing fraclat costs: the package's exports load lazily, and a CLI
process starts numpy's OpenBLAS on one thread unless told otherwise, while its
report records what the user set and what the process ran on."""

import importlib
import json
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


def _run(code, *args, **env_vars):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "NPY_DISABLE_CPU_FEATURES")}
    env.update(env_vars, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
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


def _cli_env(tmp_path, **env_vars):
    """The sidecar `env` of a small `solve` CLI run in a fresh process."""
    (tmp_path / "cfg.txt").write_text("study=solve\neps_list=0.5\n")
    out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
    _run("import sys, fraclat.cli; sys.exit(fraclat.cli.main(sys.argv[1:]))", "solve",
         "--config", str(tmp_path / "cfg.txt"), "--out", str(out), **env_vars)
    return json.loads((out / "solve.csv.meta.json").read_text())["env"]


@pytest.mark.parametrize("variable, threads", [(None, 1), ("2", 2)], ids=["unset", "two"])
def test_cli_report_records_the_thread_count_the_user_set(tmp_path, variable, threads):
    # unset, the process runs on the one thread that fraclat.cli chose, and
    # the record says that the user set nothing
    if threads > (os.cpu_count() or 1):
        pytest.skip("OpenBLAS caps its thread count at the number of CPUs")
    env = _cli_env(tmp_path, **({} if variable is None else {"OPENBLAS_NUM_THREADS": variable}))
    if env["openblas"] is None:
        pytest.skip("numpy links no OpenBLAS")
    assert (env["OPENBLAS_NUM_THREADS"], env["blas_threads"]) == (variable, threads)


def test_cli_report_records_numpy_simd_targets(tmp_path):
    simd = _cli_env(tmp_path)["simd"]
    if not simd:
        pytest.skip("numpy enables no dispatched SIMD target on this CPU")
    # numpy drops a disabled target, and only that one, from its enabled set
    less = _cli_env(tmp_path, NPY_DISABLE_CPU_FEATURES=simd[-1])["simd"]
    assert less == simd[:-1]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_lazy_export_is_the_defining_module_attribute(module, name):
    assert getattr(fraclat, name) is getattr(importlib.import_module(f"fraclat.{module}"), name)


def test_all_lists_exactly_the_exports():
    assert sorted(fraclat.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fraclat.no_such_name

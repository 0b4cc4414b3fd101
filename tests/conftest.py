import json
import os
import pathlib
import subprocess
import sys

import pytest

import fraclat

# Imports fraclat, runs the smoke configs given as JSON in argv[1], a
# LogNormal p=3 minimize and the spectral study of argv[2], and prints the
# scipy* and numpy.polynomial* modules loaded after the imports, after the
# runs and after the spectral study, the smoke CSV hashes and whether the
# spectral eigenvalues equal scipy.linalg.eigh's to the bit.
_NO_SCIPY = """
import hashlib, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))
import numpy as np
import fraclat, fraclat.cli, fraclat.minimize
imported = loaded()
from fraclat import EnergySpec, GridFunction, LogNormal, PowerK, SmoothedPowerP, WeightField, build_lattice
from fraclat.linear_ops import _one_blas_thread, assemble, spectrum
from fraclat.minimize import MinimizeOptions, minimize
from fraclat.study import _forcing, _lattice, parse_config, run_study

configs, cfg = json.loads(sys.argv[1]), parse_config(sys.argv[2])
hashes = {study: hashlib.sha256(run_study(parse_config(text)).to_csv().encode()).hexdigest()[:16]
          for study, text in configs.items()}
lat = build_lattice(1, 0.125, [[-1.0, 1.0]], [[-1.5, 1.5]])
spec = EnergySpec(p=3.0, s=0.5, V=SmoothedPowerP(3.0, 1e-4), G=PowerK(0.5, 2.0),
                  f=GridFunction(lat, np.ones(lat.n_sites)), constraint="dirichlet0")
minimize(spec, WeightField(LogNormal(1.0), 3), MinimizeOptions(grad_tol=1e-6))
runs = loaded()
run_study(cfg)
lat = _lattice(cfg, cfg.eps_list[0])
system = assemble(lat, WeightField(cfg.dist, 1), cfg.s, cfg.flavor, _forcing(cfg, lat))
reference = system.matrix.copy()
mu = spectrum(system, cfg.k_eigs).eigenvalues
spectral = loaded()
import scipy.linalg
with _one_blas_thread(scipy.linalg._flapack):
    lam = scipy.linalg.eigh(reference.T, subset_by_index=(0, cfg.k_eigs - 1), overwrite_a=True)[0]
same_bits = bool(np.array_equal(mu, lat.eps**lat.dim / lam))
json.dump({"imported": imported, "runs": runs, "spectral": spectral, "hashes": hashes, "same_bits": same_bits},
          sys.stdout)
"""

SPECTRAL_D2 = ("study=spectral\nd=2\neps_list=0.25,0.125\ndomain=-1,1,-1,1\nhalo=-1.5,1.5,-1.5,1.5\n"
               "k_eigs=3\ndist.kind=lognormal\nseeds=1\n")


@pytest.fixture(scope="session")
def fresh_run():
    """What `_NO_SCIPY` prints, run once per session in a fresh interpreter,
    because a test module's own scipy imports would hide a scipy load."""
    from test_study import SMOKE_CONFIGS

    src = pathlib.Path(fraclat.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY, json.dumps(SMOKE_CONFIGS), SPECTRAL_D2],
                         env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True)
    return json.loads(out.stdout)

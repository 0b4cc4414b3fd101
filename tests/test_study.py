import hashlib
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import fraclat.linear_ops
import fraclat.study
from fraclat.cli import main
from fraclat.errors import ConfigError, NumericalError
from fraclat.linear_ops import _openblas, assemble
from fraclat.study import (
    StudyConfig,
    StudyReport,
    parse_config,
    run_study,
    serialize_config,
)
from fraclat.transfer import QUAD_N_CAP
from fraclat.weights import Constant, DecayingProduct, LogNormal

DATA = pathlib.Path(__file__).parent / "data"

SOLVE_CFG = """
study=solve
eps_list=0.5,0.25
domain=-1,1
halo=-1,1
dist.kind=lognormal
dist.sigma=1.0
seeds=1,2
"""

# one small instance of every driver; the CI job also runs these to report
# which fraclat functions no study reaches
SMOKE_CONFIGS = {
    "solve": SOLVE_CFG,
    "homogenize": "study=homogenize\neps_list=0.25,0.125\nhalo=-1,1\n"
                  "dist.kind=lognormal\ndist.sigma=0.5\nseeds=1,2\n",
    "gamma_limit": "study=gamma_limit\neps_list=0.125\nhalo=-1,1\nquad_n=32\n",
    "spectral": "study=spectral\neps_list=0.25\nhalo=-1,1\nk_eigs=2\n"
                "dist.kind=lognormal\ndist.sigma=0.5\n",
    "embeddings": "study=embeddings\neps_list=0.25\nhalo=-1,1\nq_list=2\n",
    "ergodic": "study=ergodic\neps_list=0.0625\nhalo=-2,2\nbox_side=16\n"
               "radii=10,100\nalpha=0.5\ndist.kind=lognormal\ndist.sigma=0.5\n",
    "vanish": "study=vanish\neps_list=0.25\nhalo=-1,1\nradii=10,100\n"
              "dist.kind=decaying_product\ndist.alpha=3.0\n"
              "dist.base.kind=lognormal\ndist.base.sigma=0.5\n",
}

# sha256[:16] of each smoke report's CSV, the same at 1 and 2 BLAS threads
SMOKE_PINS = {
    "solve": "909ca7ffa3899510",
    "homogenize": "7c2217c3be956a81",
    "gamma_limit": "64e7828784eae8b9",
    "spectral": "842669c493d071e8",
    "embeddings": "a79eb1ef2a9710ab",
    "ergodic": "b7c6f93323a13b1b",
    "vanish": "315a9f2b4fd7beb7",
}


def _csv_hash(report):
    return hashlib.sha256(report.to_csv().encode()).hexdigest()[:16]


def test_parse_defaults():
    cfg = parse_config("study=solve\n")
    assert cfg.study == "solve"
    assert cfg.dist == Constant(1.0)
    assert cfg.seeds == (1,)
    # a study name may be spelled with hyphens, as its subcommand is
    assert parse_config("study=gamma-limit\n").study == "gamma_limit"


@pytest.mark.parametrize(
    "dist",
    [
        "dist.kind=constant\ndist.value=2.5\n",
        "dist.kind=lognormal\ndist.sigma=1.0\n",
        "dist.kind=unit_power_law\ndist.a=6.0\n",
        "dist.kind=shifted_pareto\ndist.a=3.0\n",
        "dist.kind=decaying_product\ndist.alpha=2.0\ndist.base.kind=shifted_pareto\n",
    ],
    ids=["constant", "lognormal", "unit_power_law", "shifted_pareto", "decaying_product"],
)
def test_roundtrip_identity(dist):
    cfg = parse_config(SOLVE_CFG.replace("dist.kind=lognormal\ndist.sigma=1.0\n", dist))
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    # and serialization itself is a fixed point
    assert serialize_config(again) == serialize_config(cfg)


def test_roundtrip_nested_dist():
    text = (
        "study=vanish\nhalo=-1,1\ndist.kind=decaying_product\ndist.alpha=3.0\n"
        "dist.base.kind=lognormal\ndist.base.sigma=0.5\n"
    )
    cfg = parse_config(text)
    assert cfg.dist == DecayingProduct(LogNormal(0.5), 3.0)
    assert parse_config(serialize_config(cfg)) == cfg


# every key set to a value other than its default
GOLDEN_CFG = """\
study=ergodic
d=2
s=0.75
p=3.0
eps_list=0.25,0.125,0.0625
domain=-1,1,-0.5,0.5
halo=-3,3,-2,2
dist.kind=decaying_product
dist.alpha=2.5
dist.base.kind=unit_power_law
dist.base.a=6.0
seeds=3,5,8
flavor=local
solver.tol=1e-08
solver.max_iter=500
quad_n=64
k_eigs=3
radii=5,50
alpha=0.25,2.0
q_list=1.5,4.0
box_side=32
"""


def test_serialize_config_golden():
    assert serialize_config(parse_config(GOLDEN_CFG)) == """\
study=ergodic
d=2
s=0.75
p=3.0
eps_list=0.25,0.125,0.0625
domain=-1.0,1.0,-0.5,0.5
halo=-3.0,3.0,-2.0,2.0
dist.kind=decaying_product
dist.alpha=2.5
dist.base.kind=unit_power_law
dist.base.a=6.0
seeds=3,5,8
flavor=local
solver.tol=1e-08
solver.max_iter=500
quad_n=64
k_eigs=3
radii=5,50
alpha=0.25,2.0
q_list=1.5,4.0
box_side=32
"""
    default, cfg = StudyConfig("solve"), parse_config(GOLDEN_CFG)
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(StudyConfig))


@pytest.mark.parametrize(
    "text",
    [
        "eps_list=0.5\n",  # missing study
        "study=warp\n",  # unknown study
        "study=solve\nbogus_key=1\n",
        "study=solve\nout=results\n",  # the output directory is --out, not a key
        "study=solve\nseeds=1\nseeds=2\n",  # duplicate
        "study=solve\neps_list=0.25,0.5\n",  # not decreasing
        "study=solve\neps_list=0.5,0.5\n",  # not strictly decreasing
        "study=solve\ndist.kind=cauchy\n",
        "study=solve\nnot a kv line\n",
        # every list key holds at least one value: an empty eps_list or radii
        # made homogenize, ergodic and vanish exit 1, and the others write an empty report
        "study=solve\nseeds=\n",
        "study=solve\neps_list=\n",
        "study=homogenize\neps_list=\n",
        "study=spectral\neps_list=\n",
        "study=embeddings\neps_list=\n",
        "study=embeddings\nq_list=\n",
        "study=ergodic\nradii=\n",
        "study=vanish\nradii=\n",
        "study=ergodic\nalpha=\n",
        "study=solve\ndomain=\n",
        "study=solve\nd=two\n",
        "study=solve\nu.kind=sine\n",
        # removed keys: the forcing is always f = 1 (f.kind, f.value), and the
        # p=2 studies always solve dirichlet0 with G = 0 (constraint, G.*),
        # which no other study read
        "study=solve\nf.kind=constant\n",
        "study=solve\nf.value=1\n",
        "study=solve\nf.value=nan\n",
        "study=gamma_limit\nconstraint=bogus\n",
        "study=solve\nconstraint=none\n",
        "study=solve\nconstraint=mean0\n",
        "study=homogenize\nconstraint=zero_outside\n",
        "study=homogenize\nconstraint=mean0\n",
        "study=spectral\nconstraint=mean0\n",
        "study=solve\nconstraint=dirichlet0\n",
        "study=solve\nG.kind=power\nG.alpha=5\n",
        "study=homogenize\nG.kind=power\n",
        "study=spectral\nG.kind=power\n",
        "study=gamma_limit\nG.kind=none\n",
        "study=ergodic\nG.alpha=0.5\n",
        # removed keys: every distribution but Constant is mean-one
        "study=solve\ndist.kind=lognormal\ndist.normalize=false\n",
        "study=vanish\ndist.kind=decaying_product\ndist.base.kind=lognormal\ndist.base.normalize=true\n",
        # a conductance is finite and positive: value 0 made A = 0, and -1 a negative form
        "study=solve\neps_list=0.25,0.125\ndist.value=0\n",
        "study=solve\neps_list=0.25,0.125\ndist.value=-1\n",
        "study=homogenize\neps_list=0.25,0.125\ndist.value=0\n",
        "study=homogenize\ndist.kind=decaying_product\ndist.base.kind=constant\ndist.base.value=0\n",
        # a decaying product's base is one of the four mean-one laws, not another product
        "study=solve\ndist.kind=decaying_product\ndist.base.kind=decaying_product\n",
        # moment assumption: unit_power_law a=0.5 has q_max=0.5 < p/(p-1)... too weak
        "study=homogenize\ndist.kind=unit_power_law\ndist.a=0.5\n",
        "study=solve\nflavor=bogus\n",
        # the p=2 studies solve nothing else
        "study=solve\np=3.0\n",
        "study=homogenize\np=3.0\n",
        "study=spectral\np=1.5\n",
        # tent_function, _test_family and continuum_energy are d=1 only
        "study=gamma_limit\nd=2\ndomain=-1,1,-1,1\nhalo=-1,1,-1,1\neps_list=0.5\n",
        "study=vanish\nd=2\ndomain=-1,1,-1,1\nhalo=-1,1,-1,1\neps_list=0.5\n",
        "study=embeddings\nd=2\ndomain=-1,1,-1,1\nhalo=-1,1,-1,1\neps_list=0.5\n",
        # values no study can use
        "study=solve\neps_list=nan\n",
        "study=solve\neps_list=-0.5\n",
        "study=solve\ns=1.5\n",
        "study=spectral\nk_eigs=0\n",
        "study=ergodic\nbox_side=1\n",
        "study=vanish\nradii=-5\n",
        "study=ergodic\nradii=10,0\n",
        "study=gamma_limit\nquad_n=0\n",
        "study=vanish\nquad_n=-4\n",
        "study=solve\nsolver.tol=nan\n",
        "study=solve\nsolver.tol=-1\nsolver.max_iter=0\n",
        "study=solve\nsolver.max_iter=0\n",
        "study=solve\ndist.kind=lognormal\ndist.sigma=nan\n",
        "study=solve\ndist.kind=decaying_product\ndist.base.kind=lognormal\ndist.base.sigma=inf\n",
        "study=gamma_limit\np=0.5\n",
        "study=embeddings\nq_list=2.0,nan\n",
        "study=embeddings\nq_list=0.5\n",
        "study=solve\nsolver.tol=inf\n",
        # exp(sigma^2 / 2), the mean that normalizes the weights, overflows
        "study=homogenize\ndist.kind=lognormal\ndist.sigma=40\n",
        # a negative mean (a in (-1, 0)) or none (a = 0)
        "study=solve\ndist.kind=unit_power_law\ndist.a=-0.5\n",
        "study=ergodic\ndist.kind=unit_power_law\ndist.a=0\n",
        # a positive mean (a < -1), but not the law of the docstring's moments
        "study=solve\ndist.kind=unit_power_law\ndist.a=-2\n",
        "study=homogenize\ndist.kind=unit_power_law\ndist.a=-2\n",
        "study=ergodic\ndist.kind=decaying_product\ndist.base.kind=lognormal\ndist.base.sigma=40\n",
    ],
)
def test_bad_configs_rejected(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_sup_norm_q_accepted():
    # q = inf is the one non-finite number a config may hold
    assert parse_config("study=embeddings\nq_list=2.0,inf\n").q_list == (2.0, math.inf)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nstudy=solve\n  # indented comment\n")
    assert cfg.study == "solve"


def test_report_rejects_nonfinite():
    rep = StudyReport("solve")
    with pytest.raises(NumericalError, match="non-finite metric energy=nan"):
        rep.add(0.5, 1, "energy", float("nan"))


def test_report_values_filter():
    rep = StudyReport("solve")
    rep.add(0.5, 1, "a", 1.0)
    rep.add(0.25, 1, "a", 2.0)
    rep.add(0.5, 1, "b", 3.0)
    assert rep.values("a") == [1.0, 2.0]
    assert rep.values("a", eps=0.25) == [2.0]


def test_golden_solve_csv():
    rep = run_study(parse_config(SOLVE_CFG))
    assert rep.to_csv() == (DATA / "golden_solve.csv").read_text()


def test_cli_solve_writes_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SOLVE_CFG)
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    out = tmp_path / "solve.csv"
    assert out.read_text() == (DATA / "golden_solve.csv").read_text()
    meta = json.loads((tmp_path / "solve.csv.meta.json").read_text())
    assert "config" in meta and meta["wall_time"] >= 0
    # the versions, the BLAS thread variable, the CPU count, numpy's enabled
    # SIMD targets, numpy's OpenBLAS build and thread count this process ran
    # with, and the routines that `spectrum` and `solve` resolve in it
    get_threads, _, get_config = _openblas(np.linalg._umath_linalg)
    umath = np._core._multiarray_umath if hasattr(np, "_core") else np.core._multiarray_umath
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]
    assert meta["env"] == {"python": platform.python_version(), "numpy": np.__version__,
                           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                           "nproc": os.cpu_count(), "simd": simd, "openblas": get_config().decode(),
                           "blas_threads": get_threads(), "spectrum": "dsyevr", "solve": "cholesky"}
    assert meta["env"]["openblas"].startswith("OpenBLAS")
    assert "solve eps=0.5 seed=1" in capsys.readouterr().err


def test_env_names_both_fallbacks(monkeypatch):
    # where numpy's OpenBLAS exports no LAPACKE dsyevr and no dpotf2, the
    # record says that `spectrum` runs scipy's dsyevr and `solve` CG from 0;
    # the fallback writes the same bytes
    monkeypatch.setattr("fraclat.linear_ops._DSYEVR", "no_such_dsyevr")
    monkeypatch.setattr("fraclat.linear_ops._DPOTF2", "no_such_dpotf2")
    rep = run_study(parse_config(SMOKE_CONFIGS["spectral"]))
    assert (rep.meta["env"]["spectrum"], rep.meta["env"]["solve"]) == ("scipy", "cg")
    assert _csv_hash(rep) == SMOKE_PINS["spectral"]


@pytest.mark.parametrize("option", [["--format", "jsonl"], ["--seed-override", "7"]], ids=["format", "seed_override"])
def test_cli_removed_options_exit_2(tmp_path, capsys, option):
    # the report is always CSV, and the config's seeds key is the one seed list
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SOLVE_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(cfg_path), "--out", str(tmp_path), *option])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + option[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_cli_config_errors(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("study=solve\nwhat=1\n")
    assert main(["solve", "--config", str(bad)]) == 2
    mismatched = tmp_path / "mismatch.txt"
    mismatched.write_text(SOLVE_CFG)
    assert main(["spectral", "--config", str(mismatched)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("dist", ["unit_power_law\ndist.a=-0.5", "lognormal\ndist.sigma=40"],
                         ids=["unit_power_law", "lognormal"])
def test_cli_law_without_a_mean_exits_2(tmp_path, capsys, dist):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(f"study=solve\neps_list=0.5\ndist.kind={dist}\n")
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and "normalizing scale" in err[0], err
    assert not (tmp_path / "out").exists()


def test_cli_nan_solver_tol_is_a_config_error(tmp_path, capsys):
    # a NaN tolerance used to run CG until p @ ap == 0 and exit 1 on ZeroDivisionError
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SOLVE_CFG + "solver.tol=nan\n")
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "solve.csv").exists()


@pytest.mark.parametrize(
    "study, text, message",
    [
        # five free sites cannot carry six modes
        ("spectral", "eps_list=0.25\nhalo=-1,1\nk_eigs=6\n", "k must lie in 1..5"),
        # a lattice coarser than the domain has no interior site
        ("solve", "eps_list=4.0\n", "empty free set"),
        # the smallest locality shell holds no pair at this eps
        ("ergodic", "eps_list=0.5\n", "too coarse for the locality probe"),
        # build_lattice takes d = 1 or 2, nondegenerate boxes and a halo around the domain
        ("solve", "d=3\ndomain=-1,1,-1,1,-1,1\nhalo=-2,2,-2,2,-2,2\n", "dimension must be 1 or 2"),
        ("solve", "domain=1,-1\n", "degenerate box"),
        ("solve", "halo=-0.5,0.5\n", "halo box must contain the closure"),
        ("gamma_limit", "halo=-0.5,0.5\n", "halo box must contain the closure"),
        ("solve", "eps_list=1.0\ndomain=0.1,0.2\nhalo=0.05,0.3\n", "no lattice sites"),
        # at this eps every test function samples to a constant
        ("embeddings", "eps_list=4.0\n", "zero denominator"),
    ],
)
def test_cli_values_the_lattice_rejects_are_config_errors(tmp_path, capsys, study, text, message):
    # each of these used to exit 1 with a traceback
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(f"study={study}\n{text}")
    assert main([study.replace("_", "-"), "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / f"{study}.csv").exists()
    with pytest.raises(ConfigError, match=message):
        run_study(parse_config(cfg_path.read_text()))


@pytest.mark.parametrize(
    "study, text, free_sites",
    [
        # 1021 free sites, solved by the panel-blocked Cholesky (dpotf2, dtrsm
        # and dsyrk on 32-wide panels), two dtrsv and a CG check: each runs on
        # one thread, so no routine that OpenBLAS threads at this size sums in
        # another order (CG from 0 is checked in test_linear_ops)
        ("homogenize", "eps_list=0.001953125\nhalo=-1.25,1.25\n", 1021),
        # 169 free sites: with eigh left to two threads, 15 of this
        # report's 20 data rows had other bytes than on one
        ("spectral", "d=2\neps_list=0.125\ndomain=-1,1,-1,1\nhalo=-1.5,1.5,-1.5,1.5\nk_eigs=5\n", 169),
    ],
    ids=["homogenize", "spectral"],
)
def test_blas_thread_count_does_not_change_bytes(tmp_path, study, text, free_sites):
    text = f"study={study}\n{text}dist.kind=lognormal\ndist.sigma=1.0\nseeds=1\n"
    cfg = parse_config(text)
    m = len(fraclat.study._lattice(cfg, cfg.eps_list[0]).interior_ids)
    assert m == free_sites
    assert study == "spectral" or m * m > 460_800
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(text)
    src = pathlib.Path(fraclat.study.__file__).parents[1]
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "fraclat.cli", study, "--config", str(cfg_path), "--out", str(out)],
                       env=env, capture_output=True, check=True)
        reports.append((out / f"{study}.csv").read_bytes())
    assert reports[0] == reports[1]


def test_cli_numerical_failure(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SOLVE_CFG + "solver.tol=1e-300\nsolver.max_iter=2\n")
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_nonfinite_metric(tmp_path, capsys):
    # the weights' normalizing scale is finite (about 1e-196), but an L2 error overflows
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("study=homogenize\ndist.kind=lognormal\ndist.sigma=30\n")
    assert main(["homogenize", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: non-finite metric l2_error=inf\n"
    assert not (tmp_path / "homogenize.csv").exists()


def test_cli_capacity_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SOLVE_CFG.replace("eps_list=0.5,0.25", "eps_list=0.000001"))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and err.count("\n") == 1
    assert not (tmp_path / "solve.csv").exists()


def test_cli_kernel_over_memory(tmp_path, capsys):
    for study, text, what in [
        # 524,289 sites pass the site cap, but gamma-limit's dense kernel over the
        # 524,287 of Q^eps would need 2.2 TB
        ("gamma_limit", "eps_list=0.000003814697265625\nhalo=-1,1\n", "dense kernel over 524287 sites"),
        # 641,601 sites: solve holds no kernel, and its A alone would need 3.2 TB
        ("solve", "d=2\neps_list=0.0025\ndomain=-1,1,-1,1\nhalo=-1,1,-1,1\n",
         "assembled matrix over 635209 free sites"),
    ]:
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"study={study}\n{text}")
        assert main([study.replace("_", "-"), "--config", str(cfg_path), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("capacity error: " + what) and err.count("\n") == 1, err
        assert not (tmp_path / f"{study}.csv").exists()


def test_cli_assembled_matrix_over_memory(tmp_path, capsys):
    # 635,209 free sites: A alone would need 3.2 TB, refused before any kernel row is built
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("study=spectral\nd=2\neps_list=0.0025\ndomain=-1,1,-1,1\nhalo=-1,1,-1,1\n")
    assert main(["spectral", "--config", str(cfg_path), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("capacity error: assembled matrix over 635209 free sites") and err.count("\n") == 1
    assert not (tmp_path / "spectral.csv").exists()


_ERGODIC_D2 = "study=ergodic\nd=2\ndomain=-1,1,-1,1\nhalo=-2,2,-2,2\n"


@pytest.mark.parametrize("study, text, what", [
    # 16,008,001 box points: the pair arrays alone would take over 10 PB
    ("ergodic", _ERGODIC_D2 + "box_side=4000\n", "moment estimate over "),
    # a 400,001^2 offset box; a small moment box keeps the case fast
    ("ergodic", _ERGODIC_D2 + "box_side=2\nradii=200000\n", "divergence probe over "),
    ("gamma_limit", "study=gamma_limit\neps_list=0.5\nhalo=-1,1\nquad_n=1000000000000\n",
     "continuum energy quadrature over 1000000000000 panels"),
    # the quadrature's time grows as quad_n^2: QUAD_N_CAP panels take 1-2 minutes
    ("gamma_limit", f"study=gamma_limit\neps_list=0.5\nhalo=-1,1\nquad_n={QUAD_N_CAP + 1}\n",
     f"continuum energy quadrature over {QUAD_N_CAP + 1} panels"),
], ids=["moment_box", "probe_radius", "quad_n", "quad_n_cap"])
def test_cli_diagnostic_over_memory(tmp_path, capsys, study, text, what):
    # each is refused before its first allocation, instead of a numpy MemoryError
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(text)
    assert main([study.replace("_", "-"), "--config", str(cfg_path), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("capacity error: " + what) and err.count("\n") == 1
    assert not (tmp_path / f"{study}.csv").exists()


def test_homogenize_builds_seeds_plus_one_kernels_per_eps(monkeypatch):
    built = []

    def counting(lattice, *args):
        built.append(lattice.eps)
        return assemble(lattice, *args)

    monkeypatch.setattr(fraclat.study, "assemble", counting)
    run_study(parse_config("study=homogenize\neps_list=0.25,0.125\nhalo=-1,1\n"
                           "dist.kind=lognormal\ndist.sigma=0.5\nseeds=1,2\n"))
    assert Counter(built) == {0.25: 3, 0.125: 3}


def test_solve_builds_no_whole_kernel_and_solves_once_per_eps_and_seed(monkeypatch):
    # the solve study takes the one p=2 path: each (eps, seed) is one call of
    # study's `solve` global, whose kernel rows `assemble` builds block by block
    whole, solved = [], []
    real_kernel, real_solve = fraclat.linear_ops.kernel_matrix, fraclat.study.solve

    def kernel(lattice, *args, rows=None):
        whole.append(rows is None)
        return real_kernel(lattice, *args, rows=rows)

    def counting(system, **kwargs):
        solved.append(system.lattice.eps)
        return real_solve(system, **kwargs)

    for module in (fraclat.study, fraclat.linear_ops):
        monkeypatch.setattr(module, "kernel_matrix", kernel)
    monkeypatch.setattr(fraclat.study, "solve", counting)
    rep = run_study(parse_config(SOLVE_CFG))
    assert whole == [False] * 4
    assert Counter(solved) == {0.5: 2, 0.25: 2}
    assert [row[2] for row in rep.rows] == ["l2_norm"] * 4


@pytest.mark.parametrize(
    "dist, seminorm, per_function",
    [("", "gagliardo_seminorm", 1), ("dist.kind=lognormal\ndist.sigma=0.5\nseeds=1,2\n", "weighted_seminorm", 2)],
    ids=["plain", "weighted"],
)
def test_embeddings_one_seminorm_per_function_and_seed(monkeypatch, dist, seminorm, per_function):
    import fraclat.energy

    calls = []
    real = getattr(fraclat.energy, seminorm)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fraclat.energy, seminorm, counting)
    rep = run_study(parse_config("study=embeddings\neps_list=0.25,0.125\nhalo=-1,1\nq_list=2,3\n" + dist))
    functions = 5  # tent, half_tent, bump, comb11, comb12
    assert len(calls) == 2 * functions * per_function
    assert len(rep.rows) == 2 * functions * per_function * 2


def test_startup_imports_no_unused_scipy_submodule(fresh_run):
    # scipy.linalg is imported by the one function that needs it, so a run
    # that never calls it does not pay for the import; nothing imports
    # scipy.integrate or scipy.special, and the Gauss-Legendre nodes are
    # literals, so `import fraclat, fraclat.cli, fraclat.minimize` loads no
    # scipy* and no numpy.polynomial* module
    assert fresh_run["imported"] == []


def test_lognormal_runs_import_no_scipy(fresh_run):
    # LogNormal's inverse normal CDF is computed in numpy, so the seven smoke
    # configs (a LogNormal homogenize among them) and a LogNormal p=3
    # minimize load no scipy module at all
    assert fresh_run["runs"] == []


def test_smoke_pins_hold_in_a_fresh_interpreter(fresh_run):
    assert fresh_run["hashes"] == SMOKE_PINS


def test_run_study_all_drivers_smoke(tmp_path):
    # every driver runs end to end on a small instance and yields finite rows
    for study, text in SMOKE_CONFIGS.items():
        rep = run_study(parse_config(text))
        assert rep.study == study
        assert rep.rows, study
        assert rep.meta["wall_time"] >= 0
        assert _csv_hash(rep) == SMOKE_PINS[study], study

import json
import os
import pathlib
from collections import Counter

import pytest

import fraclat.study
from fraclat.cli import main
from fraclat.energy import kernel_matrix
from fraclat.errors import ConfigError
from fraclat.study import (
    StudyConfig,
    StudyReport,
    parse_config,
    run_study,
    serialize_config,
)
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


def test_parse_defaults():
    cfg = parse_config("study=solve\n")
    assert cfg.study == "solve"
    assert cfg.dist == Constant(1.0)
    assert cfg.seeds == (1,)


def test_roundtrip_identity():
    cfg = parse_config(SOLVE_CFG)
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
        "study=solve\nseeds=\n",
        "study=solve\nd=two\n",
        "study=solve\nu.kind=sine\n",
        # moment assumption: unit_power_law a=0.5 has q_max=0.5 < p/(p-1)... too weak
        "study=homogenize\ndist.kind=unit_power_law\ndist.a=0.5\n",
    ],
)
def test_bad_configs_rejected(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nstudy=solve\n  # indented comment\n")
    assert cfg.study == "solve"


def test_report_rejects_nonfinite():
    rep = StudyReport("solve")
    with pytest.raises(ValueError):
        rep.add(0.5, 1, "energy", float("nan"))


def test_report_values_filter():
    rep = StudyReport("solve")
    rep.add(0.5, 1, "a", 1.0)
    rep.add(0.25, 1, "a", 2.0)
    rep.add(0.5, 1, "b", 3.0)
    assert rep.values("a") == [1.0, 2.0]
    assert rep.values("a", eps=0.25) == [2.0]


def test_report_jsonl_parses():
    rep = StudyReport("solve")
    rep.add(0.5, 1, "a", 1.5, aux="note")
    (line,) = rep.to_jsonl().strip().splitlines()
    row = json.loads(line)
    assert row == {"study": "solve", "eps": 0.5, "seed": 1, "metric": "a",
                   "value": 1.5, "aux": "note"}


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
    assert "solve eps=0.5 seed=1" in capsys.readouterr().err


def test_cli_jsonl_format(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SOLVE_CFG)
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--format", "jsonl"]) == 0
    lines = (tmp_path / "solve.jsonl").read_text().strip().splitlines()
    assert all(json.loads(ln)["study"] == "solve" for ln in lines)


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SOLVE_CFG)
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--seed-override", "7"]) == 0
    body = (tmp_path / "solve.csv").read_text()
    assert ",7," in body and ",1," not in body.replace("0.5,1,", "KEEP")
    # only seed 7 appears in the seed column
    seeds = {ln.split(",")[2] for ln in body.strip().splitlines()[1:]}
    assert seeds == {"7"}


def test_cli_config_errors(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("study=solve\nwhat=1\n")
    assert main(["solve", "--config", str(bad)]) == 2
    mismatched = tmp_path / "mismatch.txt"
    mismatched.write_text(SOLVE_CFG)
    assert main(["spectral", "--config", str(mismatched)]) == 2
    capsys.readouterr()


def test_cli_numerical_failure(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SOLVE_CFG + "solver.tol=1e-300\nsolver.max_iter=2\n")
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_capacity_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SOLVE_CFG.replace("eps_list=0.5,0.25", "eps_list=0.000001"))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and err.count("\n") == 1
    assert not (tmp_path / "solve.csv").exists()


def test_cli_kernel_over_memory(tmp_path, capsys):
    # 641,601 sites pass the site cap, but their dense kernel would need 3.3 TB
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("study=solve\nd=2\neps_list=0.0025\ndomain=-1,1,-1,1\nhalo=-1,1,-1,1\n")
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("capacity error: dense kernel over 641601 sites") and err.count("\n") == 1
    assert not (tmp_path / "solve.csv").exists()


def test_homogenize_builds_seeds_plus_one_kernels_per_eps(monkeypatch):
    built = []

    def counting(lattice, *args):
        built.append(lattice.eps)
        return kernel_matrix(lattice, *args)

    monkeypatch.setattr(fraclat.study, "kernel_matrix", counting)
    run_study(parse_config("study=homogenize\neps_list=0.25,0.125\nhalo=-1,1\n"
                           "dist.kind=lognormal\ndist.sigma=0.5\nseeds=1,2\n"))
    assert Counter(built) == {0.25: 3, 0.125: 3}


def test_thread_count_does_not_change_bytes(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SOLVE_CFG)
    outs = []
    for threads, sub in ((1, "a"), (8, "b")):
        out = tmp_path / sub
        assert main(["solve", "--config", str(cfg_path), "--out", str(out),
                     "--threads", str(threads)]) == 0
        outs.append((out / "solve.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_study_all_drivers_smoke(tmp_path):
    # every driver runs end to end on a small instance and yields finite rows
    configs = {
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
    for study, text in configs.items():
        rep = run_study(parse_config(text))
        assert rep.study == study
        assert rep.rows, study
        assert rep.meta["wall_time"] >= 0

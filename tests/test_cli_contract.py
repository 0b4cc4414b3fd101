"""The CLI's exit-code contract under random configs.

Every config exits 0, 2, 3 or 4, and stderr holds one line besides the
report's echo lines: the path written, or the one message of the failure.
The pool keeps each run small (eps >= 1/16, d=2 only at eps >= 1/8,
box_side <= 16, quad_n <= 256, radii <= 100).  Its values include the edges
that each key rejects, and a config sets at most three keys besides the
study, the boxes, eps, box_side, radii and dist, so that about a fifth of
the configs run to a report.
"""

import contextlib
import io
import itertools
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from fraclat.cli import main
from fraclat.study import STUDIES

# one to three decreasing eps for each d
_EPS = {d: [",".join(map(str, c)) for k in (1, 2, 3) for c in itertools.combinations(grid, k)]
        for d, grid in ((1, (1.0, 0.5, 0.25, 0.125, 0.0625)), (2, (1.0, 0.5, 0.25, 0.125)))}
_BOXES = {
    1: (("-1,1", "0,1"), ("-1,1", "-1.5,1.5", "-2,2")),
    2: (("-1,1,-1,1",), ("-1,1,-1,1", "-1.5,1.5,-1.5,1.5")),
}
_VALUES = {
    "s": ("0.25", "0.5", "0.75", "0", "1"),
    "p": ("2.0", "1.5", "3", "1"),
    "seeds": ("1", "1,2", "0,4611686018427387904", "-3", "", "1,1"),
    "flavor": ("global", "local", "bogus"),
    "solver.tol": ("1e-10", "1e-300", "0"),
    "solver.max_iter": ("1", "3", "100"),
    "quad_n": ("1", "16", "256"),
    "k_eigs": ("1", "5", "50"),
    "alpha": ("0.5", "1.0,2.0", "-1", "", "0.5,0.5"),
    "q_list": ("2", "1.5,inf", "0.5", "", "2,2"),
}
# always set: their defaults (radii up to 1000, box_side 64) lie outside the pool
_BOUNDED = {"radii": ("1", "10,100", "100,10", "", "10,10"), "box_side": ("2", "8", "16")}
# dist.kind -> its parameter and the values drawn for it
_DISTS = {
    "constant": ("value", ("0", "-1", "1e-320", "1e-300", "1", "1e300", "inf", "nan")),
    "lognormal": ("sigma", ("0", "0.5", "1", "30", "40")),
    "unit_power_law": ("a", ("0.5", "1", "2", "4")),
    "shifted_pareto": ("a", ("0.9", "1", "2", "4")),
}

_PREFIX = {0: "wrote ", 2: "config error: ", 3: "numerical failure: ", 4: "capacity error: "}


def _maybe_line(key, values):
    """No line, which leaves the key's default, or key=value for one of the values."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda value: [f"{key}={value}"]))


@st.composite
def _dist_lines(draw, prefix):
    kind = draw(st.sampled_from(sorted(_DISTS) + ["decaying_product"]))
    lines = [f"{prefix}kind={kind}"]
    if kind == "decaying_product":
        lines += draw(_maybe_line(f"{prefix}alpha", ("0", "1", "3")))
        return lines + draw(_dist_lines(prefix + "base."))
    param, values = _DISTS[kind]
    return lines + draw(_maybe_line(prefix + param, values))


@st.composite
def _configs(draw):
    study = draw(st.sampled_from(STUDIES))
    d = draw(st.sampled_from((1, 2)))
    lines = [f"study={study}", f"d={d}", f"eps_list={draw(st.sampled_from(_EPS[d]))}"]
    for key, values in [*zip(("domain", "halo"), _BOXES[d]), *_BOUNDED.items()]:
        lines.append(f"{key}={draw(st.sampled_from(values))}")
    # a few keys at a time, so that most configs run
    for key in draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=3, unique=True)):
        lines.append(f"{key}={draw(st.sampled_from(_VALUES[key]))}")
    if draw(st.booleans()):
        lines += draw(_dist_lines("dist."))
    return study, "\n".join(lines) + "\n"


# regression cases: configs that exited 1 (the zero constants, a product of products), exited 0
# with a negative conductance, or ran CG for 10,000 iterations on NaN (1e-320), two removed keys,
# the empty lists that exited 1 with an IndexError, and a repeated seed that wrote duplicate rows
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@example(case=("solve", "study=solve\neps_list=0.25,0.125\ndist.value=0\n"))
@example(case=("homogenize", "study=homogenize\neps_list=0.25,0.125\ndist.value=0\n"))
@example(case=("solve", "study=solve\neps_list=0.25,0.125\ndist.value=-1\n"))
@example(case=("homogenize", "study=homogenize\neps_list=0.25,0.125\ndist.kind=decaying_product\n"
                             "dist.base.kind=constant\ndist.base.value=0\n"))
@example(case=("solve", "study=solve\neps_list=0.25,0.125\ndist.value=1e-320\n"))
@example(case=("solve", "study=solve\ndist.kind=lognormal\ndist.normalize=false\n"))
@example(case=("solve", "study=solve\nf.value=1\n"))
@example(case=("solve", "study=solve\ndist.kind=decaying_product\ndist.base.kind=decaying_product\n"))
@example(case=("homogenize", "study=homogenize\neps_list=\n"))
@example(case=("ergodic", "study=ergodic\nradii=\n"))
@example(case=("vanish", "study=vanish\nradii=\n"))
@example(case=("homogenize", "study=homogenize\neps_list=0.25,0.125\nseeds=2,2\n"))
@given(case=_configs())
def test_every_config_exits_with_a_documented_code_and_one_line(case):
    study, text = case
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/cfg.txt", "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([study.replace("_", "-"), "--config", f"{tmp}/cfg.txt", "--out", f"{tmp}/out"])
    assert code in _PREFIX, (code, err.getvalue())
    others = [line for line in err.getvalue().splitlines() if not line.startswith(f"{study} eps=")]
    assert len(others) == 1 and others[0].startswith(_PREFIX[code]), (code, err.getvalue())


def _never_run(cfg):
    raise AssertionError("the study ran")


@pytest.mark.parametrize(
    "argv, out, last_line",
    [
        pytest.param(["homogenize"], "out",
                     "config error: config is for study 'solve' but subcommand is 'homogenize'", id="other_subcommand"),
        pytest.param(["solve", "--threads", "2"], "out",
                     "fraclat: error: unrecognized arguments: --threads 2", id="unknown_option"),
        pytest.param(["solve"], "file/out", "output error: ", id="out_under_a_file"),
    ],
)
def test_a_bad_command_line_exits_2_before_the_study_runs(tmp_path, monkeypatch, capsys, argv, out, last_line):
    monkeypatch.setattr("fraclat.cli.run_study", _never_run)
    (tmp_path / "cfg.txt").write_text("study=solve\neps_list=0.25\n")
    (tmp_path / "file").write_text("")
    argv = [*argv, "--config", str(tmp_path / "cfg.txt"), "--out", str(tmp_path / out)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own exit, after its usage lines
        code = exc.code
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and err[-1].startswith(last_line), err
    # argparse prints its usage first; each of the others is one line
    assert len(err) == 1 or err[0].startswith("usage: fraclat"), err
    assert not (tmp_path / "out").exists()


def test_a_report_that_cannot_be_written_exits_2_with_one_line(tmp_path, capsys):
    # the report's own path is taken by a directory, so opening it fails
    (tmp_path / "cfg.txt").write_text("study=solve\neps_list=0.25\n")
    (tmp_path / "out" / "solve.csv").mkdir(parents=True)
    code = main(["solve", "--config", str(tmp_path / "cfg.txt"), "--out", str(tmp_path / "out")])
    others = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("solve eps=")]
    assert code == 2 and len(others) == 1 and others[0].startswith("output error: "), others

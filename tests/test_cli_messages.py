"""What the command line prints on the paths the other tests leave unexecuted:
the default output directory, the two usage errors that need no config
check, each command's ``wrote`` line without ``--quiet``, the oracle's
boundary optimum, and ``dynamics.run``'s own argument checks."""

import re
from pathlib import Path

import pytest

from dismd import cli, dynamics, harness
from dismd.config import load_config
from test_harness import MINIMAL, write_config
from test_kernel_reference import CONFIGS


def _shipped(tmp_path, stem, edits):
    """The shipped config ``stem`` with each ``old: new`` line replaced, in tmp_path."""
    text = (CONFIGS / f"{stem}.ini").read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    return write_config(tmp_path, text, f"{stem}.ini")


def test_run_without_out_writes_to_run_out(tmp_path, capsys, monkeypatch):
    cfg = _shipped(tmp_path, "problem_a_eismd", {"epochs = 50000": "epochs = 10"})
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", str(cfg)]) == 0
    out = Path("runs/problem_a_eismd")
    assert capsys.readouterr().out == f"wrote {out / 'metrics.csv'} and {out / 'manifest.json'}\n"
    assert sorted(p.name for p in (tmp_path / out).iterdir()) == ["manifest.json", "metrics.csv"]


def test_run_without_any_output_directory_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL)
    assert cli.main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no output directory: set run.out in the config or pass --out\n"


def test_compare_of_one_config_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL)
    assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp")]) == 1
    assert capsys.readouterr().err == "error: compare needs at least two configs\n"
    assert not (tmp_path / "cmp").exists()


def test_each_command_says_what_it_wrote(tmp_path, capsys):
    cfg = str(write_config(tmp_path, MINIMAL))
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", cfg, "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'compare.csv'}\n"
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", cfg, "--param", "hyperparams.sigma", "--values", "0,0.1",
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"wrote {out / 'summary.csv'}\n"
    out = tmp_path / "graph"
    assert cli.main(["graph-info", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote adjacency.csv and laplacian.csv to {out}"
    out = tmp_path / "bundle"
    assert cli.main(["problem-gen", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote problem bundle to {out}\n"


def test_oracle_reports_a_boundary_optimum(tmp_path, capsys):
    cfg = _shipped(tmp_path, "problem_b_simplex",
                   {"seed = 9": "seed = 0", "shared_minimizer = true": "shared_minimizer = false"})
    assert cli.main(["oracle", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "lambda_star_norm: none (boundary optimum)"


@pytest.mark.parametrize("change, message", [
    ({"algorithm": "foo"}, "unknown algorithm 'foo'"),
    ({"interaction_on": "y"}, "interaction_on must be 'x' or 'z', got 'y'"),
    ({"metrics_every": 0}, "metrics_every must be >= 1, got 0"),
])
def test_run_rejects_a_bad_argument(tmp_path, change, message):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    setup = harness.prepare(cfg)
    args = {"algorithm": "eismd", "problem": setup.problem, "mmap": setup.mmap,
            "graph": setup.graph, "hp": cfg.hyperparams(), **change}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dynamics.run(**args)

"""``tools/bytecheck.py``'s comparison of two output trees."""

import argparse
import importlib
import json
from pathlib import Path

from dismd import cli, harness

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _bytecheck(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("bytecheck")


def _tree(root: Path, csv: str, manifest: dict) -> Path:
    run = root / "run-problem_a_eismd-0"
    (run / "out").mkdir(parents=True)
    (run / "out" / "metrics.csv").write_text(csv)
    (run / "out" / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for name, text in (("exit", "0\n"), ("stdout", "wrote out/metrics.csv\n"), ("stderr", "")):
        (run / name).write_text(text)
    return root


def test_it_reports_one_changed_csv_byte_and_ignores_timings(tmp_path, monkeypatch):
    bytecheck = _bytecheck(monkeypatch)
    manifest = {"config": {"run": {"seed": 0}}, "records": 3, "record_share": 0.25,
                "timings": {"prepare_s": 0.1}, "compare": {"b": {"steps_per_second": 9.0}}}
    moved = json.loads(json.dumps(manifest))
    moved["record_share"], moved["timings"]["prepare_s"] = 0.5, 0.2
    moved["compare"]["b"]["steps_per_second"] = 7.0
    a = _tree(tmp_path / "a", "step,V\n0,1.5\n", manifest)
    b = _tree(tmp_path / "b", "step,V\n0,1.6\n", moved)
    assert bytecheck.differences(a, b) == [
        "run-problem_a_eismd-0/out/metrics.csv: first differs at byte 11, line 2 "
        "(13 against 13 bytes)"]


def test_it_reports_a_manifest_value_an_exit_code_and_a_missing_file(tmp_path, monkeypatch):
    bytecheck = _bytecheck(monkeypatch)
    a = _tree(tmp_path / "a", "x\n", {"records": 3})
    b = _tree(tmp_path / "b", "x\n", {"records": 4})
    (b / "run-problem_a_eismd-0" / "exit").write_text("2\n")
    (b / "run-problem_a_eismd-0" / "out" / "extra.csv").write_text("")
    run = Path("run-problem_a_eismd-0")
    assert bytecheck.differences(a, b) == [
        f"{run / 'exit'}: first differs at byte 0, line 1 (2 against 2 bytes)",
        f"{run / 'out' / 'extra.csv'}: only in {b}",
        f"{run / 'out' / 'manifest.json'}: manifests differ outside "
        "timings, wall_clock_seconds, steps_per_second, record_share",
    ]


def test_its_list_runs_every_subcommand(tmp_path, monkeypatch):
    bytecheck = _bytecheck(monkeypatch)
    cmds = bytecheck.commands(tmp_path / "inputs")
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in cmds.values()} == set(sub.choices)
    assert len(cmds) == 38


def test_its_list_sweeps_a_parameter_that_prepares_each_value(monkeypatch):
    # a batched parameter's values share one prepare; graph.beta's each run their own
    bytecheck = _bytecheck(monkeypatch)
    params = {param for _, param, _ in bytecheck.SWEEPS.values()}
    assert params & set(harness.BATCHED) and params - set(harness.BATCHED)

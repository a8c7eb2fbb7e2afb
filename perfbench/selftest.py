"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

They run the CLI on the --smoke horizon, so they take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import spans
from run import ROOT, Inputs, run_child
from workloads import SMOKE_EPOCHS, WORKLOADS

RUN = Path(__file__).with_name("run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_emits_every_named_metric(name, trace):
    # The traced mode also fails unless every wrapper in the workload's
    # ``hits`` fired at least once.
    result = smoke(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_every_wrapper_is_expected_to_fire_somewhere():
    expected = set().union(*(w.hits for w in WORKLOADS.values()))
    assert {w[2] for w in spans.WRAPPERS} == expected


def test_workloads_match_the_spec():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


@pytest.fixture(scope="module")
def desk_outputs(tmp_path_factory):
    """One real desk-compare command on the smoke horizon."""
    workload = WORKLOADS["desk-compare"]
    where = tmp_path_factory.mktemp("desk")
    inputs = Inputs(workload, 0, SMOKE_EPOCHS, where / "inputs")
    child = run_child(inputs.argv(where / "out"), where / "stderr.txt")
    assert child.code == 0, child.stderr
    return workload, inputs, where


def _checked(workload, out, code=0, stderr=""):
    return check.check_outputs(workload, out, SMOKE_EPOCHS, code, stderr)


def _mutated(desk_outputs, tmp_path, edit):
    workload, _, where = desk_outputs
    out = tmp_path / "out"
    shutil.copytree(where / "out", out)
    path = out / "compare.csv"
    path.write_text(edit(path.read_text().split("\n")))
    return _checked(workload, out)


def test_checker_accepts_real_output(desk_outputs):
    workload, _, where = desk_outputs
    outcome = _checked(workload, where / "out")
    assert outcome.ok, outcome.problems
    assert set(outcome.final_rows["compare.csv"]) == {s.label for s in workload.runs}


def test_checker_rejects_injected_nan(desk_outputs, tmp_path):
    def inject(lines):
        fields = lines[5].split(",")
        fields[7] = "nan"
        lines[5] = ",".join(fields)
        return "\n".join(lines)

    outcome = _mutated(desk_outputs, tmp_path, inject)
    assert any("non-finite" in p for p in outcome.problems), outcome.problems


def test_checker_rejects_missing_row(desk_outputs, tmp_path):
    outcome = _mutated(desk_outputs, tmp_path, lambda lines: "\n".join(lines[:3] + lines[4:]))
    assert not outcome.ok


def test_checker_rejects_nonzero_exit(desk_outputs, tmp_path):
    workload, inputs, _ = desk_outputs
    for path in inputs.paths:  # an unstable step size diverges: exit code 2
        path.write_text(path.read_text().replace("dt = 0.01", "dt = 1000.0"))
    child = run_child(inputs.argv(tmp_path / "out"), tmp_path / "stderr.txt")
    outcome = _checked(workload, tmp_path / "out", child.code, child.stderr)
    assert child.code == 2
    assert any("exit code 2" in p for p in outcome.problems), outcome.problems


def test_checker_rejects_final_kkt_outside_its_range(desk_outputs):
    workload, _, where = desk_outputs
    # The range check runs on the full horizon only; make the smoke one full,
    # with every range open but one.
    label = workload.runs[1].label
    ranges = {s.label: (0.0, math.inf) for s in workload.runs}
    full = dataclasses.replace(workload, epochs=SMOKE_EPOCHS, kkt_ranges=ranges)
    assert _checked(full, where / "out").ok
    tight = dataclasses.replace(full, kkt_ranges=dict(ranges, **{label: (0.0, 1e-12)}))
    outcome = _checked(tight, where / "out")
    assert len(outcome.problems) == 1
    assert outcome.problems[0].startswith(f"{label}: final kkt_consensus")


def test_every_run_has_a_kkt_range():
    for w in WORKLOADS.values():
        keys = w.sweep_values if w.command == "sweep" else [s.label for s in w.runs]
        assert set(w.kkt_ranges) == set(keys), w.name


def test_reference_mismatch_is_a_failure(desk_outputs):
    workload, _, where = desk_outputs
    outcome = _checked(workload, where / "out")
    finals = outcome.final_rows["compare.csv"]
    stored = {"sha256": outcome.sha256["compare.csv"], "final": finals}
    refs = {outcome.artifact_version: {workload.name: {"0": {"compare.csv": stored}}}}
    assert check.compare_reference(refs, workload.name, 0, outcome) == ("checked", 1)
    assert check.compare_reference(refs, workload.name, 1, outcome) == ("unknown-seed", 0)
    assert outcome.ok
    label = workload.runs[0].label
    stored["final"] = dict(finals, **{label: [v * (1 + 1e-3) for v in finals[label]]})
    stored["sha256"] = "0" * 64
    assert check.compare_reference(refs, workload.name, 0, outcome) == ("checked", 0)
    assert not outcome.ok


def test_self_time_subtracts_children():
    tracer = spans.Tracer(capture_step=-1)
    outer, inner = tracer.names.index("dynamics.run"), tracer.names.index("dynamics.eismd_step")
    for nid, start, end, parent in ((outer, 0.0, 10.0, -1), (inner, 1.0, 3.0, 0), (inner, 4.0, 8.0, 0)):
        tracer.name_id.append(nid)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.run.append(1)
    summary = tracer.summary()
    assert summary["dynamics.run"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert summary["dynamics.eismd_step"] == {"calls": 2, "total_s": 6.0, "self_s": 6.0}


def test_missing_wrapper_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(spans, "WRAPPERS", spans.WRAPPERS + (("dismd.dynamics", "no_such_step", "x"),))
    sys.path.insert(0, str(ROOT / "src"))
    tracer = spans.Tracer(capture_step=-1)
    with pytest.raises(AttributeError):
        tracer.install()
    tracer.uninstall()
    from dismd import dynamics
    assert not hasattr(dynamics.run, "__wrapped__")


def test_bench_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(__file__).parent, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-compare", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

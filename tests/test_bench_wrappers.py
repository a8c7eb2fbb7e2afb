"""The benchmark reads the package by name: its span tracer wraps package
functions, its checker pins the metrics.csv header and its workloads write
config files. A change in the package that breaks one of these must fail
here, not only in a benchmark run."""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from dismd import cli, diagnostics
from dismd.config import load_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's modules import each other by bare name, as its scripts run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_every_wrapped_name_resolves():
    spans = _load_spans()
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in spans.WRAPPERS
        if not callable(getattr(spans._owner(owner), attr, None))
    ]
    assert missing == []


def test_checker_pins_the_package_csv_columns(perfbench):
    assert perfbench("check").CSV_COLUMNS == diagnostics.CSV_COLUMNS


def test_every_workload_config_loads(perfbench, tmp_path):
    workloads = perfbench("workloads").WORKLOADS
    for name, workload in workloads.items():
        for label, text in workload.config_texts(0, workload.epochs, None).items():
            path = tmp_path / f"{name}-{label}.ini"
            path.write_text(text)
            cfg = load_config(path)
            assert cfg["hyperparams"]["epochs"] == workload.epochs


def test_traced_desk_compare_fires_every_hit_and_times_every_kernel(perfbench, monkeypatch,
                                                                     tmp_path):
    """The traced benchmark path in miniature: desk-compare at the smoke
    horizon under the span tracer, then the kernels timed on the captured
    mid-run calls, once as captured and once from the eismd call alone."""
    workloads, spans, kernels, check = map(perfbench, ("workloads", "spans", "kernels", "check"))
    workload = workloads.WORKLOADS["desk-compare"]
    epochs = workloads.SMOKE_EPOCHS
    paths = []
    for label, text in workload.config_texts(0, epochs, None).items():
        paths.append(tmp_path / f"{label}.ini")
        paths[-1].write_text(text)
    tracer = spans.Tracer(capture_step=epochs // 2)
    tracer.install()
    try:
        code = cli.main(workload.argv(paths, tmp_path / "out"))
    finally:
        tracer.uninstall()
    assert check.check_outputs(workload, tmp_path / "out", epochs, code).problems == []
    summary = tracer.summary()
    assert sorted(name for name in workload.hits if summary[name]["calls"] == 0) == []
    assert sorted(tracer.captured) == sorted(spans.STEP_SPANS)

    monkeypatch.setattr(kernels, "BATCH_SECONDS", 0.002)
    eismd_only = {"dynamics.eismd_step": tracer.captured["dynamics.eismd_step"]}
    for captured in (tracer.captured, eismd_only):
        metrics = kernels.kernel_metrics(captured, 0)
        steps = {name: value for name, (value, _) in metrics.items()
                 if name.startswith("dynamics.step_us.")}
        assert sorted(steps) == [f"dynamics.step_us.{k}" for k in ("eismd", "epismd", "ismd")]
        assert all(math.isfinite(v) and v > 0 for v in steps.values()), steps

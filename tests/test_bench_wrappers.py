"""The benchmark reads the package by name: its span tracer wraps package
functions, its checker pins the metrics.csv header and its workloads write
config files. A change in the package that breaks one of these must fail
here, not only in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dismd import diagnostics
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

"""The benchmark's span tracer wraps package functions by name; a rename in
the package must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    spans = _load_spans()
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in spans.WRAPPERS
        if not callable(getattr(spans._owner(owner), attr, None))
    ]
    assert missing == []

"""Spans around the calls into each dismd module, recorded from outside.

``Tracer.install`` replaces each function in ``WRAPPERS`` at the name its
caller looks up (a module global or a class attribute) with a wrapper that
records one span: name, start, end, parent span and run id. A missing name
raises at install time, so a rename fails loudly instead of reporting zero.
Spans live in flat arrays in memory and are written once, at the end.

A run id counts the ``harness.execute`` calls: every span inside one
simulated run shares it. ``oracle.solve`` is opaque: calls below it record
no spans, so the simplex oracle's tens of thousands of mirror-map calls do
not inflate its time with tracing overhead.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

# (owner, attribute, span name). The owner is "module" or "module:Class".
WRAPPERS = (
    ("dismd.harness", "execute", "harness.execute"),
    ("dismd.harness", "prepare", "harness.prepare"),
    ("dismd.harness", "generate_problem", "harness.generate_problem"),
    ("dismd.harness", "spectra", "harness.spectra"),
    ("dismd.harness", "build_dual", "harness.build_dual"),
    ("dismd.oracle", "solve", "oracle.solve"),
    ("dismd.diagnostics", "compute_constants", "diagnostics.compute_constants"),
    ("dismd.diagnostics", "kappa_g_estimate", "diagnostics.kappa_g_estimate"),
    ("dismd.dynamics", "run", "dynamics.run"),
    ("dismd.dynamics", "ismd_step", "dynamics.ismd_step"),
    ("dismd.dynamics", "eismd_step", "dynamics.eismd_step"),
    ("dismd.dynamics", "epismd_step", "dynamics.epismd_step"),
    ("dismd.dynamics:NoiseStream", "block", "dynamics.NoiseStream.block"),
    ("dismd.objectives:DistributedProblem", "grads", "DistributedProblem.grads"),
    ("dismd.mirror_maps:EuclideanMap", "backward", "EuclideanMap.backward"),
    ("dismd.mirror_maps:EntropyMap", "backward", "EntropyMap.backward"),
    ("dismd.mirror_maps:RegularizedDualHessian", "backward", "RegularizedDualHessian.backward"),
    ("dismd.diagnostics:MetricsRecorder", "__call__", "MetricsRecorder.__call__"),
    ("dismd.diagnostics:MetricsRecord", "to_csv_row", "MetricsRecord.to_csv_row"),
    ("dismd.harness", "rate_fit", "harness.rate_fit"),
    ("dismd.harness", "write_run_outputs", "harness.write_run_outputs"),
    ("dismd.harness", "records_to_csv", "harness.records_to_csv"),
    ("dismd.harness", "_write_atomic", "harness._write_atomic"),
)
OPAQUE_SPANS = ("oracle.solve",)
STEP_SPANS = ("dynamics.ismd_step", "dynamics.eismd_step", "dynamics.epismd_step")
# Formatting and writing the outputs; nested spans of the group count once.
WRITE_SPANS = (
    "harness.write_run_outputs", "harness.records_to_csv",
    "MetricsRecord.to_csv_row", "harness._write_atomic",
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans of the wrapped calls; captures one mid-run step call per
    step function (the state it was given and the rest of its arguments)."""

    def __init__(self, capture_step: int):
        self.names = [w[2] for w in WRAPPERS]
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self.opaque = 0
        self.capture_step = capture_step
        self.captured: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, nid: int, fn):
        name_id, start, end, parent, run = self.name_id, self.start, self.end, self.parent, self.run
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        name = self.names[nid]
        new_run = name == "harness.execute"
        capture = name in STEP_SPANS
        opaque = name in OPAQUE_SPANS

        def traced(*args, **kwargs):
            if tracer.opaque:
                return fn(*args, **kwargs)
            if new_run:
                tracer.run_id += 1
            if capture and name not in tracer.captured and args[0].step == tracer.capture_step:
                tracer.captured[name] = (args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(tracer.run_id)
            end.append(0.0)
            stack.append(idx)
            tracer.opaque += opaque
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                tracer.opaque -= opaque
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for nid, (owner_path, attr, _) in enumerate(WRAPPERS):
            owner = _owner(owner_path)
            original = getattr(owner, attr)  # AttributeError names a renamed target
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(nid, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self, child_cost_s: float = 0.0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds.

        Self time is the duration minus the children's spans and minus
        ``child_cost_s`` per child, the wrapper's own time outside its span.
        """
        nid = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.intp)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        children = np.zeros_like(dur)
        np.add.at(children, parent[has_parent], dur[has_parent] + child_cost_s)
        own = dur - children
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        write = [self.names.index(n) for n in WRITE_SPANS]
        in_write = np.isin(nid, write)
        outer = in_write & ~(has_parent & np.isin(nid[np.where(has_parent, parent, 0)], write))
        out = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        out["write_outer_s"] = float(dur[outer].sum())
        out["child_cost_s"] = child_cost_s
        return out

    def write(self, path: Path, summary: dict) -> None:
        """Write every span (names, then arrays indexed by span) and the summary."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int64),
        )
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")


def child_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Median time a wrapped call adds to its caller beyond its own span."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        probe = Tracer(capture_step=-1)
        wrapped = probe._wrap(probe.names.index("DistributedProblem.grads"), noop)
        t = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - t
        inside = float(np.sum(np.frombuffer(probe.end) - np.frombuffer(probe.start)))
        costs.append(max(traced - inside - plain, 0.0) / calls)
    return statistics.median(costs)

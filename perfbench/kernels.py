"""Per-call timings of the step kernels, each on a real mid-run state.

The traced run captures the arguments of one step call half way through
the horizon. Each kernel is then called in a loop on those arguments, with
the wrappers removed: the median over a few batches, in microseconds per
call, is its time. Flop and byte counts are computed from the array shapes
(bytes assume every operand is read from memory once per use; no cache).

Every kernel is timed on every workload, so that each per-layer metric has a
value everywhere. A kernel the workload never calls is timed on that
workload's state all the same; ``synthetic`` names those timings, and the
result's provenance lists them, since they are not numbers the program
produces on that workload.
"""

from __future__ import annotations

import dataclasses
import inspect
import statistics
import time
from functools import partial

BATCHES = 5
BATCH_SECONDS = 0.04
# Noise scale used to time NoiseStream.block when the workload draws none;
# the cost of a block does not depend on it.
NOISE_SIGMA = 0.1
# Timed kernel -> the span (spans.WRAPPERS) that shows the workload calls it.
# objectives.grads_us and graphs.laplacian_apply_us are called by every step.
KERNEL_SPANS = {
    "dynamics.step_us.ismd": "dynamics.ismd_step",
    "dynamics.step_us.eismd": "dynamics.eismd_step",
    "dynamics.step_us.epismd": "dynamics.epismd_step",
    "mirror_maps.backward_us.euclidean": "EuclideanMap.backward",
    "mirror_maps.backward_us.entropy": "EntropyMap.backward",
    "mirror_maps.dual_backward_us": "RegularizedDualHessian.backward",
    "dynamics.noise_block_us": "dynamics.NoiseStream.block",
}


def synthetic(summary: dict) -> list[str]:
    """Timed kernels whose span never fired in the traced run."""
    return sorted(metric for metric, span in KERNEL_SPANS.items() if summary[span]["calls"] == 0)


def per_call_us(fn) -> float:
    """Median over BATCHES timed batches, in microseconds per call."""
    fn()
    calls = 1
    while True:
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t >= BATCH_SECONDS / 4:
            break
        calls *= 4
    samples = []
    for _ in range(BATCHES):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t) / calls)
    return statistics.median(samples) * 1e6


def kernel_metrics(captured: dict[str, tuple], seed: int) -> dict[str, tuple[float, str]]:
    """Time every kernel on the captured step calls.

    A step function the workload never ran is timed on the arguments of the
    first one it did run (epismd then with the identity dual and mu = lam).
    """
    from dismd import dynamics
    from dismd.mirror_maps import EntropyMap, EuclideanMap, IdentityDual

    if not captured:
        raise RuntimeError("no mid-run state was captured")
    calls = {}
    for name, (args, kwargs) in captured.items():
        kind = name.rsplit(".", 1)[1]
        bound = inspect.signature(getattr(dynamics, kind)).bind(*args, **kwargs)
        bound.apply_defaults()
        calls[kind] = dict(bound.arguments)
    base = next(iter(calls.values()))
    state, problem, hp = base["state"], base["problem"], base["hp"]
    common = {k: base[k] for k in ("problem", "mmap", "graph", "hp")}
    io = base.get("interaction_on", "x")
    calls.setdefault("ismd_step", dict(common, state=state, noise=None))
    calls.setdefault("eismd_step", dict(common, state=state, noise=None, interaction_on=io))
    calls.setdefault("epismd_step", dict(
        common, state=dataclasses.replace(state, mu=state.lam.copy()), dual=IdentityDual(),
        noise=None, interaction_on=io,
    ))
    epismd = calls["epismd_step"]

    n, d, m = problem.n, problem.d, problem.m
    noise = dynamics.NoiseStream(seed, n, d, hp.sigma or NOISE_SIGMA, hp.dt)
    x, z = state.x, state.z
    timed = {
        f"dynamics.step_us.{kind[:-5]}": partial(getattr(dynamics, kind), **kw)
        for kind, kw in sorted(calls.items())
    }
    timed.update({
        "objectives.grads_us": partial(problem.grads, x),
        "graphs.laplacian_apply_us": partial(base["graph"].laplacian.__matmul__, x),
        "mirror_maps.backward_us.euclidean": partial(EuclideanMap(d).backward, z),
        "mirror_maps.backward_us.entropy": partial(EntropyMap(d).backward, z),
        "mirror_maps.dual_backward_us": partial(epismd["dual"].backward, epismd["state"].mu),
        "dynamics.noise_block_us": partial(noise.block, state.step),
    })
    out = {name: (per_call_us(fn), "us") for name, fn in timed.items()}
    out.update({
        # two einsums of n*m*d multiply-adds each, plus the residual's n*m subtractions
        "objectives.grads_flops": (4 * n * m * d + n * m, "flop"),
        # Q read twice; x, b read; the residual written and read; the gradient written
        "objectives.grads_bytes": (8 * (2 * n * m * d + 2 * n * d + 3 * n * m), "B"),
        "graphs.laplacian_bytes": (8 * (n * n + 2 * n * d), "B"),
    })
    return out

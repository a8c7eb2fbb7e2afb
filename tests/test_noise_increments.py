"""The Gaussian increments of a noisy run, read from its states alone.

The run's states are recorded at every step. Each increment is recovered as
z_{k+1} minus the z of the noise-free allocating step
(``test_kernel_reference.ref_step``) from state k, so the check reads no
noise API: it holds for any stream that gives independent N(0, sigma^2 dt)
coordinates, whatever the generator and however its draws are grouped.
"""

import math

import numpy as np

from dismd import dynamics, harness
from test_kernel_reference import ref_step, shipped_config

SIGMA = 0.1
STEPS = 1000


def _increments() -> tuple[np.ndarray, float]:
    """The (STEPS, n * d) increments of desk eismd at sigma = SIGMA, and dt."""
    cfg = shipped_config("problem_a_eismd", {
        "hyperparams.sigma": SIGMA, "hyperparams.epochs": STEPS, "hyperparams.metrics_every": 1,
    })
    setup = harness.prepare(cfg)
    hp, a = cfg.hyperparams(), cfg["algorithm"]
    states = dynamics.run(a["name"], setup.problem, setup.mmap, setup.graph, hp,
                          seed=cfg["run"]["seed"], dual=setup.dual,
                          interaction_on=a["interaction_on"], metrics_every=1, x0_rows=setup.x0)
    assert [s.step for s in states] == list(range(STEPS + 1))
    w = [after.z - ref_step(before, setup.problem, setup.mmap, setup.graph, hp, None,
                            a["interaction_on"], setup.dual).z
         for before, after in zip(states, states[1:])]
    return np.reshape(w, (STEPS, -1)), hp.dt


def test_run_increments_are_independent_gaussians_of_variance_sigma_squared_dt():
    w, dt = _increments()
    n = w.size
    var = SIGMA**2 * dt
    # mean and variance within 4 standard errors; the sample variance of N
    # Gaussians has variance 2 var^2 / N
    assert abs(w.mean()) <= 4 * math.sqrt(var / n)
    assert abs(np.mean(w**2) - var) <= 4 * var * math.sqrt(2 / n)
    # lag-1 correlation over every pair of consecutive steps, chunk
    # boundaries included, within 4 / sqrt(N) of 0
    head, tail = w[:-1], w[1:]
    corr = np.vdot(head, tail) / math.sqrt(np.vdot(head, head) * np.vdot(tail, tail))
    assert abs(corr) <= 4 / math.sqrt(head.size)
    # no step repeats another's increment
    assert len(np.unique(w, axis=0)) == STEPS

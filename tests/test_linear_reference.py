"""``dynamics.run`` against an independent integrator.

On a quadratic problem under the euclidean map, with an identity or
dual-Hessian dual map and no noise, one Euler step is affine, s -> A s + b,
on the state it carries: (z, lam), z alone for ismd, and (z, mu) for epismd.
``affine_step`` builds the augmented matrix [[A, b], [0, 1]] from the
allocating ``*_step`` entry points, b = step(0) and column j of A =
step(e_j) - b, and its k-th power, reached by repeated squaring in about
log2(k) products, maps (s_0, 1) to (s_k, 1). It is a reference only: it
shares the step kernel with ``run`` but not the loop, the in-place updates,
the stacked buffer or the record blocks.
"""

import numpy as np
import pytest

from dismd import dynamics, harness
from dismd.config import load_config
from test_kernel_reference import CONFIGS, with_values

EPOCHS = 20_000
REL_TOL = 1e-9
CARRIED = {"ismd": ("z",), "eismd": ("z", "lam"), "epismd": ("z", "mu")}


def affine_step(setup, cfg) -> np.ndarray:
    """The augmented (N + 1, N + 1) matrix of one noise-free step of ``cfg``
    on its carried state, flattened in the order of ``CARRIED``."""
    a = cfg["algorithm"]
    hp = cfg.hyperparams()
    problem, mmap, graph, dual = setup.problem, setup.mmap, setup.graph, setup.dual
    names = CARRIED[a["name"]]
    shape = (len(names), problem.n, problem.d)

    def step(s):
        parts = dict(zip(names, s.reshape(shape)))
        z, mu = parts["z"], parts.get("mu")
        lam = parts.get("lam", np.zeros(z.shape) if mu is None else dual.backward(mu))
        state = dynamics.ParticleSystem(z=z, x=mmap.backward(z), lam=lam, mu=mu, step=0, t=0.0)
        if a["name"] == "ismd":
            new = dynamics.ismd_step(state, problem, mmap, graph, hp)
        elif a["name"] == "eismd":
            new = dynamics.eismd_step(state, problem, mmap, graph, hp, None, a["interaction_on"])
        else:
            new = dynamics.epismd_step(state, problem, mmap, dual, graph, hp, None,
                                       a["interaction_on"])
        return np.concatenate([getattr(new, name).ravel() for name in names])

    size = int(np.prod(shape))
    m = np.zeros((size + 1, size + 1))
    b = step(np.zeros(size))
    for j in range(size):
        unit = np.zeros(size)
        unit[j] = 1.0
        m[:size, j] = step(unit) - b
    m[:size, size], m[size, size] = b, 1.0
    return m


def matrix_power(m: np.ndarray, k: int) -> np.ndarray:
    result = np.eye(len(m))
    while k:
        if k & 1:
            result = result @ m
        m = m @ m
        k >>= 1
    return result


@pytest.mark.parametrize("stem", ["problem_a_eismd", "problem_a_ismd", "barbell_epismd"])
def test_run_matches_the_affine_step_raised_to_the_horizon(stem):
    cfg = with_values(load_config(CONFIGS / f"{stem}.ini"),
                      {"hyperparams.epochs": EPOCHS, "hyperparams.metrics_every": EPOCHS,
                       "hyperparams.sigma": 0.0})
    setup = harness.prepare(cfg)
    a = cfg["algorithm"]
    first, last = dynamics.run(
        a["name"], setup.problem, setup.mmap, setup.graph, cfg.hyperparams(),
        seed=cfg["run"]["seed"], dual=setup.dual, interaction_on=a["interaction_on"],
        metrics_every=EPOCHS, x0_rows=setup.x0,
    )
    assert (first.step, last.step) == (0, EPOCHS)
    names = CARRIED[a["name"]]
    start = np.concatenate([getattr(first, name).ravel() for name in names] + [[1.0]])
    reference = (matrix_power(affine_step(setup, cfg), EPOCHS) @ start)[:-1]
    final = np.concatenate([getattr(last, name).ravel() for name in names])
    assert np.linalg.norm(final - reference) <= REL_TOL * np.linalg.norm(reference)

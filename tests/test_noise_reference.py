"""The expected Lyapunov function of a noisy run against its exact value.

On the desk instance under the euclidean map, one Euler-Maruyama step is
s -> A s + b + w on the carried state s, (z, lam) for eismd and z alone for
ismd, with w ~ N(0, sigma^2 dt I) on the z block (``dynamics.NoiseStream``)
and (A, b) the noise-free step of ``test_linear_reference.affine_step``. From
a shared start the state's mean m and covariance S then follow

    m <- A m + b,    S <- A S A^T + sigma^2 dt I_z,

advanced here one record (``EVERY`` steps) at a time by doubling. V is
quadratic in s with Hessian P = [[cI + H + L, L], [L, cI]] (H the block
Hessians, L the Laplacian applied blockwise; for ismd, whose lam stays
zero, the x block alone), so E[V] = V(m) + tr(P S) / 2 exactly. The batch
of ``REPLICAS`` seeded replicas must put its replica mean of the recorded V
within ``SE_BOUND`` standard errors of E[V] at every record; a reference
whose sigma is 10% off reads about 4 standard errors away on eismd.
"""

import numpy as np
import pytest

from dismd import dynamics, harness
from dismd.config import load_config
from test_kernel_reference import CONFIGS, with_values
from test_linear_reference import CARRIED, affine_step, matrix_power

SIGMA = 0.1
EPOCHS = 4000
EVERY = 100
REPLICAS = 32
SE_BOUND = 3.0


def _config(stem, sigma):
    return with_values(load_config(CONFIGS / f"{stem}.ini"),
                       {"hyperparams.epochs": EPOCHS, "hyperparams.metrics_every": EVERY,
                        "hyperparams.sigma": sigma})


def _recorded_v(setup, names, states: np.ndarray) -> np.ndarray:
    """The recorder's V at each carried state of ``states``, (B, N)."""
    problem, mmap = setup.problem, setup.mmap
    parts = states.reshape(len(states), len(names), problem.n, problem.d)
    z = parts[:, 0]
    lam = parts[:, 1] if len(names) == 2 else np.zeros_like(z)
    snaps = dynamics.ParticleSystem(z=z, x=mmap.backward(z), lam=lam, mu=None,
                                    step=np.zeros(len(z), dtype=int), t=np.zeros(len(z)))
    return np.array([rec.V for rec in setup.recorder(snaps)])


def _hessian(setup, names) -> np.ndarray:
    """P, the Hessian of V in the carried state."""
    problem, c = setup.problem, setup.recorder.c
    nd = problem.n * problem.d
    lap = np.kron(setup.graph.laplacian, np.eye(problem.d))
    hess = np.zeros((nd, nd))
    for i, block in enumerate(problem.hess_blocks()):
        hess[i * problem.d:(i + 1) * problem.d, i * problem.d:(i + 1) * problem.d] = block
    xx = c * np.eye(nd) + hess + lap
    if len(names) == 1:
        return xx
    return np.block([[xx, lap], [lap, c * np.eye(nd)]])


def _compose(first, then):
    """The (A^j, S_j) pair of ``first`` steps followed by ``then``'s."""
    a_j, s_j = first
    a_k, s_k = then
    return a_k @ a_j, a_k @ s_j @ a_k.T + s_k


def _expected_v(setup, names, aug, start, sigma, dt) -> np.ndarray:
    """E[V] at each record, from the shared ``start`` with no spread."""
    size = len(start)
    a = aug[:size, :size]
    noise = np.zeros((size, size))
    nd = setup.problem.n * setup.problem.d
    noise[:nd, :nd] = sigma**2 * dt * np.eye(nd)
    # (A^EVERY, S_EVERY) by binary powers of the one-step pair
    pair, power, k = None, (a, noise), EVERY
    while k:
        if k & 1:
            pair = power if pair is None else _compose(pair, power)
        power = _compose(power, power)
        k >>= 1
    a_rec, s_rec = pair
    aug_rec = matrix_power(aug, EVERY)
    hess = _hessian(setup, names)
    mean, cov = np.append(start, 1.0), np.zeros((size, size))
    means, traces = [], []
    for _ in range(EPOCHS // EVERY + 1):
        means.append(mean[:-1])
        traces.append(np.sum(hess * cov))
        mean = aug_rec @ mean
        cov = a_rec @ cov @ a_rec.T + s_rec
    return _recorded_v(setup, names, np.array(means)) + 0.5 * np.array(traces)


def _replica_v(setup, cfg, x0) -> np.ndarray:
    """(REPLICAS, records) of recorded V, replica r seeded r, all from ``x0``."""
    a = cfg["algorithm"]
    outcomes = dynamics.run(
        a["name"], setup.problem, setup.mmap, setup.graph, [cfg.hyperparams()] * REPLICAS,
        seed=list(range(REPLICAS)), dual=setup.dual, interaction_on=a["interaction_on"],
        metrics_every=EVERY, recorder=[setup.recorder] * REPLICAS, x0_rows=[x0] * REPLICAS,
    )
    return np.array([[rec.V for rec in records] for records in outcomes])


@pytest.mark.parametrize("stem", ["problem_a_eismd", "problem_a_ismd"])
def test_replica_mean_of_v_follows_its_exact_expectation(stem):
    cfg = _config(stem, SIGMA)
    setup = harness.prepare(cfg)
    names = CARRIED[cfg["algorithm"]["name"]]
    x0 = dynamics.default_initial_rows(setup.problem, setup.mmap, 0)

    rng = np.random.default_rng(0)
    size = len(names) * setup.problem.n * setup.problem.d
    hess = _hessian(setup, names)
    for _ in range(3):
        s, u = rng.standard_normal((2, size))
        v_plus, v_minus, v_mid = _recorded_v(setup, names, np.array([s + u, s - u, s]))
        assert v_plus + v_minus - 2 * v_mid == pytest.approx(u @ hess @ u, rel=1e-8)

    start = np.concatenate([x0.ravel(), np.zeros((len(names) - 1) * x0.size)])
    aug = affine_step(setup, _config(stem, 0.0))
    expected = _expected_v(setup, names, aug, start, SIGMA, cfg["hyperparams"]["dt"])
    v = _replica_v(setup, cfg, x0)
    assert v.shape == (REPLICAS, EPOCHS // EVERY + 1)
    assert np.all(v[:, 0] == expected[0])
    mean = v[:, 1:].mean(axis=0)
    se = v[:, 1:].std(axis=0, ddof=1) / np.sqrt(REPLICAS)
    worst = np.max(np.abs(mean - expected[1:]) / se)
    assert worst <= SE_BOUND, f"replica mean {worst:.2f} standard errors from E[V]"

"""A batch of replicas in ``dynamics.run`` against the single runs it stands for.

Each replica of a batch has its own eta, epsilon, sigma, seed and x_0, and
must give exactly the states, records and divergence of its own single run:
every array bit for bit, whatever its neighbours do, including a neighbour
that diverges and leaves the batch.
"""

import dataclasses

import numpy as np
import pytest

from dismd import dynamics, harness
from dismd.dynamics import DivergenceError, Hyperparams, run
from dismd.graphs import metropolis_weights
from dismd.mirror_maps import EuclideanMap, QuadraticMap
from dismd.objectives import DistributedProblem
from test_kernel_reference import shipped_config

# config stem -> (eta, epsilon, sigma) of each replica, around the config's own
REPLICA_CASES = {
    "problem_a_ismd": [(1.0, 1.0, 0.0), (2.0, 1.0, 0.1), (1.0, 3.0, 0.05)],
    "problem_a_eismd": [(1.0, 1.0, 0.1), (1.0, 1.0, 0.0), (0.5, 2.0, 0.2), (1.0, 1.0, 0.05)],
    "barbell_epismd": [(1.0, 1.0, 0.0), (1.5, 0.5, 0.1)],
    "problem_b_simplex": [(30.0, 15.0, 0.05), (20.0, 15.0, 0.0), (30.0, 5.0, 0.1)],
}
SEEDS = [3, 8, 5, 13]


def _setup(stem, epochs=300):
    cfg = shipped_config(stem, {"hyperparams.epochs": epochs})
    setup = harness.prepare(cfg)
    a = cfg["algorithm"]
    args = (a["name"], setup.problem, setup.mmap, setup.graph)
    kwargs = {"dual": setup.dual, "interaction_on": a["interaction_on"]}
    return cfg.hyperparams(), setup, args, kwargs


def _single(args, hp, **kwargs):
    """The outcome of one single run: its records, or its DivergenceError."""
    try:
        return run(*args, hp, **kwargs)
    except DivergenceError as exc:
        return exc


def _assert_states_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.step, a.t) == (b.step, b.t)
        for name in ("z", "x", "lam", "mu"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None)
            if x is not None:
                assert x.shape == y.shape and np.array_equal(x, y), name


def _assert_outcomes_equal(got, want, states):
    assert type(got) is type(want)
    if isinstance(want, DivergenceError):
        where = ("step", "array", "particle", "coordinate")
        assert [getattr(got, k) for k in where] == [getattr(want, k) for k in where]
        assert np.array_equal(got.value, want.value, equal_nan=True)
        got, want = got.records, want.records
    if states:
        _assert_states_equal(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("stem", sorted(REPLICA_CASES))
def test_each_replica_is_its_single_run(stem):
    base, setup, args, kwargs = _setup(stem)
    hps = [dataclasses.replace(base, eta=eta, epsilon=eps, sigma=sigma)
           for eta, eps, sigma in REPLICA_CASES[stem]]
    seeds = SEEDS[: len(hps)]
    # a record every 7 steps: 44 records, in partial blocks of snapshots
    batch = run(*args, hps, seed=seeds, metrics_every=7, **kwargs)
    recorded = run(*args, hps, seed=seeds, metrics_every=7,
                   recorder=[setup.recorder] * len(hps), **kwargs)
    for hp, seed, states, records in zip(hps, seeds, batch, recorded):
        want = run(*args, hp, seed=seed, metrics_every=7, **kwargs)
        assert len(want) == 44
        _assert_states_equal(states, want)
        assert records == setup.recorder(dynamics.Snapshots(
            z=np.stack([s.z for s in want]), x=np.stack([s.x for s in want]),
            lam=np.stack([s.lam for s in want]),
            mu=None if want[0].mu is None else np.stack([s.mu for s in want]),
            step=np.array([s.step for s in want]), t=np.array([s.t for s in want])))


def test_a_quadratic_map_batch_is_its_single_runs():
    _, setup, (name, problem, _, graph), kwargs = _setup("problem_a_eismd")
    p = np.diag(np.linspace(0.5, 2.0, problem.d)) + 0.1
    args = (name, problem, QuadraticMap(p), graph)
    hps = [Hyperparams(sigma=sigma, dt=0.01, epochs=200) for sigma in (0.1, 0.0, 0.2)]
    batch = run(*args, hps, seed=[1, 2, 3], metrics_every=9, **kwargs)
    for hp, seed, states in zip(hps, [1, 2, 3], batch):
        _assert_states_equal(states, run(*args, hp, seed=seed, metrics_every=9, **kwargs))


# (eta of each replica, seeds): 1e5 diverges at step 54, 3e3 at 122 and 400
# at 1011 on their own; the rest complete 2,000 steps
DIVERGENCE_CASES = {
    "one-of-four": ([1.0, 1e5, 3.0, 0.5], [1, 2, 3, 4]),
    "down-to-one": ([1e5, 1.0], [1, 2]),
    "one-after-another": ([3e3, 1.0, 400.0, 1e5, 2.0], [1, 2, 3, 4, 5]),
    "all-of-them": ([1e5, 3e3, 1e5], [1, 2, 3]),
}


@pytest.mark.parametrize("case", sorted(DIVERGENCE_CASES))
@pytest.mark.parametrize("recorded", [False, True], ids=["states", "records"])
def test_a_diverged_replica_leaves_the_others_as_they_were(case, recorded):
    base, setup, args, kwargs = _setup("problem_a_eismd", epochs=2000)
    etas, seeds = DIVERGENCE_CASES[case]
    hps = [dataclasses.replace(base, eta=eta, sigma=0.05 * (i % 2)) for i, eta in enumerate(etas)]
    recorder = setup.recorder if recorded else None
    outcomes = run(*args, hps, seed=seeds, metrics_every=10,
                   recorder=[recorder] * len(hps), **kwargs)
    diverged = [isinstance(o, DivergenceError) for o in outcomes]
    assert diverged == [eta >= 400.0 for eta in etas]
    for hp, seed, got in zip(hps, seeds, outcomes):
        want = _single(args, hp, seed=seed, metrics_every=10, recorder=recorder, **kwargs)
        _assert_outcomes_equal(got, want, states=not recorded)


def test_divergences_at_the_same_step_each_name_their_replica():
    base, _, args, kwargs = _setup("problem_a_eismd")
    hps = [dataclasses.replace(base, eta=1e5)] * 2 + [base]
    outcomes = run(*args, hps, seed=[1, 2, 3], metrics_every=10, **kwargs)
    for hp, seed, got in zip(hps, [1, 2, 3], outcomes):
        _assert_outcomes_equal(got, _single(args, hp, seed=seed, metrics_every=10, **kwargs),
                               states=True)
    assert outcomes[0].step == outcomes[1].step
    assert outcomes[0].records is not outcomes[1].records


def test_a_noise_free_replica_keeps_negative_zeros():
    # zero targets and x_0 = -0.0: every drift is +0.0, so z stays -0.0, which
    # adding +0.0 noise would turn into +0.0
    prob = DistributedProblem(q=np.ones((3, 1, 2)), b=np.zeros((3, 1)), domain="unconstrained")
    graph = metropolis_weights(((0, 1), (1, 2)), 3)
    mmap = EuclideanMap(2)
    x0 = np.full((3, 2), -0.0)
    hps = [Hyperparams(sigma=0.0, dt=0.01, epochs=20), Hyperparams(sigma=0.3, dt=0.01, epochs=20)]
    quiet, noisy = run("ismd", prob, mmap, graph, hps, seed=[0, 1], x0_rows=[x0, x0],
                       metrics_every=1)
    assert all(np.all(np.signbit(s.z)) and np.all(s.z == 0.0) for s in quiet)
    assert not np.all(noisy[-1].z == 0.0)
    _assert_states_equal(quiet, run("ismd", prob, mmap, graph, hps[0], seed=0, x0_rows=x0,
                                    metrics_every=1))


def test_the_block_budget_covers_every_replica():
    base, setup, args, kwargs = _setup("problem_a_eismd", epochs=600)
    n, d = setup.problem.n, setup.problem.d
    sizes = []

    def recorder(snaps):
        assert snaps.z.flags.c_contiguous and snaps.x.flags.c_contiguous
        sizes.append(len(snaps))
        return setup.recorder(snaps)

    hps = [dataclasses.replace(base, sigma=s) for s in (0.0, 0.1, 0.2, 0.3)]
    run(*args, hps, seed=[0, 1, 2, 3], metrics_every=1, recorder=[recorder] * 4, **kwargs)
    assert max(sizes) == dynamics._BLOCK_BYTES // (4 * n * d * 8)
    assert sum(sizes) == 4 * 601


def test_a_batch_rejects_replicas_it_cannot_share():
    base, _, args, kwargs = _setup("problem_a_eismd")
    with pytest.raises(ValueError, match="share dt and epochs"):
        run(*args, [base, dataclasses.replace(base, dt=0.02)], seed=[0, 1], **kwargs)
    with pytest.raises(ValueError, match="share dt and epochs"):
        run(*args, [base, dataclasses.replace(base, epochs=10)], seed=[0, 1], **kwargs)
    with pytest.raises(ValueError, match="one seed"):
        run(*args, [base, base], seed=[0], **kwargs)
    with pytest.raises(ValueError, match="at least one replica"):
        run(*args, [], seed=[], **kwargs)

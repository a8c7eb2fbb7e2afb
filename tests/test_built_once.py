"""Set-up builds each object once.

The graph eigendecomposes its Laplacian once, when it is built, and every
spectrum of a run reads that decomposition; ``graph-info --out`` builds its
problem and graph once for the report and the matrices; ``oracle`` builds
no spectra, which it would not read; and every batch, a single run
included, steps with one ``ReplicaRates`` record, whose rates are floats
when its replicas share them.
"""

import numpy as np
import pytest

from dismd import cli, dynamics, harness
from dismd.config import load_config
from dismd.dynamics import Hyperparams, ReplicaRates
from test_kernel_reference import CONFIGS, shipped_config

SHIPPED = ("problem_a_eismd", "problem_a_ismd", "barbell_epismd", "problem_b_simplex")


@pytest.mark.parametrize("stem", SHIPPED)
def test_prepare_eigendecomposes_the_laplacian_once(monkeypatch, stem):
    inputs, eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        inputs.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    setup = harness.prepare(shipped_config(stem, {}))
    # Lanczos' tridiagonal eigenproblems of the dual map are not the Laplacian
    assert sum(np.array_equal(a, setup.graph.laplacian) for a in inputs) == 1


def test_graph_info_builds_its_problem_once_for_report_and_matrices(tmp_path, monkeypatch,
                                                                    capsys):
    configs, generate = [], harness.generate_problem

    def recording(config):
        configs.append(config)
        return generate(config)

    monkeypatch.setattr(harness, "generate_problem", recording)
    argv = ["graph-info", "--config", str(CONFIGS / "barbell_epismd.ini"), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert len(configs) == 1
    assert capsys.readouterr().out.startswith("nodes: 10\nedges: 21\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adjacency.csv", "laplacian.csv"]


@pytest.mark.parametrize("stem", SHIPPED)
def test_the_oracle_builds_no_spectra(monkeypatch, stem):
    calls, build = [], harness.spectra

    def recording(graph, beta):
        calls.append(beta)
        return build(graph, beta)

    monkeypatch.setattr(harness, "spectra", recording)
    assert harness.oracle_report(load_config(CONFIGS / f"{stem}.ini")).startswith("f_star: ")
    assert calls == []


def test_replica_rates_are_floats_when_shared_and_arrays_when_not():
    hps = [Hyperparams(eta=2.0, epsilon=1.0, sigma=0.1, dt=0.01),
           Hyperparams(eta=2.0, epsilon=3.0, sigma=0.0, dt=0.01)]
    rates = ReplicaRates.of(hps)
    assert (rates.eta, rates.sigma, rates.dt) == (2.0, 0.1, 0.01)
    assert all(type(v) is float for v in (rates.eta, rates.sigma, rates.dt))
    assert rates.epsilon.shape == (2, 1, 1) and rates.epsilon.ravel().tolist() == [1.0, 3.0]
    apart = ReplicaRates.of([hps[0], Hyperparams(eta=1.0, epsilon=2.0, dt=0.02)])
    for got, want in ((apart.eta, [2.0, 1.0]), (apart.epsilon, [1.0, 2.0]),
                      (apart.dt, [0.01, 0.02])):
        assert got.shape == (2, 1, 1) and got.ravel().tolist() == want
    one = ReplicaRates.of(hps[1:])
    assert [type(getattr(one, k)) for k in ("eta", "epsilon", "sigma", "dt")] == [float] * 4


def test_a_single_run_steps_with_its_replica_rates(monkeypatch):
    seen, entry = [], dynamics.eismd_step

    def recording(state, problem, mmap, graph, hp, *args, **kwargs):
        seen.append(hp)
        return entry(state, problem, mmap, graph, hp, *args, **kwargs)

    monkeypatch.setattr(dynamics, "eismd_step", recording)
    setup = harness.prepare(shipped_config("problem_a_eismd", {}))
    hp = Hyperparams(eta=2.0, epsilon=0.5, sigma=0.1, dt=0.02, epochs=3)
    dynamics.run("eismd", setup.problem, setup.mmap, setup.graph, hp, seed=0)
    assert len(seen) == 3 and all(rates is seen[0] for rates in seen)
    assert seen[0] == ReplicaRates(eta=2.0, epsilon=0.5, sigma=0.1, dt=0.02)

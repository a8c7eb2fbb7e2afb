"""Set-up builds each object once.

The graph eigendecomposes its Laplacian once, when it is built, and every
spectrum of a run reads that decomposition; the problem decomposes its block
Hessians once, for the constants and the dual map alike; a spectrum's
kappa_beta is computed when it is first read, so the dual map's spectrum
runs no eigvalsh; ``prepare`` passes no matrix to an eigendecomposition
twice; ``graph-info --out`` builds its problem and graph once for the
report and the matrices; ``oracle`` builds no spectra, which it would not
read; and every batch, a single run included, steps with one
``ReplicaRates`` record, whose rates are floats when its replicas share them.
"""

import importlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dismd import cli, dynamics, harness, mirror_maps
from dismd.config import load_config
from dismd.dynamics import Hyperparams, ReplicaRates
from dismd.graphs import Topology, build_graph, spectra
from dismd.objectives import GeneratorConfig, generate_problem
from test_kernel_reference import CONFIGS, shipped_config

SHIPPED = ("problem_a_eismd", "problem_a_ismd", "barbell_epismd", "problem_b_simplex")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LADDER = "setup-ladder40"
# eigendecompositions in one prepare, the dual map's Lanczos run aside
DECOMPOSITIONS = {"problem_a_eismd": 5, "problem_a_ismd": 5, "barbell_epismd": 5,
                  "problem_b_simplex": 4, LADDER: 5}


def _recorded_decompositions(monkeypatch) -> list:
    """The (shape, bytes) of each matrix later passed to np.linalg.eigh or
    eigvalsh, except inside the dual map's Lanczos run, whose small
    tridiagonal matrices are its own."""
    inputs, lanczos, inside = [], mirror_maps._lanczos_max, []

    def recording(decompose):
        def recorded(a, *args, **kwargs):
            if not inside:
                inputs.append((np.shape(a), np.asarray(a).tobytes()))
            return decompose(a, *args, **kwargs)
        return recorded

    def lanczos_run(apply, shape):
        inside.append(shape)
        try:
            return lanczos(apply, shape)
        finally:
            inside.pop()

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    monkeypatch.setattr(mirror_maps, "_lanczos_max", lanczos_run)
    return inputs


def _config(stem, tmp_path, monkeypatch):
    """A shipped config, or the benchmark's setup-ladder40 config."""
    if stem != LADDER:
        return load_config(CONFIGS / f"{stem}.ini")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS[LADDER]
    [text] = workload.config_texts(0, workload.epochs, None).values()
    (tmp_path / "ladder.ini").write_text(text)
    return load_config(tmp_path / "ladder.ini")


@pytest.mark.parametrize("stem", DECOMPOSITIONS)
def test_prepare_decomposes_no_matrix_twice(tmp_path, monkeypatch, stem):
    cfg = _config(stem, tmp_path, monkeypatch)
    inputs = _recorded_decompositions(monkeypatch)
    harness.prepare(cfg)
    assert len(set(inputs)) == len(inputs) == DECOMPOSITIONS[stem]


def test_a_spectrum_computes_kappa_beta_on_its_first_read_only(monkeypatch):
    graph = build_graph(Topology("barbell", 10, cluster=5))
    inputs = _recorded_decompositions(monkeypatch)
    spec = spectra(graph, 0.01)
    assert inputs == []
    first = spec.kappa_beta
    assert spec.kappa_beta == first
    assert inputs == [((10, 10), spec.lap_beta.tobytes())]
    assert first == float(np.max(np.linalg.eigvalsh(spec.lap_beta))) ** 2


def test_a_spectrum_holds_none_of_the_graphs_arrays():
    graph = build_graph(Topology("barbell", 10, cluster=5))
    spec = spectra(graph, 1.0)
    held = [getattr(spec, f.name) for f in fields(spec)]
    own = (graph.adjacency, graph.laplacian, graph.eigenvalues, graph.lap_pinv)
    assert not any(isinstance(a, np.ndarray) and np.shares_memory(a, b)
                   for a in held for b in own)


def test_the_block_eigenvalues_are_one_cached_read_only_array(monkeypatch):
    problem = generate_problem(GeneratorConfig(seed=3, d=4, m=5, n=6, condition_number=8.0))
    inputs = _recorded_decompositions(monkeypatch)
    eigs = problem.hess_eigenvalues()
    assert problem.hess_eigenvalues() is eigs and len(inputs) == 1
    assert eigs.shape == (6, 4) and not eigs.flags.writeable
    assert np.array_equal(eigs, np.linalg.eigvalsh(problem.hess_blocks()))


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

import numpy as np
import pytest

from dismd.graphs import (
    GraphError,
    Topology,
    WeightedGraph,
    build_graph,
    build_topology,
    metropolis_weights,
    spectra,
)


def test_cyclic_three_is_triangle():
    edges = build_topology(Topology("cyclic", 3))
    assert sorted(edges) == [(0, 1), (1, 2), (2, 0)] or set(map(frozenset, edges)) == {
        frozenset({0, 1}),
        frozenset({1, 2}),
        frozenset({0, 2}),
    }


def test_cyclic_single_node_has_no_edges():
    assert build_topology(Topology("cyclic", 1)) == ()


def test_cyclic_two_nodes_single_edge():
    assert build_topology(Topology("cyclic", 2)) == ((0, 1),)


def test_barbell_edge_count():
    # two K5 cliques plus one bridge: 2 * C(5,2) + 1 = 21
    edges = build_topology(Topology("barbell", 10, cluster=5))
    assert len(edges) == 21
    assert len(set(edges)) == 21


def test_barbell_shape_validation():
    with pytest.raises(GraphError):
        Topology("barbell", 10, cluster=4)


def test_erdos_renyi_connected_and_deterministic():
    top = Topology("erdos_renyi", 12, p=0.3, seed=4)
    edges = build_topology(top)
    assert edges == build_topology(top)
    g = metropolis_weights(edges, 12)
    s = spectra(g, 1.0)
    assert s.algebraic_connectivity > 0


def test_erdos_renyi_requires_probability():
    with pytest.raises(GraphError):
        Topology("erdos_renyi", 5)
    with pytest.raises(GraphError):
        Topology("erdos_renyi", 5, p=1.5)


def test_metropolis_triangle_weights_and_spectrum():
    g = build_graph(Topology("cyclic", 3))
    assert np.allclose(g.adjacency, np.full((3, 3), 1.0 / 3.0), atol=1e-15)
    # independent dense eigensolver oracle on L = I - A
    eigs = np.linalg.eigvalsh(np.eye(3) - g.adjacency)
    assert np.allclose(np.sort(eigs), [0.0, 1.0, 1.0], atol=1e-12)
    assert np.allclose(g.laplacian, np.eye(3) - g.adjacency, atol=1e-15)


def test_metropolis_single_node():
    g = metropolis_weights((), 1)
    assert g.adjacency == pytest.approx(np.array([[1.0]]))
    assert g.laplacian == pytest.approx(np.array([[0.0]]))


def test_metropolis_path_of_two():
    g = metropolis_weights(((0, 1),), 2)
    assert np.allclose(g.adjacency, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-15)
    # analytic 2x2 eigendecomposition: L = [[.5,-.5],[-.5,.5]] has eigenvalues {0, 1}
    assert np.allclose(np.sort(np.linalg.eigvalsh(g.laplacian)), [0.0, 1.0], atol=1e-12)


def test_doubly_stochastic_and_psd_invariants():
    rng = np.random.default_rng(3)
    for trial in range(25):
        n = int(rng.integers(1, 9))
        kind = rng.choice(["cyclic", "erdos_renyi", "barbell"])
        if kind == "barbell":
            n = 2 * max(1, n // 2)
            top = Topology("barbell", n, cluster=n // 2, seed=trial)
        elif kind == "erdos_renyi":
            top = Topology("erdos_renyi", n, p=0.6, seed=trial)
        else:
            top = Topology("cyclic", n)
        g = build_graph(top)
        assert np.max(np.abs(g.adjacency.sum(axis=0) - 1.0)) <= 1e-12
        assert np.max(np.abs(g.adjacency.sum(axis=1) - 1.0)) <= 1e-12
        assert np.allclose(g.adjacency, g.adjacency.T, atol=1e-15)
        assert np.min(g.adjacency) >= 0.0
        assert np.max(np.abs(g.laplacian @ np.ones(n))) <= 1e-12
        eigs = np.linalg.eigvalsh(g.laplacian)
        assert eigs[0] >= -1e-12
        if n > 1:
            assert eigs[1] > 1e-10  # connectivity: zero eigenvalue is simple


def test_spectra_triangle_beta_one_is_identity():
    g = build_graph(Topology("cyclic", 3))
    s = spectra(g, 1.0)
    assert np.allclose(s.lap_beta, np.eye(3), atol=1e-12)
    assert s.kappa_beta == pytest.approx(1.0, abs=1e-12)
    assert s.kappa_n == pytest.approx(1.0, abs=1e-12)


def test_spectra_single_node():
    g = metropolis_weights((), 1)
    s = spectra(g, 0.7)
    assert s.kappa_n == 0.0
    assert s.kappa_beta == pytest.approx(0.49, abs=1e-14)
    assert np.allclose(g.lap_pinv, np.zeros((1, 1)))


def test_spectra_requires_positive_beta():
    g = build_graph(Topology("cyclic", 3))
    with pytest.raises(GraphError):
        spectra(g, 0.0)


def test_pseudo_inverse_identities():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 9))
        g = build_graph(Topology("erdos_renyi", n, p=0.7, seed=trial))
        beta = float(rng.uniform(0.05, 4.0))
        s = spectra(g, beta)
        lap = g.laplacian
        assert np.max(np.abs(lap @ g.lap_pinv @ lap - lap)) <= 1e-10
        assert np.max(np.abs(g.lap_pinv @ lap @ g.lap_pinv - g.lap_pinv)) <= 1e-10
        # regularized-inverse identity against a direct dense inverse
        assert np.max(np.abs(np.linalg.inv(s.lap_beta) - s.lap_beta_inv)) <= 1e-8


def test_laplacian_rayleigh_lower_bound():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        g = build_graph(Topology("cyclic", n))
        beta = float(rng.uniform(0.1, 5.0))
        s = spectra(g, beta)
        x = rng.standard_normal((n, d))
        lx = g.laplacian @ x
        assert float(np.vdot(x, lx)) >= float(np.vdot(lx, lx)) / s.kappa_beta - 1e-9


def test_from_adjacency_rejects_bad_matrices():
    with pytest.raises(GraphError):
        WeightedGraph.from_adjacency(np.array([[0.5, 0.5], [0.4, 0.6]]))  # not symmetric
    with pytest.raises(GraphError):
        WeightedGraph.from_adjacency(np.array([[0.9, 0.0], [0.0, 0.9]]))  # rows != 1
    with pytest.raises(GraphError):
        # doubly stochastic but disconnected support
        WeightedGraph.from_adjacency(np.eye(2))


def test_disconnected_erdos_renyi_errors_after_retries():
    with pytest.raises(GraphError):
        build_topology(Topology("erdos_renyi", 40, p=0.001, seed=0))

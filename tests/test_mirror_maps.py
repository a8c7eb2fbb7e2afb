import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dismd import harness, mirror_maps
from dismd.config import load_config
from dismd.graphs import Topology, build_graph, spectra
from dismd.mirror_maps import (
    EntropyMap,
    EuclideanMap,
    IdentityDual,
    QuadraticMap,
    RegularizedDualHessian,
    make_mirror_map,
)
from dismd.objectives import DistributedProblem, GeneratorConfig, generate_problem


def _random_point(map_kind, d, rng):
    if map_kind == "entropy":
        return rng.dirichlet(np.ones(d))
    return rng.standard_normal(d)


def _all_maps(d, rng):
    p = rng.standard_normal((d, d))
    p = p @ p.T + d * np.eye(d)
    return [EuclideanMap(d), EntropyMap(d), QuadraticMap(p)]


def test_forward_euclidean_identity():
    m = EuclideanMap(2)
    assert m.forward(np.array([1.0, 2.0])) == pytest.approx([1.0, 2.0])


def test_forward_entropy_matches_one_plus_log():
    m = EntropyMap(2)
    z = m.forward(np.array([0.5, 0.5]))
    assert z == pytest.approx([1.0 + math.log(0.5)] * 2, abs=1e-15)


def test_forward_quadratic_diagonal():
    m = QuadraticMap(np.diag([2.0, 3.0]))
    assert m.forward(np.array([1.0, 1.0])) == pytest.approx([2.0, 3.0])


def test_forward_entropy_rejects_boundary():
    m = EntropyMap(2)
    with pytest.raises(ValueError):
        m.forward(np.array([0.0, 1.0]))


def test_backward_entropy_constant_shift_is_uniform():
    m = EntropyMap(2)
    for c in (-3.0, 0.0, 11.5):
        assert m.backward(np.array([c, c])) == pytest.approx([0.5, 0.5], abs=1e-15)


def test_backward_euclidean():
    m = EuclideanMap(2)
    assert m.backward(np.array([3.0, -1.0])) == pytest.approx([3.0, -1.0])


def test_backward_entropy_round_trip_point():
    m = EntropyMap(2)
    z = np.array([1.0 + math.log(0.2), 1.0 + math.log(0.8)])
    assert m.backward(z) == pytest.approx([0.2, 0.8], abs=1e-12)


def test_backward_entropy_overflow_safe():
    m = EntropyMap(3)
    x = m.backward(np.array([1e4, 1e4 - 5.0, -1e4]))
    assert np.isfinite(x).all() and x.sum() == pytest.approx(1.0)


def test_bregman_at_same_point_is_zero():
    rng = np.random.default_rng(0)
    for m in _all_maps(3, rng):
        x = _random_point(m.kind, 3, rng)
        assert float(m.bregman(x, x)) == pytest.approx(0.0, abs=1e-14)


def test_bregman_euclidean_half_squared_distance():
    m = EuclideanMap(2)
    assert float(m.bregman(np.array([1.0, 0.0]), np.zeros(2))) == pytest.approx(0.5)


def test_bregman_entropy_is_kl():
    m = EntropyMap(2)
    got = float(m.bregman(np.array([0.3, 0.7]), np.array([0.5, 0.5])))
    # independent oracle: direct KL formula
    want = 0.3 * math.log(0.6) + 0.7 * math.log(1.4)
    assert got == pytest.approx(want, abs=1e-14)


def test_bregman_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(1)
    for m in _all_maps(4, rng):
        for _ in range(50):
            x = _random_point(m.kind, 4, rng)
            y = _random_point(m.kind, 4, rng)
            b = float(m.bregman(x, y))
            assert b >= -1e-12
            if np.max(np.abs(x - y)) > 1e-6:
                assert b > 0.0
        x = _random_point(m.kind, 4, rng)
        assert abs(float(m.bregman(x, x.copy()))) <= 1e-12


def test_hessian_conj_euclidean_identity():
    m = EuclideanMap(3)
    v = np.array([1.0, -2.0, 0.5])
    assert m.hess_conj_apply(np.zeros(3), v) == pytest.approx(v)


def test_hessian_conj_quadratic_diagonal_inverse():
    m = QuadraticMap(np.diag([2.0, 4.0]))
    assert m.hess_conj_apply(np.zeros(2), np.array([2.0, 4.0])) == pytest.approx([1.0, 1.0])


def test_hessian_conj_entropy_uniform_hand_value():
    m = EntropyMap(2)
    z = m.forward(np.array([0.5, 0.5]))
    # hand oracle: (diag(x) - x x^T) v at x = (1/2, 1/2), v = (1, -1)
    assert m.hess_conj_apply(z, np.array([1.0, -1.0])) == pytest.approx([0.5, -0.5], abs=1e-14)


def test_hessian_conj_apply_matches_finite_differences():
    # central differences of backward along v, on a d-vector and on the
    # (n, 1, d) points x (n, d, d) identity rows broadcast that builds the
    # dense per-particle blocks
    rng = np.random.default_rng(2)
    h = 1e-5
    for m in _all_maps(4, rng):
        z = m.forward(_random_point(m.kind, 4, rng))
        v = rng.standard_normal(4)
        fd = (m.backward(z + h * v) - m.backward(z - h * v)) / (2 * h)
        assert np.allclose(m.hess_conj_apply(z, v), fd, rtol=0.0, atol=1e-9)

        rows = m.forward(np.stack([_random_point(m.kind, 4, rng) for _ in range(3)]))
        eye = np.broadcast_to(np.eye(4), (3, 4, 4))
        blocks = m.hess_conj_apply(rows[:, None, :], eye)
        assert blocks.shape == (3, 4, 4)
        for i, z_i in enumerate(rows):
            fd = (m.backward(z_i + h * np.eye(4)) - m.backward(z_i - h * np.eye(4))) / (2 * h)
            assert np.allclose(blocks[i], fd, rtol=0.0, atol=1e-9)
            assert np.allclose(blocks[i], blocks[i].T, rtol=0.0, atol=1e-15)


def test_round_trip_forward_backward():
    rng = np.random.default_rng(3)
    for m in _all_maps(5, rng):
        for _ in range(40):
            x = _random_point(m.kind, 5, rng)
            assert np.max(np.abs(m.backward(m.forward(x)) - x)) <= 1e-10


def test_triangle_property():
    rng = np.random.default_rng(5)
    for m in _all_maps(3, rng):
        for _ in range(40):
            x = _random_point(m.kind, 3, rng)
            y = _random_point(m.kind, 3, rng)
            w = _random_point(m.kind, 3, rng)
            lhs = float((x - y) @ (m.forward(w) - m.forward(y)))
            rhs = float(m.bregman(x, y) + m.bregman(y, w) - m.bregman(x, w))
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    h = 1e-6
    for m in _all_maps(4, rng):
        x = _random_point(m.kind, 4, rng)
        if m.kind == "entropy":
            x = 0.5 * x + 0.125  # keep x +- h inside the positive orthant
        g = m.forward(x)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (float(m.value(x + e)) - float(m.value(x - e))) / (2 * h)
            assert fd == pytest.approx(float(g[j]), rel=1e-5, abs=1e-7)


def test_rowwise_broadcasting():
    rng = np.random.default_rng(7)
    for m in _all_maps(3, rng):
        rows = np.stack([_random_point(m.kind, 3, rng) for _ in range(5)])
        z = m.forward(rows)
        assert z.shape == (5, 3)
        assert np.allclose(m.backward(z), rows, atol=1e-10)
        b = m.bregman(rows, rows)
        assert b.shape == (5,)


def test_make_mirror_map_validation():
    with pytest.raises(ValueError):
        make_mirror_map("quadratic", 3)
    with pytest.raises(ValueError):
        make_mirror_map("quadratic", 3, np.eye(2))
    with pytest.raises(ValueError):
        QuadraticMap(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        make_mirror_map("unknown", 2)


def test_quadratic_constants_are_eigenvalue_extremes():
    p = np.diag([2.0, 5.0])
    m = QuadraticMap(p)
    assert m.mu == pytest.approx(2.0)
    assert m.lip == pytest.approx(5.0)


def test_identity_dual_roundtrip_and_bregman():
    dual = IdentityDual()
    lam = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(dual.backward(lam), lam)
    assert dual.bregman(lam, np.zeros_like(lam)) == pytest.approx(0.5 * np.sum(lam**2))


def _dual_setup(seed=0, n=4, d=2, beta=0.7):
    prob = generate_problem(GeneratorConfig(seed=seed, d=d, m=d + 1, n=n, condition_number=4.0))
    graph = build_graph(Topology("cyclic", n))
    spec = spectra(graph, beta)
    return prob, graph, spec, RegularizedDualHessian(spec, prob)


def test_dual_precond_zero_maps_to_zero():
    _, _, _, dual = _dual_setup()
    assert np.max(np.abs(dual.backward(np.zeros((4, 2))))) == 0.0


def test_dual_precond_matches_dense_oracle():
    prob, graph, spec, dual = _dual_setup()
    rng = np.random.default_rng(8)
    n, d = 4, 2
    # dense assembly oracle: L_beta^{-1} (d^2 f) L_beta^{-1}
    lbi = np.kron(np.linalg.inv(spec.lap_beta), np.eye(d))
    hf = np.zeros((n * d, n * d))
    for i, h in enumerate(prob.hess_blocks()):
        hf[i * d:(i + 1) * d, i * d:(i + 1) * d] = h
    dense = lbi @ hf @ lbi
    for _ in range(10):
        mu = rng.standard_normal((n, d))
        assert np.max(np.abs(dual.backward(mu).ravel() - dense @ mu.ravel())) <= 1e-10


@pytest.mark.parametrize("shape", [(40, 40), (3, 40, 40)])
def test_dual_precond_backward_into_its_buffers_allocates_nothing_and_keeps_the_bits(shape):
    # the integration loop passes out= and work=; the allocating form is the reference
    prob = generate_problem(GeneratorConfig(seed=11, d=40, m=40, n=40, condition_number=15.0))
    dual = RegularizedDualHessian(spectra(build_graph(Topology("cyclic", 40)), 0.5), prob)
    mu = np.random.default_rng(10).standard_normal(shape)
    out, work = np.empty(shape), np.empty(shape)
    dual.backward(mu, out=out, work=work)  # numpy's first call may cache
    tracemalloc.start()
    try:
        lam = dual.backward(mu, out=out, work=work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lam is out
    assert peak < 8 * 40 * 40 / 2
    assert lam.tobytes() == dual.backward(mu).tobytes()


def test_dual_precond_forward_backward_inverse():
    prob, _, spec, dual = _dual_setup()
    rng = np.random.default_rng(9)
    lam = rng.standard_normal((4, 2))
    # psi's gradient L_beta H^{-1} L_beta, assembled row by row
    hess = prob.hess_blocks()
    mu = spec.lap_beta @ np.einsum("nij,nj->ni", np.linalg.inv(hess), spec.lap_beta @ lam)
    assert np.allclose(dual.backward(mu), lam, atol=1e-8)
    # the rows path agrees with the sandwich assembled row by row
    rows = dual.backward(lam)
    assert rows.shape == (4, 2)
    assembled = spec.lap_beta_inv @ np.einsum("nij,nj->ni", hess, spec.lap_beta_inv @ lam)
    assert np.max(np.abs(assembled - rows)) <= 1e-14 * np.max(np.abs(rows))


def test_dual_precond_conj_hessian_positive_definite():
    prob, _, spec, dual = _dual_setup()
    eigs = np.linalg.eigvalsh(_dense_sandwich(spec.lap_beta_inv, prob.hess_blocks()))
    assert eigs[0] > 0
    assert dual.mu == pytest.approx(1.0 / eigs[-1])


def test_dual_precond_bregman_quadratic_form():
    prob, graph, spec, dual = _dual_setup()
    rng = np.random.default_rng(10)
    a = rng.standard_normal((4, 2))
    b = rng.standard_normal((4, 2))
    dense_psi = np.linalg.inv(_dense_sandwich(spec.lap_beta_inv, prob.hess_blocks()))
    diff = (a - b).ravel()
    assert dual.bregman(a, b) == pytest.approx(0.5 * diff @ dense_psi @ diff, rel=1e-9)


# The dual map's constant against an independent reference: the operator
# built densely with kron and solved with a full eigvalsh. mu_psi is
# 1/lambda_max of the conjugate Hessian L_beta^{-1} H L_beta^{-1}.
MU_RTOL = 1e-13


def _dense_sandwich(outer, blocks):
    """(outer kron I_d) blockdiag(blocks) (outer kron I_d) as a dense matrix."""
    n, d = blocks.shape[:2]
    wide = np.kron(outer, np.eye(d))
    middle = np.zeros((n * d, n * d))
    for i, block in enumerate(blocks):
        middle[i * d:(i + 1) * d, i * d:(i + 1) * d] = block
    return wide @ middle @ wide


def _dense_conj_max(spec, hess):
    """lambda_max of the conjugate Hessian."""
    return float(np.linalg.eigvalsh(_dense_sandwich(spec.lap_beta_inv, hess))[-1])


def _assert_dual_constants(spec, problem):
    dual = RegularizedDualHessian(spec, problem)
    conj = _dense_conj_max(spec, problem.hess_blocks())
    assert abs(1.0 / dual.mu - conj) <= MU_RTOL * conj


def test_dual_constants_match_dense_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 8),
        d=st.integers(1, 8),
        extra_m=st.integers(0, 8),
        cond=st.floats(1.0, 1e3),
        beta=st.floats(1e-3, 1.0),
        complete=st.booleans(),
    )
    @hypothesis.settings(max_examples=200, deadline=None)
    def agrees(seed, n, d, extra_m, cond, beta, complete):
        m = d + extra_m  # m >= d keeps every block Hessian definite
        if min(m, d) < 2:
            cond = 1.0
        prob = generate_problem(GeneratorConfig(seed=seed, d=d, m=m, n=n, condition_number=cond))
        topology = Topology("erdos_renyi", n, p=1.0) if complete else Topology("cyclic", n)
        spec = spectra(build_graph(topology), beta)
        _assert_dual_constants(spec, prob)

    agrees()


def test_dual_constants_match_dense_reference_on_shipped_barbell():
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "barbell_epismd.ini")
    problem = harness.build_problem(cfg)
    graph = harness.build_weighted_graph(cfg, problem.n)
    spec = spectra(graph, cfg["algorithm"]["dual_beta"])
    _assert_dual_constants(spec, problem)


def test_dual_constants_build_runs_lanczos_once(monkeypatch):
    # mu_psi is the one dual constant a run reads, so set-up runs one Lanczos
    lanczos = mirror_maps._lanczos_max
    shapes = []

    def counted(apply, shape):
        shapes.append(shape)
        return lanczos(apply, shape)

    monkeypatch.setattr(mirror_maps, "_lanczos_max", counted)
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "barbell_epismd.ini")
    setup = harness.prepare(cfg)
    assert isinstance(setup.dual, RegularizedDualHessian)
    assert shapes == [(setup.problem.n, setup.problem.d)]


def test_dual_constant_does_not_depend_on_the_lanczos_basis_chunk(monkeypatch):
    # the basis grows by LANCZOS_CHUNK rows at a time; at 4, a run of more
    # than 8 steps grows it at least twice, and since the basis rows and
    # every product are those of the default chunk, mu is the same bit for bit
    prob = generate_problem(GeneratorConfig(seed=11, d=6, m=6, n=8, condition_number=15.0))
    spec = spectra(build_graph(Topology("barbell", 8, cluster=4)), 0.01)
    lanczos, steps = mirror_maps._lanczos_max, []

    def counted(apply, shape):
        def counted_apply(v):
            steps.append(1)
            return apply(v)
        return lanczos(counted_apply, shape)

    monkeypatch.setattr(mirror_maps, "_lanczos_max", counted)
    default = RegularizedDualHessian(spec, prob).mu
    assert len(steps) > 8
    monkeypatch.setattr(mirror_maps, "LANCZOS_CHUNK", 4)
    assert RegularizedDualHessian(spec, prob).mu == default


def test_dual_constants_match_dense_reference_with_repeated_eigenvalues():
    # identical blocks on a complete graph: the conjugate Hessian is
    # L_beta^{-2} kron H with 2 * d distinct eigenvalues among n * d
    n, d = 6, 3
    rng = np.random.default_rng(4)
    q = rng.standard_normal((d + 2, d))
    problem = DistributedProblem(np.repeat(q[None], n, axis=0), np.zeros((n, d + 2)),
                                 "unconstrained")
    spec = spectra(build_graph(Topology("erdos_renyi", n, p=1.0)), 0.05)
    _assert_dual_constants(spec, problem)


def test_dual_constants_match_dense_reference_for_one_coordinate():
    spec = spectra(build_graph(Topology("cyclic", 1)), 0.3)
    # one block, H = 1.5^2 + 0.5^2 = 2.5
    problem = DistributedProblem(np.array([[[1.5], [0.5]]]), np.zeros((1, 2)), "unconstrained")
    _assert_dual_constants(spec, problem)


def test_dual_constants_build_no_dense_operator():
    # one dense (n*d)^2 matrix at n = d = 40 takes 20.5 MB; the Lanczos
    # basis and its tridiagonal matrix need a fraction of that
    n = d = 40
    prob = generate_problem(GeneratorConfig(seed=11, d=d, m=d, n=n, condition_number=15.0))
    spec = spectra(build_graph(Topology("barbell", n, cluster=n // 2)), 0.01)
    dual = RegularizedDualHessian(spec, prob)
    assert not hasattr(dual, "conj_hessian_dense")
    tracemalloc.start()
    try:
        assert dual.mu > 0.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (n * d) ** 2 * 8 / 2


@pytest.mark.parametrize("n, d", [(8, 5), (40, 40)])
def test_dual_precond_blocks_match_per_block_loop(n, d):
    # the batched inverse runs the same LAPACK routine on each block as the
    # per-block loop it replaced, so the bits agree
    prob = generate_problem(GeneratorConfig(seed=11, d=d, m=d, n=n, condition_number=15.0))
    hess = prob.hess_blocks()
    dual = RegularizedDualHessian(spectra(build_graph(Topology("cyclic", n)), 0.5), prob)
    assert np.array_equal(dual._hess_inv, np.stack([np.linalg.inv(h) for h in hess]))


def test_dual_precond_rejects_singular_blocks():
    prob = generate_problem(GeneratorConfig(seed=1, d=3, m=2, n=3, condition_number=2.0))
    graph = build_graph(Topology("cyclic", 3))
    with pytest.raises(ValueError):
        RegularizedDualHessian(spectra(graph, 0.5), prob)


def test_dual_precond_dimension_mismatch():
    prob = generate_problem(GeneratorConfig(seed=1, d=2, m=3, n=3, condition_number=2.0))
    graph = build_graph(Topology("cyclic", 4))
    with pytest.raises(ValueError):
        RegularizedDualHessian(spectra(graph, 0.5), prob)

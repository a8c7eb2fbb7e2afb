import tracemalloc

import numpy as np
import pytest

from dismd.diagnostics import (
    CSV_COLUMNS,
    MetricsRecorder,
    compute_constants,
    consensus_spread,
    csv_header,
    default_c,
    kappa_g_estimate,
    rate_fit,
)
from dismd.dynamics import Hyperparams, ParticleSystem, Snapshots, run
from dismd.graphs import Topology, build_graph, metropolis_weights, spectra
from dismd.mirror_maps import EntropyMap, EuclideanMap, QuadraticMap, RegularizedDualHessian
from dismd.objectives import DistributedProblem, GeneratorConfig, generate_problem
from dismd.oracle import solve_unconstrained


def euclid_setup(seed=0, n=4, d=3, cond=4.0, beta=1.0):
    prob = generate_problem(GeneratorConfig(seed=seed, d=d, m=d + 1, n=n, condition_number=cond))
    graph = build_graph(Topology("cyclic", n))
    spec = spectra(graph, beta)
    mmap = EuclideanMap(d)
    opt = solve_unconstrained(prob, graph)
    return prob, graph, spec, mmap, opt


def lyapunov(rec, state):
    """(V, V1, V2, V3) of the recorder's record of one state."""
    r = rec(Snapshots.of(state))[0]
    return r.V, r.V1, r.V2, r.V3


def test_lyapunov_zero_at_optimum():
    prob, graph, spec, mmap, opt = euclid_setup()
    state = ParticleSystem(
        z=np.tile(opt.x_star, (4, 1)),
        x=np.tile(opt.x_star, (4, 1)),
        lam=opt.lambda_star.copy(),
        mu=None,
        step=0,
        t=0.0,
    )
    rec = MetricsRecorder(prob, graph, mmap, opt.x_star, opt.lambda_star, c=2.5)
    v, v1, v2, v3 = lyapunov(rec, state)
    assert abs(v) <= 1e-18 * (1 + abs(opt.f_star))
    assert v1 == pytest.approx(0.0, abs=1e-20)
    assert v2 == pytest.approx(0.0, abs=1e-20)
    assert v3 == pytest.approx(0.0, abs=1e-18)


def test_lyapunov_consensus_state_reduces_to_lambda_term():
    prob, graph, spec, mmap, opt = euclid_setup(seed=1)
    rng = np.random.default_rng(3)
    lam = graph.laplacian @ rng.standard_normal((4, 3))
    state = ParticleSystem(
        z=np.tile(opt.x_star, (4, 1)),
        x=np.tile(opt.x_star, (4, 1)),
        lam=lam,
        mu=None,
        step=0,
        t=0.0,
    )
    c = 3.0
    rec = MetricsRecorder(prob, graph, mmap, opt.x_star, opt.lambda_star, c=c)
    v, v1, v2, v3 = lyapunov(rec, state)
    diff = lam - opt.lambda_star
    assert v1 == pytest.approx(0.0, abs=1e-18)
    assert v2 == pytest.approx(0.5 * float(np.vdot(diff, diff)), rel=1e-12)
    assert v == pytest.approx(c * v2, rel=1e-9)


def test_lyapunov_matches_dense_assembly_oracle():
    n, d = 3, 2
    prob, graph, spec, mmap, opt = euclid_setup(seed=2, n=n, d=d)
    rng = np.random.default_rng(5)
    c = 2.2
    lap = np.kron(graph.laplacian, np.eye(d))
    hf = np.zeros((n * d, n * d))
    for i, h in enumerate(prob.hess_blocks()):
        hf[i * d:(i + 1) * d, i * d:(i + 1) * d] = h
    xs = np.tile(opt.x_star, n)
    ls = opt.lambda_star.ravel()
    rec = MetricsRecorder(prob, graph, mmap, opt.x_star, opt.lambda_star, c=c)
    for _ in range(10):
        x = rng.standard_normal(n * d)
        lam = rng.standard_normal(n * d)
        state = ParticleSystem(
            z=x.reshape(n, d).copy(), x=x.reshape(n, d).copy(),
            lam=lam.reshape(n, d).copy(), mu=None, step=0, t=0.0,
        )
        v, v1, v2, v3 = lyapunov(rec, state)
        # term-by-term dense evaluation
        want_v1 = 0.5 * float((x - xs) @ (x - xs))
        want_v2 = 0.5 * float((lam - ls) @ (lam - ls))
        want_df = 0.5 * float((x - xs) @ hf @ (x - xs))
        want_v3 = (
            want_df + float((x - xs) @ lap @ (lam - ls)) + 0.5 * float(x @ lap @ x)
        )
        assert v1 == pytest.approx(want_v1, abs=1e-10)
        assert v2 == pytest.approx(want_v2, abs=1e-10)
        assert v3 == pytest.approx(want_v3, abs=1e-10)
        assert v == pytest.approx(c * (want_v1 + want_v2) + want_v3, abs=1e-10)


def test_default_c_euclidean_example():
    prob, graph, spec, mmap, opt = euclid_setup()
    cst = compute_constants(prob, spec, mmap)
    cst = type(cst)(**{**cst.__dict__, "kappa_n": 1.0, "kappa_beta": 1.0, "mu_phi": 1.0})
    assert default_c(cst) == pytest.approx(2.02)


def test_default_c_monotone_in_mu_psi():
    prob, graph, spec, mmap, opt = euclid_setup()
    cst = compute_constants(prob, spec, mmap)
    low = type(cst)(**{**cst.__dict__, "mu_psi": 1.0})
    high = type(cst)(**{**cst.__dict__, "mu_psi": 2.0})
    # the 2 kappa_beta / mu_psi threshold halves when mu_psi doubles
    assert default_c(high) <= default_c(low)
    assert 2.0 * spec.kappa_beta / 2.0 * 1.01 <= default_c(low)


def test_default_c_single_particle_degenerate():
    prob = generate_problem(GeneratorConfig(seed=1, d=2, m=3, n=1, condition_number=2.0))
    graph = metropolis_weights((), 1)
    spec = spectra(graph, 0.7)
    cst = compute_constants(prob, spec, EuclideanMap(2))
    assert cst.kappa_n == 0.0
    assert default_c(cst) == pytest.approx(1.01 * 2.0 * 0.49)


def test_consensus_spread_trivial_cases():
    prob, graph, spec, mmap, opt = euclid_setup()
    x = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
    assert consensus_spread(x, prob.aggregate_value(x)) == 0.0
    single = generate_problem(GeneratorConfig(seed=2, d=3, m=4, n=1, condition_number=2.0))
    x = np.ones((1, 3))
    assert consensus_spread(x, single.aggregate_value(x)) == 0.0


def test_consensus_spread_two_particles_squared_distance():
    # both blocks prefer (1,1), so that particle is best and (0,0) worst
    prob = DistributedProblem(
        q=np.broadcast_to(np.eye(2), (2, 2, 2)), b=np.ones((2, 2)), domain="unconstrained"
    )
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert consensus_spread(x, prob.aggregate_value(x)) == pytest.approx(2.0)


def test_consensus_spread_matches_brute_force_rule():
    prob = generate_problem(GeneratorConfig(seed=3, d=2, m=3, n=3, condition_number=3.0))
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal((3, 2))
        losses = [prob.aggregate_value(xi) for xi in x]
        b = int(np.argmin(losses))
        w = int(np.argmax(losses))
        want = float(np.sum((x[b] - x[w]) ** 2))
        assert consensus_spread(x, prob.aggregate_value(x)) == pytest.approx(want, abs=1e-12)


def test_kappa_g_quotient_is_degenerate_for_wide_operator():
    # [H + L, L] always has a kernel (pick d_lambda, cancel with d_x), so the
    # quotient's infimum is zero no matter how strongly convex the problem is
    prob, graph, spec, mmap, opt = euclid_setup(seed=4)
    est = kappa_g_estimate(mmap, np.tile(opt.x_star, (4, 1)))
    assert 0.0 <= est <= 1e-10


def test_kappa_g_single_particle_hand_value():
    # A = [1, 0] for f = x^2/2 with no neighbors; the lambda direction is in
    # the null space, so the estimate is exactly zero
    est = kappa_g_estimate(EuclideanMap(1), np.zeros((1, 1)))
    assert est == pytest.approx(0.0, abs=1e-14)


def test_kappa_g_rejects_singular_weight():
    prob = generate_problem(
        GeneratorConfig(seed=6, d=3, m=4, n=3, condition_number=2.0,
                        shared_minimizer=True, domain="simplex")
    )
    x = np.tile(prob.minimizer, (3, 1))
    with pytest.raises(ValueError):
        kappa_g_estimate(EntropyMap(3), x)


def _conj_hessian_block(mmap, z):
    """Dense conjugate Hessian at one dual point z, from its closed form."""
    if mmap.kind == "euclidean":
        return np.eye(mmap.dim)
    if mmap.kind == "quadratic":
        return np.linalg.inv(mmap.matrix)
    x = mmap.backward(z)
    return np.diag(x) - np.outer(x, x)


def dense_quotient_min(prob, graph, mmap, x_rows):
    """Dense oracle for kappa_g at one point: lambda_min(A^T W A) with
    A = [H_f + L, L], and the spectral norm of A^T W A."""
    n, d = prob.n, prob.d
    lap = np.kron(graph.laplacian, np.eye(d))
    hf = np.zeros((n * d, n * d))
    w = np.zeros((n * d, n * d))
    z_rows = mmap.forward(x_rows)
    for i, h in enumerate(prob.hess_blocks()):
        hf[i * d:(i + 1) * d, i * d:(i + 1) * d] = h
        w[i * d:(i + 1) * d, i * d:(i + 1) * d] = _conj_hessian_block(mmap, z_rows[i])
    a = np.hstack([hf + lap, lap])
    eigs = np.linalg.eigvalsh(a.T @ w @ a)
    return float(eigs[0]), float(np.max(np.abs(eigs)))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("map_kind", ["euclidean", "quadratic"])
def test_kappa_g_closed_form_matches_dense_oracle(seed, map_kind):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    prob = generate_problem(
        GeneratorConfig(seed=seed, d=d, m=d + 1, n=n,
                        condition_number=float(rng.uniform(1.0, 20.0)) if d > 1 else 1.0)
    )
    graph = build_graph(Topology("cyclic", n))
    if map_kind == "euclidean":
        mmap = EuclideanMap(d)
    else:
        b = rng.standard_normal((d, d))
        mmap = QuadraticMap(b @ b.T + 0.5 * np.eye(d))
    for _ in range(2):
        x_rows = rng.standard_normal((n, d))
        lam_min, norm = dense_quotient_min(prob, graph, mmap, x_rows)
        assert abs(lam_min) <= 1e-10 * norm
        assert kappa_g_estimate(mmap, x_rows) == 0.0


def test_kappa_g_allocates_no_dense_system():
    # the dense (2nd)^2 form took more than 80 MB at this size
    n = d = 40
    tracemalloc.start()
    try:
        assert kappa_g_estimate(EuclideanMap(d), np.zeros((n, d))) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_rate_fit_recovers_pure_exponential():
    t = np.linspace(0.0, 10.0, 100)
    fit = rate_fit(t, np.exp(-0.5 * t), window=1.0)
    assert fit.r == pytest.approx(0.5, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
    assert not fit.truncated


def test_rate_fit_constant_series():
    t = np.linspace(0.0, 5.0, 50)
    fit = rate_fit(t, np.ones(50), window=1.0)
    assert fit.r == pytest.approx(0.0, abs=1e-14)


def test_rate_fit_floor_bias_stays_in_bracket():
    # value bracket evaluated numerically before freezing: r = 0.478 for this
    # sampling of exp(-t/2) + 1e-6 over [0, 100] with a 0.3 window
    t = np.linspace(0.0, 100.0, 200)
    fit = rate_fit(t, np.exp(-0.5 * t) + 1e-6, window=0.3)
    assert 0.45 <= fit.r <= 0.5


def test_rate_fit_truncates_nonpositive_window():
    t = np.linspace(0.0, 10.0, 40)
    v = np.exp(-t)
    v[25:] = 0.0
    fit = rate_fit(t, v, window=1.0)
    assert fit.truncated
    assert fit.n_used == 25
    assert fit.r == pytest.approx(1.0, abs=1e-8)


def test_rate_fit_errors():
    with pytest.raises(ValueError):
        rate_fit(np.arange(5.0), np.ones(5))
    t = np.linspace(0.0, 1.0, 20)
    v = np.ones(20)
    v[0] = -1.0
    with pytest.raises(ValueError):
        rate_fit(t, v, window=1.0)


def test_kkt_residuals_zero_at_kkt_pair():
    prob, graph, spec, mmap, opt = euclid_setup(seed=7)
    state = ParticleSystem(
        z=np.tile(opt.x_star, (4, 1)),
        x=np.tile(opt.x_star, (4, 1)),
        lam=opt.lambda_star.copy(),
        mu=None,
        step=0,
        t=0.0,
    )
    rec = MetricsRecorder(prob, graph, mmap, opt.x_star, opt.lambda_star, c=1.0)
    r = rec(Snapshots.of(state))[0]
    assert r.kkt_primal <= 1e-10
    assert r.kkt_consensus <= 1e-12


def test_constants_from_problem_spectrum():
    prob, graph, spec, mmap, opt = euclid_setup(seed=8)
    cst = compute_constants(prob, spec, mmap)
    # the per-block loop is the reference; the batched call runs the same
    # LAPACK routine on each block, so the bits agree
    eigs = [np.linalg.eigvalsh(h) for h in prob.hess_blocks()]
    assert cst.mu_f == min(e[0] for e in eigs)
    assert cst.l_f == max(e[-1] for e in eigs)
    assert cst.alpha_phi == pytest.approx(cst.l_f)
    assert cst.mu_hat == 1.0  # min(mu_phi=1, 2)


def test_constants_mu_hat_switches_for_dual_hessian():
    prob, graph, spec, mmap, opt = euclid_setup(seed=9)
    dual = RegularizedDualHessian(spectra(graph, 0.5), prob.hess_blocks())
    cst = compute_constants(prob, spec, mmap, dual)
    assert cst.mu_psi == pytest.approx(dual.mu)
    assert cst.mu_hat == pytest.approx(min(1.0, dual.mu))


def test_recorder_record_fields_and_bregman_column():
    prob, graph, spec, mmap, opt = euclid_setup(seed=10)
    cst = compute_constants(prob, spec, mmap)
    c = default_c(cst)
    rec = MetricsRecorder(prob, graph, mmap, opt.x_star, opt.lambda_star, c)
    states = run("eismd", prob, mmap, graph, Hyperparams(dt=0.01, epochs=10), metrics_every=5)
    r = rec(Snapshots.of(states[-1]))[0]
    assert r.step == 10
    assert r.t == pytest.approx(0.1)
    assert r.bregman_to_opt == pytest.approx(
        np.sum(mmap.bregman(opt.x_star, states[-1].x)), rel=1e-12
    )
    assert r.loss_best <= r.loss_worst
    row = r.to_csv_row()
    assert len(row.split(",")) == len(CSV_COLUMNS)
    assert csv_header().startswith("step,t,loss_mean")
    # shortest round-trip decimals: parsing the row reproduces the fields
    parts = row.split(",")
    assert float(parts[8]) == r.V


def test_recorder_epismd_v2_uses_dual_bregman():
    prob, graph, spec, mmap, opt = euclid_setup(seed=11)
    dual = RegularizedDualHessian(spectra(graph, 0.5), prob.hess_blocks())
    cst = compute_constants(prob, spec, mmap, dual)
    c = default_c(cst)
    rec = MetricsRecorder(prob, graph, mmap, opt.x_star, opt.lambda_star, c, dual=dual)
    states = run(
        "epismd", prob, mmap, graph, Hyperparams(dt=0.01, epochs=20),
        dual=dual, metrics_every=20,
    )
    r = rec(Snapshots.of(states[-1]))[0]
    assert r.V2 == pytest.approx(dual.bregman(opt.lambda_star, states[-1].lam), rel=1e-10)


def test_eismd_lyapunov_descends_on_desk_instance():
    prob, graph, spec, mmap, opt = euclid_setup(seed=12, n=5, d=4)
    cst = compute_constants(prob, spec, mmap)
    c = default_c(cst)
    rec = MetricsRecorder(prob, graph, mmap, opt.x_star, opt.lambda_star, c)
    records = run(
        "eismd", prob, mmap, graph, Hyperparams(dt=1e-3, epochs=4000),
        metrics_every=1, recorder=rec,
    )
    v = np.array([r.V for r in records])
    assert np.all(v[1:] <= v[:-1] + 1e-8 * (1.0 + v[:-1]))
    assert v[-1] < v[0]

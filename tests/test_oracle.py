from pathlib import Path

import numpy as np
import pytest

from dismd import cli, oracle
from dismd.config import load_config
from dismd.dynamics import Hyperparams
from dismd.graphs import Topology, build_graph, metropolis_weights, spectra
from dismd.harness import build_problem
from dismd.mirror_maps import EntropyMap, EuclideanMap
from dismd.objectives import DistributedProblem, GeneratorConfig, QuadraticBlock, generate_problem
from dismd.oracle import (
    OracleError,
    centralized_md_baseline,
    merge_blocks,
    solve_simplex,
    solve_unconstrained,
)


def test_identity_blocks_optimum_is_mean_of_targets():
    rng = np.random.default_rng(0)
    bs = rng.standard_normal((4, 3))
    blocks = [QuadraticBlock(q=np.eye(3), b=b) for b in bs]
    prob = DistributedProblem(blocks=blocks, domain="unconstrained", d=3, n=4, m=3)
    g = build_graph(Topology("cyclic", 4))
    opt = solve_unconstrained(prob, g)
    assert np.allclose(opt.x_star, bs.mean(axis=0), atol=1e-12)


def test_shared_minimizer_has_zero_multiplier():
    prob = generate_problem(
        GeneratorConfig(seed=1, d=4, m=5, n=5, condition_number=3.0, shared_minimizer=True)
    )
    g = build_graph(Topology("cyclic", 5))
    opt = solve_unconstrained(prob, g)
    assert np.allclose(opt.x_star, prob.minimizer, atol=1e-9)
    assert np.linalg.norm(opt.lambda_star) <= 1e-10


def test_scalar_two_particle_multiplier_against_pinv_oracle():
    prob = DistributedProblem(
        blocks=[
            QuadraticBlock(q=np.eye(1), b=np.array([0.0])),
            QuadraticBlock(q=np.eye(1), b=np.array([2.0])),
        ],
        domain="unconstrained",
        d=1,
        n=2,
        m=1,
    )
    g = metropolis_weights(((0, 1),), 2)
    opt = solve_unconstrained(prob, g)
    assert opt.x_star[0] == pytest.approx(1.0, abs=1e-12)
    # independent oracle: numpy pinv on the dense Laplacian
    grads = np.array([[1.0], [-1.0]])  # grad f_i at x* = 1
    want = -(np.linalg.pinv(g.laplacian) @ grads)
    assert np.allclose(opt.lambda_star, want, atol=1e-12)
    assert np.max(np.abs(grads + g.laplacian @ opt.lambda_star)) <= 1e-12


def test_unconstrained_kkt_certificate():
    prob = generate_problem(GeneratorConfig(seed=2, d=5, m=6, n=4, condition_number=8.0))
    g = build_graph(Topology("cyclic", 4))
    opt = solve_unconstrained(prob, g)
    assert opt.kkt_residual <= 1e-8
    grads = prob.grads_at(opt.x_star)
    assert np.linalg.norm(grads + g.laplacian @ opt.lambda_star) <= 1e-8
    # lambda* lies in range(L)
    spec = spectra(g, 1.0)
    proj = np.eye(4) - g.laplacian @ spec.lap_pinv
    assert np.linalg.norm(proj @ opt.lambda_star) <= 1e-9 * max(np.linalg.norm(opt.lambda_star), 1e-12)


def test_unconstrained_agrees_with_iterative_solver():
    # second, independent solution path: conjugate-gradient style iteration
    prob = generate_problem(GeneratorConfig(seed=3, d=6, m=7, n=5, condition_number=5.0))
    g = build_graph(Topology("cyclic", 5))
    opt = solve_unconstrained(prob, g)
    hess = prob.aggregate_hessian()
    rhs = -prob.aggregate_grad(np.zeros(6))
    x = np.zeros(6)
    r = rhs - hess @ x
    p = r.copy()
    for _ in range(200):
        hp_ = hess @ p
        alpha = float(r @ r) / float(p @ hp_)
        x = x + alpha * p
        r_new = r - alpha * hp_
        if np.linalg.norm(r_new) < 1e-14:
            break
        beta = float(r_new @ r_new) / float(r @ r)
        p = r_new + beta * p
        r = r_new
    assert np.linalg.norm(x - opt.x_star) <= 1e-8


def test_lambda_star_is_minimal_norm():
    prob = generate_problem(GeneratorConfig(seed=4, d=3, m=4, n=4, condition_number=4.0))
    g = build_graph(Topology("cyclic", 4))
    opt = solve_unconstrained(prob, g)
    rng = np.random.default_rng(0)
    base = np.linalg.norm(opt.lambda_star)
    for _ in range(20):
        # any multiplier differing by a null(L) = consensus component is valid
        shift = np.tile(rng.standard_normal(3), (4, 1))
        assert np.linalg.norm(opt.lambda_star + shift) >= base - 1e-12


def test_singular_aggregate_hessian_raises():
    blocks = [QuadraticBlock(q=np.zeros((2, 2)), b=np.zeros(2)) for _ in range(3)]
    prob = DistributedProblem(blocks=blocks, domain="unconstrained", d=2, n=3, m=2)
    g = build_graph(Topology("cyclic", 3))
    with pytest.raises(OracleError):
        solve_unconstrained(prob, g)


def test_simplex_interior_quadratic_recovers_center():
    # f(x) = ||x - c||^2 / 2 with c in the simplex interior: x* = c
    c = np.array([0.2, 0.3, 0.5])
    blocks = [QuadraticBlock(q=np.eye(3), b=c) for _ in range(3)]
    prob = DistributedProblem(blocks=blocks, domain="simplex", d=3, n=3, m=3)
    g = build_graph(Topology("cyclic", 3))
    opt = solve_simplex(prob, g)
    assert np.allclose(opt.x_star, c, atol=1e-7)
    assert opt.lambda_star is not None
    assert np.linalg.norm(opt.lambda_star) <= 1e-6


def test_simplex_vertex_optimum():
    # d=2, f(x) = ||x - (2,-1)||^2 / 2 restricted to the simplex: x* = (1, 0)
    target = np.array([2.0, -1.0])
    blocks = [QuadraticBlock(q=np.eye(2), b=target)]
    prob = DistributedProblem(blocks=blocks, domain="simplex", d=2, n=1, m=2)
    g = metropolis_weights((), 1)
    opt = solve_simplex(prob, g)
    # brute-force oracle over the 1-d parametrization (t, 1-t) of the simplex
    ts = np.linspace(0.0, 1.0, 200001)
    vals = 0.5 * ((ts - 2.0) ** 2 + (1.0 - ts + 1.0) ** 2)
    t_best = ts[int(np.argmin(vals))]
    assert t_best == pytest.approx(1.0, abs=1e-5)
    assert np.allclose(opt.x_star, [1.0, 0.0], atol=1e-6)
    assert opt.lambda_star is None  # boundary optimum has no stacked multiplier


def test_simplex_permutation_symmetry():
    prob = generate_problem(
        GeneratorConfig(seed=5, d=4, m=5, n=3, condition_number=3.0,
                        shared_minimizer=True, domain="simplex")
    )
    g = build_graph(Topology("cyclic", 3))
    opt = solve_simplex(prob, g)
    perm = np.array([2, 0, 3, 1])
    blocks = [QuadraticBlock(q=blk.q[:, perm], b=blk.b) for blk in prob.blocks]
    permuted = DistributedProblem(blocks=blocks, domain="simplex", d=4, n=3, m=5)
    opt_p = solve_simplex(permuted, g)
    assert np.allclose(opt_p.x_star[np.argsort(perm)], opt.x_star, atol=1e-6)


def test_simplex_matches_shared_minimizer():
    prob = generate_problem(
        GeneratorConfig(seed=6, d=5, m=6, n=4, condition_number=4.0,
                        shared_minimizer=True, domain="simplex")
    )
    g = build_graph(Topology("cyclic", 4))
    opt = solve_simplex(prob, g)
    assert np.allclose(opt.x_star, prob.minimizer, atol=1e-6)
    assert opt.kkt_residual <= 1e-6


def test_centralized_baseline_converges_to_oracle():
    prob = generate_problem(GeneratorConfig(seed=7, d=4, m=5, n=5, condition_number=4.0))
    g = build_graph(Topology("cyclic", 5))
    opt = solve_unconstrained(prob, g)
    ts, xs = centralized_md_baseline(
        prob, EuclideanMap(4), Hyperparams(dt=0.05, epochs=4000), sample_every=4000
    )
    assert np.linalg.norm(xs[-1] - opt.x_star) <= 1e-6


def test_centralized_baseline_fixed_point_at_optimum():
    prob = generate_problem(GeneratorConfig(seed=8, d=3, m=4, n=4, condition_number=3.0))
    g = build_graph(Topology("cyclic", 4))
    opt = solve_unconstrained(prob, g)
    ts, xs = centralized_md_baseline(
        prob, EuclideanMap(3), Hyperparams(dt=0.05, epochs=50),
        x0=opt.x_star, sample_every=50,
    )
    assert np.max(np.abs(xs[-1] - opt.x_star)) <= 1e-12


def test_centralized_baseline_noise_floor_scales_with_sigma_squared():
    prob = generate_problem(GeneratorConfig(seed=9, d=3, m=4, n=4, condition_number=2.0))
    g = build_graph(Topology("cyclic", 4))
    opt = solve_unconstrained(prob, g)
    mmap = EuclideanMap(3)

    def tail_average(sigma):
        tails = []
        for seed in range(4):
            ts, xs = centralized_md_baseline(
                prob, mmap, Hyperparams(sigma=sigma, dt=0.02, epochs=30000),
                seed=seed, x0=opt.x_star, sample_every=20,
            )
            breg = 0.5 * np.sum((xs - opt.x_star) ** 2, axis=1)
            tails.append(breg[int(0.5 * len(breg)):].mean())
        return float(np.mean(tails))

    ratio = tail_average(0.1) / tail_average(0.05)
    assert 2.0 <= ratio <= 8.0  # nominal 4: floor proportional to sigma^2


def test_merge_blocks_preserves_aggregate_objective():
    prob = generate_problem(GeneratorConfig(seed=10, d=3, m=4, n=5, condition_number=3.0))
    merged = merge_blocks(prob)
    assert merged.n == 1
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(3)
        assert merged.aggregate_value(x) == pytest.approx(prob.aggregate_value(x), rel=1e-12)


def test_simplex_solve_that_does_not_stall_reports_last_iterate(monkeypatch, capsys):
    cfg_path = Path(__file__).resolve().parent.parent / "configs" / "problem_b_simplex.ini"
    prob = build_problem(load_config(cfg_path))
    g = build_graph(Topology("cyclic", prob.n))
    # reference loop: centralized entropic mirror descent, three steps
    hess = prob.aggregate_hessian()
    dt = min(0.1, 1.0 / float(np.linalg.eigvalsh(hess)[-1]))
    rhs = -prob.aggregate_grad(np.zeros(prob.d))
    mmap = EntropyMap(prob.d)
    x = np.full(prob.d, 1.0 / prob.d)
    z = mmap.forward(x)
    for _ in range(3):
        z = z - dt * (hess @ x - rhs)
        x = mmap.backward(z)
    message = f"simplex solve did not stall within 3 iterations; last iterate {x}"

    monkeypatch.setattr(oracle, "MAX_SIMPLEX_ITERS", 3)
    with pytest.raises(OracleError) as excinfo:
        solve_simplex(prob, g)
    assert str(excinfo.value) == message
    assert cli.main(["oracle", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"

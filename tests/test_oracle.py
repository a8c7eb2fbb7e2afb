import itertools

import numpy as np
import pytest

from dismd.graphs import Topology, build_graph, metropolis_weights
from dismd.objectives import DistributedProblem, GeneratorConfig, generate_problem
from dismd.oracle import OracleError, solve_simplex, solve_unconstrained


def test_identity_blocks_optimum_is_mean_of_targets():
    rng = np.random.default_rng(0)
    bs = rng.standard_normal((4, 3))
    prob = DistributedProblem(
        q=np.broadcast_to(np.eye(3), (4, 3, 3)), b=bs, domain="unconstrained"
    )
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
        q=np.ones((2, 1, 1)), b=np.array([[0.0], [2.0]]), domain="unconstrained"
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
    proj = np.eye(4) - g.laplacian @ g.lap_pinv
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


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n, m, d", [(4, 3, 3), (10, 20, 20), (6, 2, 5)])
def test_unconstrained_optimum_keeps_the_residual_forms_bits(seed, n, m, d):
    # the right-hand side sum Q_i^T b_i is one einsum; the residual form
    # -aggregate_grad(0) it replaced negates the same sums, so x* keeps its bits
    prob = generate_problem(GeneratorConfig(seed=seed, d=d, m=m, n=n,
                                            condition_number=1.0 if min(m, d) < 2 else 5.0))
    x_star = np.linalg.solve(prob.aggregate_hessian(), -prob.aggregate_grad(np.zeros(d)))
    got = solve_unconstrained(prob, build_graph(Topology("cyclic", n))).x_star
    assert got.tobytes() == x_star.tobytes()


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
    prob = DistributedProblem(q=np.zeros((3, 2, 2)), b=np.zeros((3, 2)), domain="unconstrained")
    g = build_graph(Topology("cyclic", 3))
    with pytest.raises(OracleError):
        solve_unconstrained(prob, g)


def test_simplex_interior_quadratic_recovers_center():
    # f(x) = ||x - c||^2 / 2 with c in the simplex interior: x* = c
    c = np.array([0.2, 0.3, 0.5])
    prob = DistributedProblem(
        q=np.broadcast_to(np.eye(3), (3, 3, 3)), b=np.tile(c, (3, 1)), domain="simplex"
    )
    g = build_graph(Topology("cyclic", 3))
    opt = solve_simplex(prob, g)
    assert np.allclose(opt.x_star, c, atol=1e-12)
    assert opt.lambda_star is not None
    assert np.linalg.norm(opt.lambda_star) <= 1e-12


def test_simplex_vertex_optimum():
    # d=2, f(x) = ||x - (2,-1)||^2 / 2 restricted to the simplex: x* = (1, 0)
    target = np.array([2.0, -1.0])
    prob = DistributedProblem(q=np.eye(2)[None], b=target[None], domain="simplex")
    g = metropolis_weights((), 1)
    opt = solve_simplex(prob, g)
    # brute-force oracle over the 1-d parametrization (t, 1-t) of the simplex
    ts = np.linspace(0.0, 1.0, 200001)
    vals = 0.5 * ((ts - 2.0) ** 2 + (1.0 - ts + 1.0) ** 2)
    t_best = ts[int(np.argmin(vals))]
    assert t_best == pytest.approx(1.0, abs=1e-5)
    assert np.allclose(opt.x_star, [1.0, 0.0], atol=1e-12)
    assert opt.lambda_star is None  # boundary optimum has no stacked multiplier


def test_simplex_permutation_symmetry():
    prob = generate_problem(
        GeneratorConfig(seed=5, d=4, m=5, n=3, condition_number=3.0,
                        shared_minimizer=True, domain="simplex")
    )
    g = build_graph(Topology("cyclic", 3))
    opt = solve_simplex(prob, g)
    perm = np.array([2, 0, 3, 1])
    permuted = DistributedProblem(q=prob.q[:, :, perm], b=prob.b, domain="simplex")
    opt_p = solve_simplex(permuted, g)
    assert np.allclose(opt_p.x_star[np.argsort(perm)], opt.x_star, atol=1e-12)


def test_simplex_matches_shared_minimizer():
    prob = generate_problem(
        GeneratorConfig(seed=6, d=5, m=6, n=4, condition_number=4.0,
                        shared_minimizer=True, domain="simplex")
    )
    g = build_graph(Topology("cyclic", 4))
    opt = solve_simplex(prob, g)
    assert np.allclose(opt.x_star, prob.minimizer, atol=1e-12)
    assert opt.kkt_residual <= 1e-12


def brute_force_simplex(problem):
    """Minimize the aggregate objective over the simplex by enumeration.

    Every support S gives one stationary point of the objective on the face
    {x_S >= 0, sum x_S = 1, x_j = 0 off S}, from its bordered KKT system. The
    optimum is the feasible one (x_S >= 0) of least objective value.
    """
    hess = np.einsum("nmd,nme->de", problem.q, problem.q)
    rhs = np.einsum("nmd,nm->d", problem.q, problem.b)
    best, best_value = None, np.inf
    for k in range(1, problem.d + 1):
        for support in itertools.combinations(range(problem.d), k):
            s = list(support)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = hess[np.ix_(s, s)]
            kkt[:k, k] = kkt[k, :k] = 1.0
            sol = np.linalg.solve(kkt, np.append(rhs[s], 1.0))
            if np.any(sol[:k] < 0.0):
                continue
            x = np.zeros(problem.d)
            x[s] = sol[:k]
            value = problem.aggregate_value(x)
            if value < best_value:
                best, best_value = x, value
    return best


# (d, m, n) with n * m >= d, so the aggregate Hessian is definite. The
# mirror descent oracle of artifact 0.3.0 failed on the last two: on
# (7, 4, 2), where n * m is barely above d, it missed by 1.6e-6 after 29 s,
# and at condition 100 it did not stall within 1e7 iterations
BRUTE_FORCE_SHAPES = ((2, 2, 4), (3, 2, 5), (7, 4, 8), (7, 7, 4), (7, 4, 2), (6, 3, 4))
BRUTE_FORCE_CASES = [
    (seed, shape, shared, cond)
    for seed, (shape, shared, cond) in enumerate(
        itertools.product(BRUTE_FORCE_SHAPES, (True, False), (1.0, 15.0, 100.0))
    )
]


@pytest.mark.parametrize("seed, shape, shared, cond", BRUTE_FORCE_CASES)
def test_simplex_matches_support_enumeration(seed, shape, shared, cond):
    d, m, n = shape
    prob = generate_problem(GeneratorConfig(
        seed=100 + seed, d=d, m=m, n=n, condition_number=cond,
        shared_minimizer=shared, domain="simplex",
    ))
    opt = solve_simplex(prob, build_graph(Topology("cyclic", n)))
    assert np.max(np.abs(opt.x_star - brute_force_simplex(prob))) <= 1e-12


def test_simplex_vertex_matches_support_enumeration():
    prob = DistributedProblem(q=np.eye(2)[None], b=np.array([[2.0, -1.0]]), domain="simplex")
    want = brute_force_simplex(prob)
    assert np.array_equal(want, [1.0, 0.0])
    opt = solve_simplex(prob, metropolis_weights((), 1))
    assert np.max(np.abs(opt.x_star - want)) <= 1e-12


@pytest.mark.parametrize("shared", [True, False])
def test_rank_deficient_simplex_problem_raises(shared):
    # n * m = 6 < d = 10: the aggregate Hessian is singular
    prob = generate_problem(GeneratorConfig(
        seed=3, d=10, m=3, n=2, condition_number=15.0, shared_minimizer=shared, domain="simplex",
    ))
    with pytest.raises(OracleError, match="not unique"):
        solve_simplex(prob, build_graph(Topology("cyclic", 2)))

import numpy as np
import pytest

from dismd.objectives import (
    DistributedProblem,
    GeneratorConfig,
    QuadraticBlock,
    generate_problem,
    is_strongly_convex,
    load_problem_bundle,
    save_problem_bundle,
)


def test_local_grad_identity_block():
    blk = QuadraticBlock(q=np.eye(2), b=np.zeros(2))
    x = np.array([1.0, 1.0])
    assert blk.grad(x) == pytest.approx([1.0, 1.0])
    assert blk.value(x) == pytest.approx(1.0)


def test_local_grad_vanishes_at_minimizer():
    blk = QuadraticBlock(q=np.eye(2), b=np.array([1.0, 1.0]))
    assert blk.grad(np.array([1.0, 1.0])) == pytest.approx([0.0, 0.0])


def test_local_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((7, 5))
    blk = QuadraticBlock(q=q, b=rng.standard_normal(7))
    x = rng.standard_normal(5)
    g = blk.grad(x)
    h = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        fd = (blk.value(x + e) - blk.value(x - e)) / (2 * h)
        assert fd == pytest.approx(g[j], rel=1e-6, abs=1e-8)


def test_local_hess_matches_grad_jacobian():
    rng = np.random.default_rng(1)
    blk = QuadraticBlock(q=rng.standard_normal((4, 3)), b=rng.standard_normal(4))
    x = rng.standard_normal(3)
    hess = blk.hess()
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        col = (blk.grad(x + e) - blk.grad(x - e)) / (2 * h)
        assert np.max(np.abs(col - hess[:, j])) <= 1e-5 * (1.0 + np.max(np.abs(hess)))


def test_generated_condition_number_is_exact():
    cfg = GeneratorConfig(seed=3, d=20, m=20, n=10, condition_number=15.0)
    prob = generate_problem(cfg)
    for blk in prob.blocks:
        s = np.linalg.svd(blk.q, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(15.0, abs=1e-8)


def test_shared_minimizer_gradients_vanish():
    cfg = GeneratorConfig(seed=4, d=6, m=7, n=5, condition_number=3.0, shared_minimizer=True)
    prob = generate_problem(cfg)
    assert prob.minimizer is not None
    for blk in prob.blocks:
        assert np.linalg.norm(blk.grad(prob.minimizer)) <= 1e-10


def test_shared_minimizer_simplex_point_is_interior():
    cfg = GeneratorConfig(
        seed=5, d=6, m=7, n=4, condition_number=3.0, shared_minimizer=True, domain="simplex"
    )
    prob = generate_problem(cfg)
    assert prob.minimizer.min() > 0
    assert prob.minimizer.sum() == pytest.approx(1.0)


def test_generator_is_deterministic():
    cfg = GeneratorConfig(seed=9, d=5, m=6, n=3, condition_number=8.0)
    a = generate_problem(cfg)
    b = generate_problem(cfg)
    for blk_a, blk_b in zip(a.blocks, b.blocks):
        assert np.array_equal(blk_a.q, blk_b.q)
        assert np.array_equal(blk_a.b, blk_b.b)
    assert a.content_hash() == b.content_hash()


def test_generator_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, d=1, m=1, n=2, condition_number=5.0)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, d=3, m=3, n=2, condition_number=0.5)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, d=0, m=3, n=2)


def test_aggregate_value_zero_blocks_at_zero():
    blocks = [QuadraticBlock(q=np.eye(2), b=np.zeros(2)) for _ in range(4)]
    prob = DistributedProblem(blocks=blocks, domain="unconstrained", d=2, n=4, m=2)
    assert prob.aggregate_value(np.zeros(2)) == 0.0


def test_aggregate_value_scalar_hand_case():
    # two 1-d blocks with b = 0 and 2 evaluated at x = 1: 0.5 + 0.5 = 1.0
    blocks = [
        QuadraticBlock(q=np.eye(1), b=np.array([0.0])),
        QuadraticBlock(q=np.eye(1), b=np.array([2.0])),
    ]
    prob = DistributedProblem(blocks=blocks, domain="unconstrained", d=1, n=2, m=1)
    assert prob.aggregate_value(np.array([1.0])) == pytest.approx(1.0)


def test_aggregate_value_at_shared_minimizer_is_global_minimum():
    cfg = GeneratorConfig(seed=6, d=5, m=6, n=4, condition_number=4.0, shared_minimizer=True)
    prob = generate_problem(cfg)
    # oracle: solve the aggregate normal equations from scratch
    hess = prob.aggregate_hessian()
    rhs = -prob.aggregate_grad(np.zeros(5))
    x_opt = np.linalg.solve(hess, rhs)
    assert prob.aggregate_value(prob.minimizer) == pytest.approx(
        prob.aggregate_value(x_opt), abs=1e-10
    )


def test_aggregate_value_rows_match_single_points():
    prob = generate_problem(GeneratorConfig(seed=4, d=5, m=6, n=3, condition_number=4.0))
    x = np.random.default_rng(2).standard_normal((7, 5))
    rows = prob.aggregate_value(x)
    assert rows.shape == (7,)
    # each row carries the same bits as the single-point call
    assert rows.tolist() == [prob.aggregate_value(xi) for xi in x]
    want = [sum(blk.value(xi) for blk in prob.blocks) for xi in x]
    assert rows == pytest.approx(want, rel=1e-12)


def test_simplex_domain_rejects_negative_coordinates():
    cfg = GeneratorConfig(
        seed=7, d=3, m=4, n=2, condition_number=2.0, shared_minimizer=True, domain="simplex"
    )
    prob = generate_problem(cfg)
    with pytest.raises(ValueError):
        prob.aggregate_value(np.array([-0.1, 0.6, 0.5]))
    with pytest.raises(ValueError):
        prob.aggregate_value(np.array([[0.2, 0.3, 0.5], [-0.1, 0.6, 0.5]]))


def test_grads_match_per_block_loops():
    rng = np.random.default_rng(8)
    prob = generate_problem(GeneratorConfig(seed=8, d=4, m=5, n=6, condition_number=3.0))
    x_rows = rng.standard_normal((6, 4))
    g = prob.grads(x_rows)
    for i, blk in enumerate(prob.blocks):
        assert np.allclose(g[i], blk.grad(x_rows[i]), atol=1e-12)
    vals = prob.block_values(x_rows)
    for i, blk in enumerate(prob.blocks):
        assert vals[i] == pytest.approx(blk.value(x_rows[i]))


def test_aggregate_hessian_positive_definite_when_overdetermined():
    prob = generate_problem(GeneratorConfig(seed=10, d=8, m=4, n=5, condition_number=5.0))
    assert 5 * 4 >= 8
    assert is_strongly_convex(prob)


def test_problem_bundle_round_trip(tmp_path):
    cfg = GeneratorConfig(
        seed=11, d=4, m=5, n=3, condition_number=6.0, shared_minimizer=True, domain="simplex"
    )
    prob = generate_problem(cfg)
    save_problem_bundle(prob, tmp_path / "bundle")
    loaded = load_problem_bundle(tmp_path / "bundle")
    assert loaded.domain == prob.domain
    assert loaded.d == prob.d and loaded.n == prob.n and loaded.m == prob.m
    for a, b in zip(prob.blocks, loaded.blocks):
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.b, b.b)
    assert np.array_equal(loaded.minimizer, prob.minimizer)
    assert loaded.content_hash() == prob.content_hash()

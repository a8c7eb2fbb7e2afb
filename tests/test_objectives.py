import json

import numpy as np
import pytest

from dismd.harness import load_problem_bundle, save_problem_bundle
from dismd.objectives import DistributedProblem, GeneratorConfig, generate_problem


def block_values(prob, x_rows):
    """f_i(x^i) = ||Q_i x^i - b_i||^2 / 2 for each particle, in residual form."""
    r = np.einsum("nmd,nd->nm", prob.q, x_rows) - prob.b
    return 0.5 * np.sum(r * r, axis=-1)


def test_local_grad_identity_block():
    prob = DistributedProblem(q=np.eye(2)[None], b=np.zeros((1, 2)), domain="unconstrained")
    x = np.array([[1.0, 1.0]])
    assert prob.grads(x) == pytest.approx(np.ones((1, 2)))
    assert block_values(prob, x) == pytest.approx([1.0])


def test_local_grad_vanishes_at_minimizer():
    prob = DistributedProblem(q=np.eye(2)[None], b=np.ones((1, 2)), domain="unconstrained")
    assert prob.grads(np.ones((1, 2))) == pytest.approx(np.zeros((1, 2)))


def _central_differences(fn, x_rows, h=1e-6):
    """Column j: (fn(x + h e_j) - fn(x - h e_j)) / 2h, e_j moving every row.

    Row i of fn depends on row i of x only, so column j holds each row's
    partial derivative in coordinate j."""
    cols = []
    for j in range(x_rows.shape[1]):
        e = np.zeros_like(x_rows)
        e[:, j] = h
        cols.append((fn(x_rows + e) - fn(x_rows - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def test_local_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    prob = DistributedProblem(
        q=rng.standard_normal((3, 7, 5)), b=rng.standard_normal((3, 7)), domain="unconstrained"
    )
    x = rng.standard_normal((3, 5))
    fd = _central_differences(lambda rows: block_values(prob, rows), x)
    assert fd == pytest.approx(prob.grads(x), rel=1e-6, abs=1e-8)


def test_local_hess_matches_grad_jacobian():
    rng = np.random.default_rng(1)
    prob = DistributedProblem(
        q=rng.standard_normal((2, 4, 3)), b=rng.standard_normal((2, 4)), domain="unconstrained"
    )
    x = rng.standard_normal((2, 3))
    hess = prob.hess_blocks()
    jac = _central_differences(prob.grads, x)
    assert np.max(np.abs(jac - hess)) <= 1e-5 * (1.0 + np.max(np.abs(hess)))


def test_problem_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        DistributedProblem(q=np.zeros((3, 2)), b=np.zeros(3), domain="unconstrained")
    with pytest.raises(ValueError):
        DistributedProblem(q=np.zeros((3, 4, 2)), b=np.zeros((3, 2)), domain="unconstrained")
    with pytest.raises(ValueError):
        DistributedProblem(q=np.zeros((3, 4, 2)), b=np.zeros((4, 4)), domain="unconstrained")


def test_problem_arrays_are_read_only_copies():
    q, b = np.ones((2, 3, 2)), np.ones((2, 3))
    prob = DistributedProblem(q=q, b=b, domain="unconstrained")
    q[0, 0, 0] = b[0, 0] = 5.0
    assert prob.q[0, 0, 0] == 1.0 and prob.b[0, 0] == 1.0
    assert (prob.n, prob.m, prob.d) == (2, 3, 2)
    with pytest.raises(ValueError):
        prob.q[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        prob.b[0, 0] = 2.0


def test_generated_condition_number_is_exact():
    cfg = GeneratorConfig(seed=3, d=20, m=20, n=10, condition_number=15.0)
    prob = generate_problem(cfg)
    for q in prob.q:
        s = np.linalg.svd(q, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(15.0, abs=1e-8)


def test_shared_minimizer_gradients_vanish():
    cfg = GeneratorConfig(seed=4, d=6, m=7, n=5, condition_number=3.0, shared_minimizer=True)
    prob = generate_problem(cfg)
    assert prob.minimizer is not None
    assert np.linalg.norm(prob.grads_at(prob.minimizer), axis=1).max() <= 1e-10


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
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.b, b.b)
    assert a.content_hash() == b.content_hash()


def test_generator_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, d=1, m=1, n=2, condition_number=5.0)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, d=3, m=3, n=2, condition_number=0.5)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, d=0, m=3, n=2)


def test_aggregate_value_zero_blocks_at_zero():
    prob = DistributedProblem(
        q=np.broadcast_to(np.eye(2), (4, 2, 2)), b=np.zeros((4, 2)), domain="unconstrained"
    )
    assert prob.aggregate_value(np.zeros(2)) == 0.0


def test_aggregate_value_scalar_hand_case():
    # two 1-d blocks with b = 0 and 2 evaluated at x = 1: 0.5 + 0.5 = 1.0
    prob = DistributedProblem(
        q=np.ones((2, 1, 1)), b=np.array([[0.0], [2.0]]), domain="unconstrained"
    )
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


def _value(q, b, x):
    """One block's f(x) = ||q x - b||^2 / 2 in the residual form."""
    r = q @ x - b
    return 0.5 * float(r @ r)


def test_aggregate_value_rows_match_single_points():
    prob = generate_problem(GeneratorConfig(seed=4, d=5, m=6, n=3, condition_number=4.0))
    x = np.random.default_rng(2).standard_normal((7, 5))
    rows = prob.aggregate_value(x)
    assert rows.shape == (7,)
    # each row carries the same bits as the single-point call
    assert rows.tolist() == [prob.aggregate_value(xi) for xi in x]
    want = [sum(_value(q, b, xi) for q, b in zip(prob.q, prob.b)) for xi in x]
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
    for i, (q, b) in enumerate(zip(prob.q, prob.b)):
        assert np.allclose(g[i], q.T @ (q @ x_rows[i] - b), atol=1e-12)


def test_hess_blocks_is_one_cached_read_only_array():
    prob = generate_problem(GeneratorConfig(seed=4, d=5, m=7, n=3, condition_number=9.0))
    hess = prob.hess_blocks()
    assert prob.hess_blocks() is hess
    assert not hess.flags.writeable
    q = prob.q
    assert hess.tobytes() == np.einsum("nmd,nme->nde", q, q).tobytes()
    with pytest.raises(ValueError):
        hess[0, 0, 0] = 1.0


def test_aggregate_hessian_positive_definite_when_overdetermined():
    prob = generate_problem(GeneratorConfig(seed=10, d=8, m=4, n=5, condition_number=5.0))
    assert 5 * 4 >= 8
    eigvals = np.linalg.eigvalsh(prob.aggregate_hessian())
    assert eigvals[0] > 1e-10 * max(eigvals[-1], 1.0)


def test_problem_bundle_round_trip(tmp_path):
    cfg = GeneratorConfig(
        seed=11, d=4, m=5, n=3, condition_number=6.0, shared_minimizer=True, domain="simplex"
    )
    prob = generate_problem(cfg)
    save_problem_bundle(prob, tmp_path / "bundle")
    loaded = load_problem_bundle(tmp_path / "bundle")
    assert loaded.domain == prob.domain
    assert loaded.d == prob.d and loaded.n == prob.n and loaded.m == prob.m
    assert np.array_equal(loaded.q, prob.q)
    assert np.array_equal(loaded.b, prob.b)
    assert np.array_equal(loaded.minimizer, prob.minimizer)
    assert loaded.content_hash() == prob.content_hash()
    # a b file may hold its entries in one column as well as in one row
    b_file = tmp_path / "bundle" / "b_001.csv"
    b_file.write_text(b_file.read_text().replace(",", "\n"))
    assert load_problem_bundle(tmp_path / "bundle").content_hash() == prob.content_hash()


# the manifest key raised by one -> the error, {dir} standing for the bundle
DISAGREEING_MANIFESTS = {
    "n": "bundle manifest {dir}/manifest.json must list n = 3 blocks naming q and b files",
    "m": "{dir}/q_000.csv must hold a 5x3 matrix, got 4x3",
    "d": "{dir}/q_000.csv must hold a 4x4 matrix, got 4x3",
}


@pytest.mark.parametrize("key", DISAGREEING_MANIFESTS)
def test_bundle_whose_manifest_disagrees_with_its_files_is_rejected(tmp_path, key):
    prob = generate_problem(GeneratorConfig(seed=12, d=3, m=4, n=2, condition_number=2.0))
    manifest_path = save_problem_bundle(prob, tmp_path)
    manifest = json.loads(manifest_path.read_text())
    manifest[key] += 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as error:
        load_problem_bundle(tmp_path)
    assert str(error.value) == DISAGREEING_MANIFESTS[key].format(dir=tmp_path)


@pytest.mark.parametrize("version", [0, 2, "1", None])
def test_bundle_of_another_version_is_rejected(tmp_path, version):
    prob = generate_problem(GeneratorConfig(seed=12, d=3, m=4, n=2, condition_number=2.0))
    manifest_path = save_problem_bundle(prob, tmp_path)
    manifest = json.loads(manifest_path.read_text())
    manifest["bundle_version"] = version
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"bundle_version {version!r}, but .* bundle_version 1$"):
        load_problem_bundle(tmp_path)


def test_bundle_with_blocks_of_unequal_shapes_is_rejected(tmp_path):
    prob = generate_problem(GeneratorConfig(seed=12, d=3, m=4, n=2, condition_number=2.0))
    save_problem_bundle(prob, tmp_path)
    (tmp_path / "q_001.csv").write_text("1.0,2.0\n")
    with pytest.raises(ValueError):
        load_problem_bundle(tmp_path)

import warnings

import numpy as np
import pytest
from numpy.random import SFC64, Generator, SeedSequence

from dismd import dynamics
from dismd.dynamics import (
    DivergenceError,
    Hyperparams,
    NoiseStream,
    ParticleSystem,
    _divergence,
    eismd_step,
    epismd_step,
    ismd_step,
    run,
)
from dismd.graphs import Topology, build_graph, metropolis_weights, spectra
from dismd.mirror_maps import EntropyMap, EuclideanMap, IdentityDual, RegularizedDualHessian
from dismd.objectives import DistributedProblem, GeneratorConfig, generate_problem
from dismd.oracle import solve_unconstrained


def scalar_problem(bs):
    b = np.array(bs, dtype=float)[:, None]
    return DistributedProblem(q=np.ones((len(b), 1, 1)), b=b, domain="unconstrained")


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(eta=0.0)
    with pytest.raises(ValueError):
        Hyperparams(sigma=-0.1)
    with pytest.raises(ValueError):
        Hyperparams(dt=0.0)
    with pytest.raises(ValueError):
        Hyperparams(epochs=-1)


@pytest.mark.parametrize("name", ["eta", "epsilon", "sigma", "dt"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_hyperparams_reject_non_finite(name, value):
    with pytest.raises(ValueError, match="must be finite"):
        Hyperparams(**{name: value})


def test_run_rejects_x0_rows_of_the_wrong_shape():
    prob = generate_problem(GeneratorConfig(seed=4, d=3, m=4, n=5, condition_number=4.0))
    g = build_graph(Topology("cyclic", 5))
    with pytest.raises(ValueError, match=r"\(5, 3\), got \(3, 5\)"):
        run("eismd", prob, EuclideanMap(3), g, Hyperparams(epochs=1), x0_rows=np.zeros((3, 5)))


def test_noise_stream_is_counter_keyed():
    a = NoiseStream(seed=42, n=3, d=2, sigma=0.5, dt=0.01)
    b = NoiseStream(seed=42, n=3, d=2, sigma=0.5, dt=0.01)
    # same (seed, chunk) gives identical chunks no matter the query order
    chunks_a = [a.block(c) for c in (5, 0, 17)]
    chunks_b = [b.block(c) for c in (17, 5, 0)]
    assert np.array_equal(chunks_a[0], chunks_b[1])
    assert np.array_equal(chunks_a[1], chunks_b[2])
    assert np.array_equal(chunks_a[2], chunks_b[0])
    assert not np.array_equal(a.block(0), a.block(1))
    assert not np.array_equal(a.block(0), NoiseStream(43, 3, 2, 0.5, 0.01).block(0))


@pytest.mark.parametrize("n, d, steps", [(4, 3, 64), (10, 20, 64), (40, 40, 8), (400, 40, 1)])
def test_noise_stream_chunk_equals_fresh_sfc64_per_chunk(n, d, steps):
    seed = 2024
    ns = NoiseStream(seed=seed, n=n, d=d, sigma=0.3, dt=0.04)
    assert ns.steps == steps
    chunks = [0, 1, 7, 12345, 2**40, 2**40 + 1, 99, 3]
    np.random.default_rng(5).shuffle(chunks)
    drawn = np.empty((steps, n, d))
    for c in chunks:
        fresh = Generator(SFC64(SeedSequence((seed, c)))).standard_normal((steps, n, d))
        want = fresh * (0.3 * np.sqrt(0.04))
        assert np.array_equal(ns.block(c), want), c
        # written into a strided out through a shared draw, the same bits
        out = np.zeros((steps, 2, n, d))
        rows = out[:, 1]
        assert ns.block(c, out=rows, draw=drawn) is rows
        assert np.array_equal(rows, want) and not out[:, 0].any(), c


def test_noise_stream_moments():
    ns = NoiseStream(seed=1, n=200, d=50, sigma=0.3, dt=0.04)
    block = ns.block(0)
    want_std = 0.3 * np.sqrt(0.04)
    assert abs(block.mean()) <= 4 * want_std / np.sqrt(block.size)
    assert block.std() == pytest.approx(want_std, rel=0.05)


def test_ismd_single_particle_is_centralized_md():
    prob = scalar_problem([3.0])
    g = metropolis_weights((), 1)
    mmap = EuclideanMap(1)
    hp = Hyperparams(eta=0.7, epsilon=1.0, dt=0.1, epochs=1)
    z = mmap.forward(np.array([[1.0]]))
    state = ParticleSystem(z=z, x=mmap.backward(z), lam=np.zeros_like(z), mu=None, step=0, t=0.0)
    out = ismd_step(state, prob, mmap, g, hp)
    # centralized step: z <- z - eta * dt * grad f(x) = 1 - 0.07*(1-3)
    assert out.z[0, 0] == pytest.approx(1.0 - 0.7 * 0.1 * (1.0 - 3.0), abs=1e-15)


def test_ismd_fixed_point_at_shared_minimizer():
    prob = generate_problem(
        GeneratorConfig(seed=0, d=3, m=4, n=4, condition_number=2.0, shared_minimizer=True)
    )
    g = build_graph(Topology("cyclic", 4))
    mmap = EuclideanMap(3)
    hp = Hyperparams(dt=0.05, epochs=1)
    x0 = np.tile(prob.minimizer, (4, 1))
    z = mmap.forward(x0)
    state = ParticleSystem(z=z, x=mmap.backward(z), lam=np.zeros_like(z), mu=None, step=0, t=0.0)
    out = ismd_step(state, prob, mmap, g, hp)
    assert np.max(np.abs(out.z - state.z)) <= 1e-14
    assert np.max(np.abs(out.x - state.x)) <= 1e-14


def test_ismd_scalar_hand_recursion():
    # independent scalar oracle for two particles on a path graph
    prob = scalar_problem([0.0, 2.0])
    g = metropolis_weights(((0, 1),), 2)
    mmap = EuclideanMap(1)
    eta, eps, dt = 1.0, 1.0, 0.1
    hp = Hyperparams(eta=eta, epsilon=eps, dt=dt, epochs=1)
    z = mmap.forward(np.zeros((2, 1)))
    state = ParticleSystem(z=z, x=mmap.backward(z), lam=np.zeros_like(z), mu=None, step=0, t=0.0)
    out = ismd_step(state, prob, mmap, g, hp)
    # hand recursion with plain floats: z_i -= dt*(eta*(x_i - b_i) + eps*(L z)_i)
    z1, z2 = 0.0, 0.0
    g1, g2 = z1 - 0.0, z2 - 2.0
    lz1, lz2 = 0.5 * z1 - 0.5 * z2, 0.5 * z2 - 0.5 * z1
    z1 -= dt * (eta * g1 + eps * lz1)
    z2 -= dt * (eta * g2 + eps * lz2)
    assert out.z[:, 0] == pytest.approx([z1, z2], abs=1e-15)


def test_eismd_fixed_point_at_kkt_pair():
    prob = generate_problem(GeneratorConfig(seed=1, d=3, m=4, n=5, condition_number=3.0))
    g = build_graph(Topology("cyclic", 5))
    mmap = EuclideanMap(3)
    opt = solve_unconstrained(prob, g)
    state = ParticleSystem(
        z=np.tile(opt.x_star, (5, 1)),
        x=np.tile(opt.x_star, (5, 1)),
        lam=opt.lambda_star.copy(),
        mu=None,
        step=0,
        t=0.0,
    )
    hp = Hyperparams(dt=0.05, epochs=1)
    out = eismd_step(state, prob, mmap, g, hp)
    scale = 1.0 + np.max(np.abs(state.z))
    assert np.max(np.abs(out.z - state.z)) <= 1e-14 * scale
    assert np.max(np.abs(out.lam - state.lam)) <= 1e-14 * scale


def test_eismd_lambda_frozen_on_consensus():
    prob = generate_problem(GeneratorConfig(seed=2, d=2, m=3, n=4, condition_number=2.0))
    g = build_graph(Topology("cyclic", 4))
    mmap = EuclideanMap(2)
    x0 = np.tile(np.array([0.3, -1.2]), (4, 1))
    z = mmap.forward(x0)
    state = ParticleSystem(z=z, x=mmap.backward(z), lam=np.zeros_like(z), mu=None, step=0, t=0.0)
    out = eismd_step(state, prob, mmap, g, Hyperparams(dt=0.1, epochs=1))
    assert np.max(np.abs(out.lam)) <= 1e-15


def test_eismd_scalar_two_step_recursion_oracle():
    prob = scalar_problem([0.0, 2.0])
    g = metropolis_weights(((0, 1),), 2)
    mmap = EuclideanMap(1)
    eta, eps, dt = 0.9, 1.3, 0.1
    hp = Hyperparams(eta=eta, epsilon=eps, dt=dt, epochs=2)
    states = run("eismd", prob, mmap, g, hp, metrics_every=1, x0_rows=np.zeros((2, 1)))
    # coupled (z, lam) recursion scripted with plain floats, interaction on x
    z = [0.0, 0.0]
    lam = [0.0, 0.0]
    for _ in range(2):
        x = list(z)
        grad = [x[0] - 0.0, x[1] - 2.0]
        lap_x = [0.5 * x[0] - 0.5 * x[1], 0.5 * x[1] - 0.5 * x[0]]
        lap_lam = [0.5 * lam[0] - 0.5 * lam[1], 0.5 * lam[1] - 0.5 * lam[0]]
        z = [
            z[i] - dt * (eta * grad[i] + eps * lap_x[i] + lap_lam[i])
            for i in range(2)
        ]
        lam = [lam[i] + dt * lap_x[i] for i in range(2)]
    assert states[-1].z[:, 0] == pytest.approx(z, abs=1e-14)
    assert states[-1].lam[:, 0] == pytest.approx(lam, abs=1e-14)


def test_eismd_interaction_switch_changes_trajectory_only_for_nonlinear_maps():
    # with the Euclidean map z == x, so both switch settings coincide
    prob = generate_problem(GeneratorConfig(seed=3, d=2, m=3, n=3, condition_number=2.0))
    g = build_graph(Topology("cyclic", 3))
    mmap = EuclideanMap(2)
    hp = Hyperparams(dt=0.05, epochs=20)
    a = run("eismd", prob, mmap, g, hp, metrics_every=20, interaction_on="x")
    b = run("eismd", prob, mmap, g, hp, metrics_every=20, interaction_on="z")
    assert np.array_equal(a[-1].z, b[-1].z)

    prob_s = generate_problem(
        GeneratorConfig(seed=3, d=3, m=4, n=3, condition_number=2.0,
                        shared_minimizer=True, domain="simplex")
    )
    emap = EntropyMap(3)
    a = run("eismd", prob_s, emap, g, hp, metrics_every=20, interaction_on="x")
    b = run("eismd", prob_s, emap, g, hp, metrics_every=20, interaction_on="z")
    assert not np.array_equal(a[-1].z, b[-1].z)


@pytest.mark.parametrize("algorithm", ["ismd", "eismd"])
def test_run_rejects_a_dual_map_outside_epismd(algorithm):
    # the dual map enters only epismd's step; elsewhere it would be ignored
    prob = generate_problem(GeneratorConfig(seed=4, d=3, m=4, n=5, condition_number=4.0))
    g = build_graph(Topology("cyclic", 5))
    with pytest.raises(ValueError, match=f"{algorithm} takes no dual map"):
        run(algorithm, prob, EuclideanMap(3), g, Hyperparams(epochs=1), dual=IdentityDual())
    with pytest.raises(ValueError, match="epismd needs a dual map"):
        run("epismd", prob, EuclideanMap(3), g, Hyperparams(epochs=1))


def test_epismd_identity_dual_is_bitwise_eismd():
    prob = generate_problem(GeneratorConfig(seed=4, d=3, m=4, n=5, condition_number=4.0))
    g = build_graph(Topology("cyclic", 5))
    mmap = EuclideanMap(3)
    hp = Hyperparams(sigma=0.2, dt=0.02, epochs=300)
    a = run("eismd", prob, mmap, g, hp, seed=7, metrics_every=50)
    b = run("epismd", prob, mmap, g, hp, seed=7, dual=IdentityDual(), metrics_every=50)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.z, sb.z)
        assert np.array_equal(sa.x, sb.x)
        assert np.array_equal(sa.lam, sb.lam)


def test_epismd_mu_frozen_on_consensus():
    prob = generate_problem(GeneratorConfig(seed=5, d=2, m=3, n=4, condition_number=2.0))
    g = build_graph(Topology("cyclic", 4))
    spec = spectra(g, 0.5)
    dual = RegularizedDualHessian(spec, prob)
    mmap = EuclideanMap(2)
    x0 = np.tile(np.array([0.4, 0.6]), (4, 1))
    z = mmap.forward(x0)
    state = ParticleSystem(z=z, x=mmap.backward(z), lam=np.zeros_like(z), mu=np.zeros_like(z),
                           step=0, t=0.0)
    out = epismd_step(state, prob, mmap, dual, g, Hyperparams(dt=0.1, epochs=1))
    assert np.max(np.abs(out.mu)) <= 1e-15


def test_epismd_step_matches_dense_assembly_oracle():
    n, d = 3, 2
    prob = generate_problem(GeneratorConfig(seed=6, d=d, m=4, n=n, condition_number=3.0))
    g = build_graph(Topology("cyclic", n))
    spec = spectra(g, 0.3)
    dual = RegularizedDualHessian(spec, prob)
    mmap = EuclideanMap(d)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((n, d))
    mu0 = (g.laplacian @ rng.standard_normal((n, d)))
    state = ParticleSystem(z=x0.copy(), x=x0.copy(), lam=dual.backward(mu0), mu=mu0, step=0, t=0.0)
    dt = 0.05
    out = epismd_step(state, prob, mmap, dual, g, Hyperparams(dt=dt, epochs=1))

    # dense operators assembled explicitly
    lap = np.kron(g.laplacian, np.eye(d))
    hpsi = np.kron(np.linalg.inv(spec.lap_beta), np.eye(d))
    hf = np.zeros((n * d, n * d))
    for i, h in enumerate(prob.hess_blocks()):
        hf[i * d:(i + 1) * d, i * d:(i + 1) * d] = h
    k_dense = hpsi @ hf @ hpsi
    xs = x0.ravel()
    grad = prob.grads(x0).ravel()
    lam = (k_dense @ mu0.ravel())
    z1 = xs - dt * (grad + lap @ xs + lap @ lam)
    mu1 = mu0.ravel() + dt * (lap @ xs)
    lam1 = k_dense @ mu1
    assert np.max(np.abs(out.z.ravel() - z1)) <= 1e-10
    assert np.max(np.abs(out.mu.ravel() - mu1)) <= 1e-12
    assert np.max(np.abs(out.lam.ravel() - lam1)) <= 1e-10


def test_run_zero_epochs_single_record():
    prob = scalar_problem([1.0])
    g = metropolis_weights((), 1)
    mmap = EuclideanMap(1)
    records = run("ismd", prob, mmap, g, Hyperparams(epochs=0), metrics_every=10)
    assert len(records) == 1
    assert records[0].step == 0


def test_run_is_deterministic_given_seed():
    prob = generate_problem(GeneratorConfig(seed=7, d=3, m=4, n=4, condition_number=3.0))
    g = build_graph(Topology("cyclic", 4))
    mmap = EuclideanMap(3)
    hp = Hyperparams(sigma=0.1, dt=0.01, epochs=200)
    a = run("eismd", prob, mmap, g, hp, seed=3, metrics_every=40)
    b = run("eismd", prob, mmap, g, hp, seed=3, metrics_every=40)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.z, sb.z)
    c = run("eismd", prob, mmap, g, hp, seed=4, metrics_every=40)
    assert not np.array_equal(a[-1].z, c[-1].z)


def test_run_record_cadence():
    prob = scalar_problem([1.0, -1.0])
    g = metropolis_weights(((0, 1),), 2)
    mmap = EuclideanMap(1)
    records = run("ismd", prob, mmap, g, Hyperparams(epochs=105, dt=0.01), metrics_every=20)
    assert [s.step for s in records] == [0, 20, 40, 60, 80, 100, 105]


def test_lambda_stays_in_laplacian_range():
    prob = generate_problem(GeneratorConfig(seed=8, d=2, m=3, n=5, condition_number=4.0))
    g = build_graph(Topology("cyclic", 5))
    mmap = EuclideanMap(2)
    hp = Hyperparams(sigma=0.05, dt=0.01, epochs=400)
    states = run("eismd", prob, mmap, g, hp, seed=0, metrics_every=40)
    proj = np.eye(5) - g.laplacian @ g.lap_pinv  # projector onto null(L)
    for s in states[1:]:
        lam_norm = np.linalg.norm(s.lam)
        assert np.linalg.norm(proj @ s.lam) <= 1e-9 * max(lam_norm, 1e-12)


def test_simplex_iterates_stay_in_open_simplex():
    prob = generate_problem(
        GeneratorConfig(seed=9, d=4, m=5, n=4, condition_number=5.0,
                        shared_minimizer=True, domain="simplex")
    )
    g = build_graph(Topology("cyclic", 4))
    emap = EntropyMap(4)
    hp = Hyperparams(sigma=0.1, dt=0.01, epochs=500)
    states = run("eismd", prob, emap, g, hp, seed=1, metrics_every=1)
    for s in states:
        assert s.x.min() > 0.0
        assert np.max(np.abs(s.x.sum(axis=1) - 1.0)) <= 1e-12


def test_divergence_raises_with_step_index():
    # explicit Euler on a stiff quadratic with a huge step blows up
    prob = DistributedProblem(
        q=np.full((2, 1, 1), 40.0), b=np.zeros((2, 1)), domain="unconstrained"
    )
    g = metropolis_weights(((0, 1),), 2)
    mmap = EuclideanMap(1)
    with pytest.raises(DivergenceError) as err:
        run("eismd", prob, mmap, g, Hyperparams(dt=1.0, epochs=2000), metrics_every=100)
    assert err.value.step > 0
    assert isinstance(err.value.records, list)


def _evolved_with(array, value, particle=1, coordinate=2):
    """z, lam and mu of one (3, 4) state, stacked as a run's buffer holds
    them, all zero but one entry."""
    evolved = np.zeros((3, 3, 4))
    evolved[("z", "lam", "mu").index(array), particle, coordinate] = value
    return evolved


@pytest.mark.parametrize("array", ["z", "lam", "mu"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2e150, -2e150])
def test_finite_guard_flags_bad_entries(array, value):
    err = _divergence(_evolved_with(array, value), 9, [])
    assert err is not None
    assert (err.step, err.array, err.particle, err.coordinate) == (9, array, 1, 2)
    assert np.array_equal(err.value, value, equal_nan=True)


@pytest.mark.parametrize("array", ["z", "lam", "mu"])
@pytest.mark.parametrize("value", [1e150, -1e150])
def test_finite_guard_accepts_the_limit(array, value):
    assert _divergence(_evolved_with(array, value), 9, []) is None


def test_divergence_names_array_particle_and_coordinate():
    # only coordinate 1 of particle 1 is stiff: curvature 40 at dt = 1
    # multiplies it by about -39 per step, while the weak coupling leaks a
    # small multiple of it into the neighbours' coordinate 1
    stiff = np.diag([1.0, np.sqrt(40.0)])
    prob = DistributedProblem(
        q=np.stack([np.eye(2), stiff, np.eye(2)]), b=np.zeros((3, 2)), domain="unconstrained"
    )
    g = metropolis_weights(((0, 1), (1, 2)), 3)
    hp = Hyperparams(epsilon=1e-3, dt=1.0, epochs=500)
    with pytest.raises(DivergenceError) as err:
        run("ismd", prob, EuclideanMap(2), g, hp, seed=3)
    exc = err.value
    assert (exc.array, exc.particle, exc.coordinate) == ("z", 1, 1)
    assert abs(exc.value) > 1e150
    assert "z" in str(exc) and "particle 1, coordinate 1" in str(exc)


def test_self_convergence_order_ratio():
    # terminal error versus a fine reference halves when dt is halved
    prob = generate_problem(GeneratorConfig(seed=10, d=4, m=5, n=4, condition_number=5.0))
    g = build_graph(Topology("cyclic", 4))
    mmap = EuclideanMap(4)

    def terminal(dt, horizon=10.0):
        hp = Hyperparams(dt=dt, epochs=int(round(horizon / dt)))
        return run("eismd", prob, mmap, g, hp, seed=2, metrics_every=10**9)[-1].x

    ref = terminal(0.02 / 16)
    e1 = np.linalg.norm(terminal(0.02) - ref)
    e2 = np.linalg.norm(terminal(0.01) - ref)
    assert 1.5 <= e1 / e2 <= 3.0


GUARD_CASES = {"z": "eismd", "lam": "eismd", "mu": "epismd"}


def _guard_setup():
    prob = generate_problem(GeneratorConfig(seed=4, d=3, m=4, n=5, condition_number=4.0))
    return prob, EuclideanMap(3), build_graph(Topology("cyclic", 5))


def _inject(monkeypatch, algorithm, fill):
    """Make the step function of ``algorithm`` call ``fill`` on each state it
    returns, and collect a copy of each filled state."""
    name = f"{algorithm}_step"
    step_fn = getattr(dynamics, name)
    seen = []

    def filled(*args, **kwargs):
        state = step_fn(*args, **kwargs)
        fill(state)
        seen.append(state.copy())
        return state

    monkeypatch.setattr(dynamics, name, filled)
    return seen


def _run(algorithm, epochs):
    prob, mmap, g = _guard_setup()
    dual = IdentityDual() if algorithm == "epismd" else None
    return run(algorithm, prob, mmap, g, Hyperparams(dt=0.01, epochs=epochs), dual=dual)


def _reference_guard(state):
    """(step, array, particle, coordinate, value) of the first z, then lam,
    then mu entry of ``state`` that is NaN or beyond 1e150, or None."""
    for name in ("z", "lam", "mu"):
        arr = getattr(state, name)
        if arr is None:
            continue
        bad = np.argwhere(np.isnan(arr) | (np.abs(arr) > 1e150))
        if len(bad):
            particle, coordinate = bad[0]
            return (state.step, name, int(particle), int(coordinate),
                    float(arr[particle, coordinate]))
    return None


@pytest.mark.parametrize("array", sorted(GUARD_CASES))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2e150, -2e150, 1e155, 1e200])
def test_guard_names_the_entry_the_reference_guard_names(monkeypatch, array, value):
    algorithm = GUARD_CASES[array]

    later = ("z", "lam", "mu")[("z", "lam", "mu").index(array) + 1:]

    def fill(state):
        # the named entry, one after it in row-major order, and the first
        # entry of each array the guard scans after this one
        getattr(state, array)[2, 1] = getattr(state, array)[3, 0] = value
        for name in later:
            if getattr(state, name) is not None:
                getattr(state, name)[0, 0] = value

    seen = _inject(monkeypatch, algorithm, fill)
    with pytest.raises(DivergenceError) as err:
        _run(algorithm, 10)
    exc = err.value
    want = _reference_guard(seen[-1])
    assert want is not None
    assert (exc.step, exc.array, exc.particle, exc.coordinate) == (1, array, 2, 1)
    assert (exc.step, exc.array, exc.particle, exc.coordinate) == want[:4]
    assert np.array_equal(exc.value, want[4], equal_nan=True)
    assert len(exc.records) == 1


@pytest.mark.parametrize("algorithm", ["eismd", "epismd"])
def test_guard_accepts_a_state_above_the_sum_threshold(monkeypatch, algorithm):
    # every entry of z, lam and mu at 9e149: the sum of squares is far past
    # the fast tier's threshold, yet each entry is inside the limit
    def fill(state):
        for arr in (state.z, state.lam, state.mu):
            if arr is not None:
                arr[...] = 9e149

    _inject(monkeypatch, algorithm, fill)
    records = _run(algorithm, 1)
    assert [s.step for s in records] == [0, 1]
    assert np.all(records[-1].z == 9e149)


def test_guard_raises_on_a_one_step_jump_without_a_warning():
    # block 1's target, and with it its gradient, sits near -1e162: one step
    # of dt = 0.01 moves z[1, 0] to about 1e160
    b = np.zeros((3, 2))
    b[1, 0] = 1e162
    prob = DistributedProblem(q=np.tile(np.eye(2), (3, 1, 1)), b=b, domain="unconstrained")
    g = metropolis_weights(((0, 1), (1, 2)), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            run("eismd", prob, EuclideanMap(2), g, Hyperparams(dt=0.01, epochs=5))
    exc = err.value
    assert (exc.step, exc.array, exc.particle, exc.coordinate) == (1, "z", 1, 0)
    assert exc.value == pytest.approx(1e160, rel=1e-6)

"""Acceptance gate: one test per criterion, each printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Tolerances are the contract; they are asserted, not tuned.
"""

import time

import numpy as np
import pytest

from dismd import objectives
from dismd.diagnostics import (
    MetricsRecorder,
    compute_constants,
    consensus_spread,
    default_c,
    kappa_g_estimate,
    rate_fit,
)
from dismd.dynamics import Hyperparams, ParticleSystem, run
from dismd.graphs import Topology, build_graph, spectra
from dismd.mirror_maps import (
    EntropyMap,
    EuclideanMap,
    IdentityDual,
    QuadraticMap,
    RegularizedDualHessian,
)
from dismd.objectives import (
    DistributedProblem,
    GeneratorConfig,
    generate_problem,
)
from dismd.oracle import solve_simplex, solve_unconstrained
from test_objectives import block_values

DESK = GeneratorConfig(seed=7, d=20, m=20, n=10, condition_number=15.0)


def _report(criterion: str, passed: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _desk_setup(cfg=DESK, topology=None):
    problem = generate_problem(cfg)
    graph = build_graph(topology or Topology("cyclic", cfg.n))
    spec = spectra(graph, 1.0)
    mmap = EuclideanMap(cfg.d)
    opt = solve_unconstrained(problem, graph)
    c = default_c(compute_constants(problem, spec, mmap))
    return problem, graph, spec, mmap, opt, c


def test_criterion_1_eismd_exactness():
    started = time.perf_counter()
    problem, graph, spec, mmap, opt, c = _desk_setup()
    rec = MetricsRecorder(problem, graph, mmap, opt.x_star, opt.lambda_star, c)
    hp = Hyperparams(eta=1.0, epsilon=1.0, sigma=0.0, dt=0.01, epochs=50_000)
    records = run("eismd", problem, mmap, graph, hp, seed=0, metrics_every=500, recorder=rec)
    elapsed = time.perf_counter() - started
    last = records[-1]
    f_gap = abs(last.loss_mean - opt.f_star)
    ok = (
        last.kkt_consensus <= 1e-6
        and last.kkt_primal <= 1e-6
        and f_gap <= 1e-8 * (1.0 + abs(opt.f_star))
        and elapsed < 30.0
    )
    _report(
        "1 EISMD exactness",
        ok,
        f"kkt_consensus={last.kkt_consensus:.2e} kkt_primal={last.kkt_primal:.2e} "
        f"|f-f*|={f_gap:.2e} runtime={elapsed:.1f}s",
    )


def test_criterion_2_ismd_inexactness():
    problem, graph, spec, mmap, opt, c = _desk_setup()
    rec = MetricsRecorder(problem, graph, mmap, opt.x_star, opt.lambda_star, c)
    hp = Hyperparams(eta=1.0, epsilon=1.0, sigma=0.0, dt=0.01, epochs=50_000)
    ismd = run("ismd", problem, mmap, graph, hp, seed=0, metrics_every=1000, recorder=rec)[-1]
    eismd = run("eismd", problem, mmap, graph, hp, seed=0, metrics_every=1000, recorder=rec)[-1]
    ismd_gap = abs(ismd.loss_mean - opt.f_star)
    eismd_gap = abs(eismd.loss_mean - opt.f_star)
    ok = (
        ismd.consensus_spread > 1e-3
        and ismd_gap > 1e-3
        and eismd.consensus_spread < 1e-6
        and eismd_gap < 1e-6
    )
    _report(
        "2 ISMD inexactness",
        ok,
        f"ISMD spread={ismd.consensus_spread:.2e} |f-f*|={ismd_gap:.2e}; "
        f"EISMD spread={eismd.consensus_spread:.2e} |f-f*|={eismd_gap:.2e}",
    )


def test_criterion_3_ismd_exact_under_common_minimizer():
    cfg = GeneratorConfig(seed=5, d=20, m=20, n=10, condition_number=15.0, shared_minimizer=True)
    problem, graph, spec, mmap, opt, c = _desk_setup(cfg)
    assert np.allclose(opt.x_star, problem.minimizer, atol=1e-9)
    rec = MetricsRecorder(problem, graph, mmap, opt.x_star, opt.lambda_star, c)
    hp = Hyperparams(sigma=0.0, dt=0.01, epochs=50_000)
    records = run("ismd", problem, mmap, graph, hp, seed=0, metrics_every=1, recorder=rec)
    b = np.array([r.V1 for r in records])
    increase = float(np.max(b[1:] - b[:-1], initial=0.0))
    ok = b[-1] <= 1e-8 and increase <= 1e-9
    _report(
        "3 ISMD exact with shared minimizer",
        ok,
        f"terminal sum D_phi={b[-1]:.2e} max per-step increase={increase:.2e}",
    )


def test_criterion_4_lyapunov_monotone_linear_rate():
    problem, graph, spec, mmap, opt, c = _desk_setup()
    rec = MetricsRecorder(problem, graph, mmap, opt.x_star, opt.lambda_star, c)
    hp = Hyperparams(sigma=0.0, dt=1e-3, epochs=60_000)
    records = run("eismd", problem, mmap, graph, hp, seed=0, metrics_every=1, recorder=rec)
    ts = np.array([r.t for r in records])
    vs = np.array([r.V for r in records])
    slack = 1e-8 * (1.0 + vs[:-1])
    worst = float(np.max(vs[1:] - vs[:-1] - slack))
    fit = rate_fit(ts, vs, window=0.5)
    ok = worst <= 0.0 and fit.r > 0.0 and fit.r_squared >= 0.9
    _report(
        "4 Lyapunov monotone + linear rate",
        ok,
        f"worst slack-violation={worst:.2e} r={fit.r:.4f} R2={fit.r_squared:.4f}",
    )


def test_criterion_5_noise_floor_sigma_squared_scaling():
    problem, graph, spec, mmap, opt, c = _desk_setup()
    rec = MetricsRecorder(problem, graph, mmap, opt.x_star, opt.lambda_star, c)
    sigmas, seeds = (0.05, 0.1), range(5)
    # the ten runs, five seeds per sigma, as the replicas of one batch
    hps = [Hyperparams(sigma=sigma, dt=0.01, epochs=20_000) for sigma in sigmas for _ in seeds]
    outcomes = run(
        "eismd", problem, mmap, graph, hps, seed=[seed for _ in sigmas for seed in seeds],
        metrics_every=20, recorder=[rec] * len(hps),
    )
    tails = []
    for records in outcomes:
        v = np.array([r.V for r in records])
        tails.append(v[int(0.8 * len(v)):].mean())
    k = len(seeds)
    floors = {sigma: float(np.mean(tails[i * k:(i + 1) * k])) for i, sigma in enumerate(sigmas)}
    ratio = floors[0.1] / floors[0.05]
    ok = 2.0 <= ratio <= 8.0
    _report(
        "5 noise floor scales with sigma^2",
        ok,
        f"floor(0.05)={floors[0.05]:.3f} floor(0.1)={floors[0.1]:.3f} ratio={ratio:.2f}",
    )


def _stiff_barbell_problem(seed=11, d=20, m=20, n=10, cond=15.0, scale=1.0):
    # the generator's problem with its singular values at geometric mean
    # ``scale``, so the objective is stiff relative to the barbell's weak
    # algebraic connectivity, the regime the dual preconditioner is designed for
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objectives, "SV_SCALE", scale)
        return generate_problem(GeneratorConfig(seed=seed, d=d, m=m, n=n, condition_number=cond))


def test_criterion_6_dual_preconditioning_speedup():
    problem = _stiff_barbell_problem()
    graph = build_graph(Topology("barbell", 10, cluster=5))
    spec = spectra(graph, 1.0)
    dual = RegularizedDualHessian(spectra(graph, 0.01), problem)
    mmap = EuclideanMap(20)
    opt = solve_unconstrained(problem, graph)
    c_e = default_c(compute_constants(problem, spec, mmap))
    c_p = default_c(compute_constants(problem, spec, mmap, dual))
    rec_e = MetricsRecorder(problem, graph, mmap, opt.x_star, opt.lambda_star, c_e)
    rec_p = MetricsRecorder(problem, graph, mmap, opt.x_star, opt.lambda_star, c_p, dual=dual)

    def first_crossing(records, thresh=1e-4):
        for r in records:
            if r.kkt_primal <= thresh:
                return r.step
        return None

    epi = run(
        "epismd", problem, mmap, graph, Hyperparams(sigma=0.0, dt=0.01, epochs=40_000),
        seed=3, dual=dual, metrics_every=100, recorder=rec_p,
    )
    k_epi = first_crossing(epi)
    # prove "strictly fewer steps" by running the unpreconditioned dynamics
    # far past the preconditioned crossing without reaching the threshold
    eis = run(
        "eismd", problem, mmap, graph, Hyperparams(sigma=0.0, dt=0.01, epochs=120_000),
        seed=3, metrics_every=100, recorder=rec_e,
    )
    k_eis = first_crossing(eis)
    speedup_ok = k_epi is not None and (k_eis is None or k_epi < k_eis)

    hp = Hyperparams(sigma=0.0, dt=0.01, epochs=2_000)
    a = run("eismd", problem, mmap, graph, hp, seed=3, metrics_every=100)
    b = run("epismd", problem, mmap, graph, hp, seed=3, dual=IdentityDual(), metrics_every=100)
    bitwise = all(
        np.array_equal(sa.z, sb.z)
        and np.array_equal(sa.x, sb.x)
        and np.array_equal(sa.lam, sb.lam)
        for sa, sb in zip(a, b)
    )
    ok = speedup_ok and bitwise
    _report(
        "6 dual preconditioning speedup",
        ok,
        f"EPISMD crossing={k_epi} EISMD crossing={k_eis} "
        f"(EISMD kkt after 120k: {eis[-1].kkt_primal:.2e}); identity bitwise={bitwise}",
    )


def test_criterion_7_simplex_entropy_run():
    cfg = GeneratorConfig(
        seed=9, d=10, m=10, n=10, condition_number=15.0,
        shared_minimizer=True, domain="simplex",
    )
    problem = generate_problem(cfg)
    graph = build_graph(Topology("cyclic", 10))
    mmap = EntropyMap(10)
    opt = solve_simplex(problem, graph)
    assert opt.x_star.min() > 0  # interior-optimum instance
    # c scales V alone, and only V1 is read
    rec = MetricsRecorder(problem, graph, mmap, opt.x_star, opt.lambda_star, c=1.0)

    def recorder(snaps):
        """(V1, min coordinate, max |row sum - 1|) of each snapshot of a block."""
        v1 = [r.V1 for r in rec(snaps)]
        min_coord = snaps.x.min(axis=(1, 2))
        sum_err = np.max(np.abs(snaps.x.sum(axis=2) - 1.0), axis=1)
        return zip(v1, min_coord.tolist(), sum_err.tolist())

    hp = Hyperparams(eta=30.0, epsilon=15.0, sigma=0.0, dt=0.02, epochs=100_000)
    series = run("eismd", problem, mmap, graph, hp, seed=0, metrics_every=1, recorder=recorder)
    terminal = series[-1][0]
    min_coord = min(p[1] for p in series)
    sum_err = max(p[2] for p in series)
    ok = terminal <= 1e-6 and min_coord > 0.0 and sum_err <= 1e-12
    _report(
        "7 simplex entropy run",
        ok,
        f"terminal sum D_phi={terminal:.2e} min coordinate={min_coord:.2e} "
        f"max |sum-1|={sum_err:.2e}",
    )


def _random_small_graph(rng, n):
    kind = rng.choice(["cyclic", "erdos_renyi", "barbell"])
    if kind == "barbell" and n >= 2:
        c = max(1, n // 2)
        return build_graph(Topology("barbell", 2 * c, cluster=c, seed=int(rng.integers(1e6))))
    if kind == "erdos_renyi" and n >= 2:
        return build_graph(Topology("erdos_renyi", n, p=0.7, seed=int(rng.integers(1e6))))
    return build_graph(Topology("cyclic", n))


def test_criterion_8_math_kernel_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    trials = 100

    # graph + spectral invariants
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        g = _random_small_graph(rng, n)
        n = g.n
        beta = float(rng.uniform(0.05, 4.0))
        s = spectra(g, beta)
        assert np.max(np.abs(g.adjacency.sum(axis=0) - 1.0)) <= 1e-12
        assert np.max(np.abs(g.adjacency.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(g.laplacian @ np.ones(n))) <= 1e-12
        eigs = np.linalg.eigvalsh(g.laplacian)
        assert eigs[0] >= -1e-12 and eigs[1] > 1e-10
        lap = g.laplacian
        assert np.max(np.abs(lap @ g.lap_pinv @ lap - lap)) <= 1e-10
        assert np.max(np.abs(g.lap_pinv @ lap @ g.lap_pinv - g.lap_pinv)) <= 1e-10
        assert np.max(np.abs(np.linalg.inv(s.lap_beta) - s.lap_beta_inv)) <= 1e-8
        d = int(rng.integers(1, 5))
        x = rng.standard_normal((n, d))
        lx = lap @ x
        assert float(np.vdot(x, lx)) >= float(np.vdot(lx, lx)) / s.kappa_beta - 1e-9
        if n * d <= 64:
            stacked = rng.standard_normal(n * d)
            dense = np.kron(lap, np.eye(d)) @ stacked
            got = (lap @ stacked.reshape(n, d)).ravel()
            assert np.max(np.abs(got - dense)) <= 1e-12

    # Bregman / mirror map invariants
    for _ in range(trials):
        d = int(rng.integers(1, 5))
        p = rng.standard_normal((d, d))
        p = p @ p.T + d * np.eye(d)
        maps = [EuclideanMap(d), EntropyMap(d), QuadraticMap(p)]
        for m in maps:
            if m.kind == "entropy":
                x, y, w = (rng.dirichlet(np.ones(d)) for _ in range(3))
            else:
                x, y, w = (rng.standard_normal(d) for _ in range(3))
            assert np.max(np.abs(m.backward(m.forward(x)) - x)) <= 1e-10
            lhs = float((x - y) @ (m.forward(w) - m.forward(y)))
            rhs = float(m.bregman(x, y) + m.bregman(y, w) - m.bregman(x, w))
            assert abs(lhs - rhs) <= 1e-9
            assert float(m.bregman(x, y)) >= -1e-12
            # central finite differences of the map value
            x0 = 0.5 * x + 0.5 / d if m.kind == "entropy" else x
            g = m.forward(x0)
            h = 1e-6
            j = int(rng.integers(d))
            e = np.zeros(d)
            e[j] = h
            fd = (float(m.value(x0 + e)) - float(m.value(x0 - e))) / (2 * h)
            assert abs(fd - float(g[j])) <= 1e-5 * (1.0 + abs(float(g[j])))

    # objective gradient / Hessian finite differences
    for _ in range(trials):
        d = int(rng.integers(1, 5))
        m_rows = d + int(rng.integers(0, 3))
        prob = DistributedProblem(
            q=rng.standard_normal((1, m_rows, d)),
            b=rng.standard_normal((1, m_rows)),
            domain="unconstrained",
        )
        x = rng.standard_normal((1, d))
        h = 1e-6
        grad = prob.grads(x)[0]
        hess = prob.hess_blocks()[0]
        for j in range(d):
            e = np.zeros((1, d))
            e[0, j] = h
            fd = (block_values(prob, x + e)[0] - block_values(prob, x - e)[0]) / (2 * h)
            assert abs(fd - grad[j]) <= 1e-5 * (1.0 + abs(grad[j]))
            col = (prob.grads(x + e)[0] - prob.grads(x - e)[0]) / (2 * h)
            assert np.max(np.abs(col - hess[:, j])) <= 1e-5 * (1.0 + np.max(np.abs(hess)))

    # Lyapunov bounds (Euclidean case) on 1000 random pairs per instance
    lyap_trials = 100
    pairs = 1000
    for trial in range(lyap_trials):
        d = int(rng.integers(1, 5))
        cond = float(rng.uniform(1.0, 10.0)) if d >= 2 else 1.0
        g = _random_small_graph(rng, int(rng.integers(2, 7)))
        n = g.n
        prob = generate_problem(
            GeneratorConfig(seed=trial, d=d, m=d + 1, n=n, condition_number=cond)
        )
        spec = spectra(g, float(rng.uniform(0.1, 3.0)))
        mmap = EuclideanMap(d)
        opt = solve_unconstrained(prob, g)
        cst = compute_constants(prob, spec, mmap)
        c = default_c(cst)
        kg = kappa_g_estimate(mmap, np.broadcast_to(opt.x_star, (n, d)))
        evals, evecs = np.linalg.eigh(g.laplacian)
        basis = evecs[:, evals > 1e-12]
        hf = prob.hess_blocks()

        dx = rng.standard_normal((pairs, n, d)) * rng.uniform(0.05, 3.0, (pairs, 1, 1))
        dl = np.einsum(
            "nr,prd->pnd", basis, rng.standard_normal((pairs, basis.shape[1], d))
        ) * rng.uniform(0.05, 3.0, (pairs, 1, 1))
        x = opt.x_star + dx
        lam = opt.lambda_star + dl
        # vectorized Lyapunov terms for the Euclidean map
        v1 = 0.5 * np.sum(dx**2, axis=(1, 2))
        v2 = 0.5 * np.sum(dl**2, axis=(1, 2))
        d_f = 0.5 * np.einsum("pni,nij,pnj->p", dx, hf, dx)
        lap_dl = np.einsum("nm,pmd->pnd", g.laplacian, dl)
        lap_x = np.einsum("nm,pmd->pnd", g.laplacian, x)
        v3 = d_f + np.sum(dx * lap_dl, axis=(1, 2)) + 0.5 * np.sum(x * lap_x, axis=(1, 2))
        v = c * (v1 + v2) + v3
        dxn = np.sum(dx**2, axis=(1, 2))
        dln = np.sum(dl**2, axis=(1, 2))
        lower = 0.5 * (cst.mu_phi * c - cst.kappa_n) * dxn + 0.5 * (c - cst.kappa_n) * dln
        assert np.all(v >= -1e-9)
        assert np.all(v >= lower - 1e-9)
        upper = (c + (3 * cst.kappa_n + 2 * cst.alpha_phi) / cst.mu_hat) * (v1 + 2.0 * v2)
        assert np.all(v <= upper + 1e-9)
        # residual A d for A = [H_f + L, L]: L x = L dx since x* is a consensus
        # point; bounded below with the sampled kappa_g estimate and above by
        # |H_f + L| <= l_f + kappa_n and |L| <= kappa_n
        resid = np.einsum("nij,pnj->pni", hf, dx) + lap_dl + lap_x
        lhs = np.sum(resid**2, axis=(1, 2))
        rhs = (2.0 * kg / cst.mu_hat) * (v1 + v2)
        assert np.all(lhs >= rhs - 1e-9)
        bound = 4 * (cst.l_f + cst.kappa_n) ** 2 * v1 + 4 * cst.kappa_n**2 * v2
        assert np.all(lhs <= bound * (1 + 1e-9))
        # spot check the vectorized forms against the recorder's Lyapunov function
        if trial % 20 == 0:
            st = ParticleSystem(z=x[0], x=x[0], lam=lam[0], mu=None, step=0, t=0.0)
            rec = MetricsRecorder(prob, g, mmap, opt.x_star, opt.lambda_star, c)
            vv = rec(st[None])[0].V
            assert vv == pytest.approx(float(v[0]), rel=1e-9, abs=1e-9)

    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    _report(
        "8 math-kernel invariant suite",
        ok,
        f"{trials} instances per property, runtime={elapsed:.1f}s (< 60s)",
    )


def test_criterion_9_discretization_self_consistency():
    problem, graph, spec, mmap, opt, c = _desk_setup()

    def terminal_x(dt, horizon=20.0):
        hp = Hyperparams(sigma=0.0, dt=dt, epochs=int(round(horizon / dt)))
        return run("eismd", problem, mmap, graph, hp, seed=1, metrics_every=10**9)[-1].x

    ref = terminal_x(0.02 / 16)
    e1 = float(np.linalg.norm(terminal_x(0.02) - ref))
    e2 = float(np.linalg.norm(terminal_x(0.01) - ref))
    ratio = e1 / e2
    ok = 1.5 <= ratio <= 3.0
    _report(
        "9 discretization self-consistency",
        ok,
        f"error(dt)={e1:.3e} error(dt/2)={e2:.3e} ratio={ratio:.2f}",
    )

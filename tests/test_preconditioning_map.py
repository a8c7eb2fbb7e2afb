"""Where the dual-Hessian preconditioner pays: exact rates of eismd and epismd.

On a quadratic problem under the euclidean map, one noise-free step is
affine, s -> A s + b (``test_linear_reference.affine_step``). A keeps the
multiplier's mean over particles, so it leaves invariant the subspace of z
free and multipliers of zero particle mean, Q = blockdiag(I, U ⊗ I_d) with U
an orthonormal basis of 1⊥. The dynamics converge at the rate set by the
spectral radius ρ of A_r = QᵀAQ, the step restricted there: r = 2(−ln ρ)/dt,
the decay rate of V. The projection removes exactly the d unit eigenvalues
of the invariant mean; a tolerance on |eig − 1| would also drop slow modes.

The grid covers criterion 6's stiff barbell, its singular values scaled by
s, and generated barbells of growing cluster size at two condition numbers,
all at dt = 0.01 with dual beta = 0.01. epismd's rate is set by the
objective's conditioning and barely moves with the graph; eismd's falls with
the graph's connectivity. So epismd wins on stiff problems and large
clusters, and eismd on the generator's own scale and small clusters.

Under noise sigma on z, the mean settles at the noise-free fixed point and
the covariance at the solution of Σ = A_r Σ A_rᵀ + W, with W = σ²dt·I on the
z block, found by Smith doubling. The stationary E‖x − x*‖² is then tr Σ_zz,
a metric both dynamics share (V is map-weighted for epismd). On every case
epismd's is a little below eismd's, so the preconditioner moves the time to
the noise floor, not the floor. A seeded simulation of epismd on the stiff
barbell at s = 1 settles at that floor.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from dismd import dynamics, harness, oracle
from dismd.config import load_config
from dismd.graphs import Topology, build_graph, spectra
from dismd.mirror_maps import EuclideanMap, RegularizedDualHessian
from dismd.objectives import SV_SCALE, GeneratorConfig, generate_problem
from test_acceptance import _stiff_barbell_problem
from test_kernel_reference import CONFIGS
from test_linear_reference import affine_step

DT = 0.01
DUAL_BETA = 0.01
# each config's step at dt = 0.01, eta = epsilon = 1, coupling on x
STEPS = {"eismd": "problem_a_eismd", "epismd": "barbell_epismd"}
SCALES = (0.1, 0.3, 1.0, 3.0)
CLUSTERS = (3, 5, 8, 12)
KAPPAS = (15.0, 100.0)
# (eismd, epismd) rates measured from the exact operators, 3 significant figures
MEASURED = {
    ("stiff", 0.1): (0.0238, 0.00149),
    ("stiff", 0.3): (0.00957, 0.0134),
    ("stiff", 1.0): (0.000934, 0.150),
    ("stiff", 3.0): (0.000105, 1.34),
    (15.0, 3): (0.0742, 0.00625),
    (15.0, 5): (0.0237, 0.00550),
    (15.0, 8): (0.00427, 0.00524),
    (15.0, 12): (0.00114, 0.00529),
    (100.0, 3): (0.0151, 0.000949),
    (100.0, 5): (0.00470, 0.000826),
    (100.0, 8): (0.000767, 0.000787),
    (100.0, 12): (0.000195, 0.000794),
}
SHIPPED = ("shipped", "barbell_epismd")  # the config's own problem and graph
SHIPPED_RATES = (0.0199, 0.00596)
SIGMA = 0.1
# (eismd, epismd) stationary E‖x − x*‖² at sigma = 0.1, 3 significant figures
FLOORS = {
    SHIPPED: (2.53, 2.27),
    ("stiff", 0.1): (5.99, 5.61),
    ("stiff", 1.0): (0.611, 0.583),
    (15.0, 3): (0.401, 0.343),
    (15.0, 12): (0.654, 0.614),
    (100.0, 12): (0.45, 0.435),
}
# the simulated floor: epismd on the stiff barbell at s = 1 from x = 0, one
# seeded replica each, ||x - x*||^2 recorded every SIM_EVERY steps and averaged
# over the second half of SIM_STEPS
SIM_CASE = ("stiff", 1.0)
SIM_SEEDS = range(100, 108)
SIM_STEPS = 10_000
SIM_EVERY = 10
# content_hash() of the stiff barbell at each scale
STIFF_HASHES = {
    0.1: "be1fe91406400dbfbcf26511a23442ef3204c7f7154d8c1dfbc18d1de5ba2468",
    0.3: "f5cd638e3c795279673b6ae235ac8706bb40d3e4568939aa3eded2c99657a44b",
    1.0: "c462dd72eec99f29efa27bd4dabc02c2b9bed8a06c868226dde55fee14b65d47",
    3.0: "d371154cfaf5949ac6c95d34a4a1ca68f50a4bbf3c94108debf3a4030485538e",
}


def _problem(case):
    """(problem, cluster size) of a grid case."""
    if case == SHIPPED:
        cfg = load_config(CONFIGS / f"{case[1]}.ini")
        return harness.build_problem(cfg), cfg["graph"]["cluster"]
    if case[0] == "stiff":
        return _stiff_barbell_problem(scale=case[1]), 5
    kappa, cluster = case
    config = GeneratorConfig(seed=11, d=4, m=4, n=2 * cluster, condition_number=kappa)
    return generate_problem(config), cluster


def restricted_operators(case) -> tuple[int, dict[str, tuple[np.ndarray, float]]]:
    """(n·d, name -> (A_r, leak ‖AQ − QA_r‖ / ‖A‖)) of both dynamics on
    ``case``; the first n·d coordinates of A_r are z's."""
    problem, cluster = _problem(case)
    n, d = problem.n, problem.d
    graph = build_graph(Topology("barbell", n, cluster=cluster))
    setup = SimpleNamespace(problem=problem, mmap=EuclideanMap(d), graph=graph,
                            dual=RegularizedDualHessian(spectra(graph, DUAL_BETA), problem))
    basis = np.linalg.qr(np.eye(n)[:, :-1] - 1.0 / n)[0]  # orthonormal, spans 1-perp
    q = np.zeros((2 * n * d, (2 * n - 1) * d))
    q[:n * d, :n * d] = np.eye(n * d)
    q[n * d:, n * d:] = np.kron(basis, np.eye(d))
    out = {}
    for name, stem in STEPS.items():
        cfg = load_config(CONFIGS / f"{stem}.ini")
        assert cfg.hyperparams().dt == DT
        a = affine_step(setup, cfg)[:-1, :-1]
        a_r = q.T @ a @ q
        leak = np.linalg.norm(a @ q - q @ a_r) / np.linalg.norm(a)
        out[name] = (a_r, float(leak))
    return n * d, out


def stationary_covariance(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Σ = Σ_k A^k W (A^k)ᵀ, which solves Σ = A Σ Aᵀ + W, by Smith doubling:
    Σ += A Σ Aᵀ, then A = A², until A has vanished."""
    sigma = w.copy()
    for _ in range(64):
        sigma += a @ sigma @ a.T
        a = a @ a
        if np.linalg.norm(a) <= 1e-20:
            return sigma
    raise AssertionError("Smith doubling did not converge in 64 doublings")


@pytest.fixture(scope="module")
def operators():
    return {case: restricted_operators(case) for case in (*MEASURED, SHIPPED)}


@pytest.fixture(scope="module")
def rates(operators):
    """case -> name -> (rate, leak) on the grid and the shipped barbell."""
    out = {}
    for case, (_, by_name) in operators.items():
        out[case] = {}
        for name, (a_r, leak) in by_name.items():
            rho = np.max(np.abs(np.linalg.eigvals(a_r)))
            out[case][name] = (2.0 * -np.log(rho) / DT, leak)
    return out


@pytest.fixture(scope="module")
def floors(operators):
    """case -> name -> (E‖x − x*‖², residual ‖A_r Σ A_rᵀ + W − Σ‖ / ‖Σ‖) at sigma."""
    out = {}
    for case in FLOORS:
        nz, by_name = operators[case]
        out[case] = {}
        for name, (a_r, _) in by_name.items():
            w = np.zeros_like(a_r)
            w[range(nz), range(nz)] = SIGMA**2 * DT
            sigma = stationary_covariance(a_r, w)
            residual = np.linalg.norm(a_r @ sigma @ a_r.T + w - sigma) / np.linalg.norm(sigma)
            out[case][name] = (float(np.trace(sigma[:nz, :nz])), float(residual))
    return out


def _ratio(rates, case):
    return rates[case]["epismd"][0] / rates[case]["eismd"][0]


def test_the_restriction_keeps_the_invariant_subspace(rates):
    leaks = [leak for by_name in rates.values() for _, leak in by_name.values()]
    assert max(leaks) <= 1e-14


@pytest.mark.parametrize("case", MEASURED, ids=lambda c: f"{c[0]}-{c[1]}")
def test_each_rate_equals_its_measured_value(rates, case):
    got = tuple(float(f"{rates[case][name][0]:.3g}") for name in STEPS)
    assert got == MEASURED[case]


def test_the_shipped_barbell_rates_equal_their_measured_values(rates):
    got = tuple(float(f"{rates[SHIPPED][name][0]:.3g}") for name in STEPS)
    assert got == SHIPPED_RATES


def test_the_preconditioner_gains_with_stiffness_and_cluster_size(rates):
    stiff = [_ratio(rates, ("stiff", s)) for s in SCALES]
    assert all(a < b for a, b in zip(stiff, stiff[1:]))
    for kappa in KAPPAS:
        ratios = [_ratio(rates, (kappa, c)) for c in CLUSTERS]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_each_dynamics_wins_where_measured(rates):
    eismd_wins = [("stiff", 0.1), *((kappa, 3) for kappa in KAPPAS)]
    epismd_wins = [("stiff", 1.0), ("stiff", 3.0), *((kappa, 12) for kappa in KAPPAS)]
    assert all(_ratio(rates, case) < 1 for case in eismd_wins)
    assert all(_ratio(rates, case) > 1 for case in epismd_wins)


def test_the_preconditioned_rate_follows_conditioning_not_the_graph(rates):
    epismd = {case: by_name["epismd"][0] for case, by_name in rates.items()}
    for kappa in KAPPAS:
        over_clusters = [epismd[kappa, c] for c in CLUSTERS]
        assert max(over_clusters) <= 1.25 * min(over_clusters)
    for c in CLUSTERS:
        assert 6.0 <= epismd[15.0, c] / epismd[100.0, c] <= 7.5


@pytest.mark.parametrize("scale", SCALES)
def test_the_stiff_barbell_keeps_its_problem(scale):
    assert _stiff_barbell_problem(scale=scale).content_hash() == STIFF_HASHES[scale]


def test_the_shipped_barbell_is_the_stiff_barbell_at_the_generator_scale():
    shipped, cluster = _problem(SHIPPED)
    assert cluster == 5
    assert shipped.content_hash() == _stiff_barbell_problem(scale=SV_SCALE).content_hash()


def test_smith_doubling_solves_the_stationary_equation(floors):
    residuals = [residual for by_name in floors.values() for _, residual in by_name.values()]
    assert max(residuals) <= 1e-14


@pytest.mark.parametrize("case", FLOORS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_each_stationary_error_equals_its_measured_value(floors, case):
    got = tuple(float(f"{floors[case][name][0]:.3g}") for name in STEPS)
    assert got == FLOORS[case]


def test_the_preconditioner_does_not_raise_the_noise_floor(floors):
    for case, by_name in floors.items():
        assert by_name["epismd"][0] <= by_name["eismd"][0], case


def test_simulated_noise_floor_matches_the_exact_one(floors):
    problem, cluster = _problem(SIM_CASE)
    graph = build_graph(Topology("barbell", problem.n, cluster=cluster))
    dual = RegularizedDualHessian(spectra(graph, DUAL_BETA), problem)
    cfg = load_config(CONFIGS / f"{STEPS['epismd']}.ini").with_values(
        {"hyperparams.sigma": SIGMA, "hyperparams.epochs": SIM_STEPS})
    assert cfg.hyperparams().dt == DT
    x_star = oracle.solve_unconstrained(problem, graph).x_star

    def squared_error(snaps):
        dx = snaps.x - x_star
        return np.einsum("bnd,bnd->b", dx, dx).tolist()

    seeds = list(SIM_SEEDS)
    outcomes = dynamics.run(
        "epismd", problem, EuclideanMap(problem.d), graph, [cfg.hyperparams()] * len(seeds),
        seed=seeds, dual=dual, interaction_on=cfg["algorithm"]["interaction_on"],
        metrics_every=SIM_EVERY, recorder=[squared_error] * len(seeds),
        x0_rows=[np.zeros((problem.n, problem.d))] * len(seeds),
    )
    errors = np.array(outcomes)
    assert errors.shape == (len(seeds), SIM_STEPS // SIM_EVERY + 1)
    tails = errors[:, errors.shape[1] // 2:].mean(axis=1)
    se = tails.std(ddof=1) / np.sqrt(len(seeds))
    exact = floors[SIM_CASE]["epismd"][0]
    assert abs(tails.mean() - exact) <= 3.0 * se, (tails.mean(), se, exact)

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
"""

from types import SimpleNamespace

import numpy as np
import pytest

from dismd.config import load_config
from dismd.graphs import Topology, build_graph, spectra
from dismd.mirror_maps import EuclideanMap, RegularizedDualHessian
from dismd.objectives import GeneratorConfig, generate_problem
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


def _problem(case):
    """(problem, cluster size) of a grid case."""
    if case[0] == "stiff":
        return _stiff_barbell_problem(scale=case[1]), 5
    kappa, cluster = case
    config = GeneratorConfig(seed=11, d=4, m=4, n=2 * cluster, condition_number=kappa)
    return generate_problem(config), cluster


def exact_rates(case) -> dict[str, tuple[float, float]]:
    """name -> (rate, leak ‖AQ − QA_r‖ / ‖A‖) of both dynamics on ``case``."""
    problem, cluster = _problem(case)
    n, d = problem.n, problem.d
    graph = build_graph(Topology("barbell", n, cluster=cluster))
    setup = SimpleNamespace(problem=problem, mmap=EuclideanMap(d), graph=graph,
                            dual=RegularizedDualHessian(spectra(graph, DUAL_BETA),
                                                        problem.hess_blocks()))
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
        rho = np.max(np.abs(np.linalg.eigvals(a_r)))
        out[name] = (2.0 * -np.log(rho) / DT, float(leak))
    return out


@pytest.fixture(scope="module")
def rates():
    return {case: exact_rates(case) for case in MEASURED}


def _ratio(rates, case):
    return rates[case]["epismd"][0] / rates[case]["eismd"][0]


def test_the_restriction_keeps_the_invariant_subspace(rates):
    leaks = [leak for by_name in rates.values() for _, leak in by_name.values()]
    assert max(leaks) <= 1e-14


@pytest.mark.parametrize("case", MEASURED, ids=lambda c: f"{c[0]}-{c[1]}")
def test_each_rate_equals_its_measured_value(rates, case):
    got = tuple(float(f"{rates[case][name][0]:.3g}") for name in STEPS)
    assert got == MEASURED[case]


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

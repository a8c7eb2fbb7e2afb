"""The recorder's objective columns against independent references.

``loss_mean``, ``loss_best`` and ``loss_worst`` are checked against the
residual form sum_i ||Q_i x - b_i||^2 / 2 evaluated row by row, and ``V3``
against

    sum_i ||Q_i dx_i||^2 / 2 + <dx, L (lam - lam*)> + <dx, L dx> / 2,

with dx = x - x*, a form in which no term is a difference of large sums.
Each case puts every particle at a fixed distance from x* (and the
multipliers at the same distance from lam*) on one of the shipped set-ups:
problem_a_eismd with f* >> 0, the same instance drawn with a shared
minimizer (f* = 0), the barbell, and the simplex problem, whose particles
move from x* towards random simplex points, so that the largest distance it
reaches is the move onto those points. The tolerance is 1e-12 relative or
1e-15 absolute.

``V1`` (and ``bregman_to_opt``, the same value) is checked against
sum_i ||x^i - x*||^2 / 2 for the euclidean map, and for the entropy map
against sum_ij x*_j ln(x*_j / x_ij) - x*_j + x_ij, the KL divergence plus the
rows' mass difference, in 50-digit decimals. The recorder evaluates
phi(x*) - phi(x) - <grad phi(x), x* - x>, which cancels near x*: the cases
it fails are strict xfails, each with its measured |error| / tolerance.
"""

from decimal import Decimal, localcontext
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from dismd import harness
from dismd.config import load_config
from dismd.dynamics import ParticleSystem
from test_kernel_reference import with_values

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REL_TOL = 1e-12
ABS_TOL = 1e-15
DISTANCES = (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e3)
SIMPLEX_DISTANCES = (1e-8, 1e-6, 1e-4, 1e-2, 1.0)  # 1.0 reaches the random simplex points

SETUPS = {
    "problem_a_eismd": ("problem_a_eismd", {}),
    "problem_a_shared": ("problem_a_eismd", {"problem.shared_minimizer": True}),
    "barbell_epismd": ("barbell_epismd", {}),
    "problem_b_simplex": ("problem_b_simplex", {}),
}


@lru_cache(maxsize=None)
def _setup(name):
    stem, overrides = SETUPS[name]
    return harness.prepare(with_values(load_config(CONFIGS / f"{stem}.ini"), overrides))


def _state(name, dist):
    """Particles at distance ``dist`` from x*, multipliers at ``dist`` from lam*."""
    setup = _setup(name)
    rec = setup.recorder
    n, d = setup.problem.n, setup.problem.d
    rng = np.random.default_rng(2026)
    if setup.problem.domain == "simplex":
        x = rec.x_star + dist * (rng.dirichlet(np.ones(d), size=n) - rec.x_star)
    else:
        u = rng.standard_normal((n, d))
        x = rec.x_star + dist * u / np.linalg.norm(u, axis=1, keepdims=True)
    w = rng.standard_normal((n, d))
    lam = rec.lambda_star + dist * w / np.linalg.norm(w, axis=1, keepdims=True)
    return ParticleSystem(z=x.copy(), x=x, lam=lam, mu=None, step=0, t=0.0)


def _residual_losses(problem, x_rows):
    r = np.einsum("imd,kd->kim", problem.q, x_rows) - problem.b
    return 0.5 * np.einsum("kim,kim->k", r, r)


def _centred_v3(setup, state):
    rec, lap = setup.recorder, setup.graph.laplacian
    dx = state.x - rec.x_star
    qdx = np.einsum("imd,id->im", setup.problem.q, dx)
    d_f = 0.5 * float(np.sum(qdx * qdx))
    coupling = float(np.sum(dx * (lap @ (state.lam - rec.lambda_star))))
    consensus = 0.5 * float(np.sum(dx * (lap @ dx)))
    return d_f + coupling + consensus


def _exact_v1(setup, x):
    x_star = setup.recorder.x_star
    if setup.mmap.kind == "euclidean":
        dx = x - x_star
        return 0.5 * float(np.sum(dx * dx))
    with localcontext() as ctx:
        ctx.prec = 50
        star = [Decimal(a) for a in x_star.tolist()]
        total = Decimal(0)
        for row in x.tolist():
            for a, b in zip(star, map(Decimal, row)):
                total += (a * (a.ln() - b.ln()) if a else 0) - a + b
        return float(total)


def _assert_close(got, want):
    assert abs(got - want) <= REL_TOL * abs(want) + ABS_TOL, (got, want, abs(got - want))


CASES = [
    (name, dist)
    for name in SETUPS
    for dist in (SIMPLEX_DISTANCES if name == "problem_b_simplex" else DISTANCES)
]


def _ids(cases):
    return [f"{name}-{dist:g}" for name, dist in cases]


@pytest.mark.parametrize("name, dist", CASES, ids=_ids(CASES))
def test_recorder_losses_match_residual_form(name, dist):
    setup = _setup(name)
    state = _state(name, dist)
    record = setup.recorder(state)
    rows = _residual_losses(setup.problem, state.x)
    _assert_close(record.loss_best, float(rows.min()))
    _assert_close(record.loss_worst, float(rows.max()))
    mean = _residual_losses(setup.problem, state.x.mean(axis=0)[None])[0]
    _assert_close(record.loss_mean, float(mean))


@pytest.mark.parametrize("name, dist", CASES, ids=_ids(CASES))
def test_recorder_v3_matches_centred_form(name, dist):
    setup = _setup(name)
    state = _state(name, dist)
    _assert_close(setup.recorder(state).V3, _centred_v3(setup, state))


def test_recorder_rejects_negative_simplex_coordinates():
    setup = _setup("problem_b_simplex")
    state = _state("problem_b_simplex", 1.0)
    x = state.x.copy()
    x[0, 0] = -1e-3
    with pytest.raises(ValueError, match="negative"):
        setup.recorder(ParticleSystem(z=x, x=x, lam=state.lam, mu=None, step=0, t=0.0))


# |error| / tolerance of the recorder's V1 where it fails the reference
V1_CANCELS = {
    ("problem_a_eismd", 1e-8): 22.1,
    ("problem_a_eismd", 1e-6): 14.0,
    ("problem_a_eismd", 1e-4): 19.8,
    ("problem_a_eismd", 1e-2): 14.6,
    ("problem_a_shared", 1e-8): 1.76,
    ("problem_a_shared", 1e-6): 4.53,
    ("problem_a_shared", 1e-4): 3.22,
    ("barbell_epismd", 1e-8): 2.40,
    ("barbell_epismd", 1e-6): 3.82,
    ("barbell_epismd", 1e-4): 3.07,
    ("barbell_epismd", 1e-2): 3.91,
}
V1_CASES = [
    pytest.param(
        name, dist, id=f"{name}-{dist:g}",
        marks=[pytest.mark.xfail(
            strict=True,
            reason=f"V1 cancels near x*: |error| / tolerance = {V1_CANCELS[name, dist]}",
        )] if (name, dist) in V1_CANCELS else [],
    )
    for name, dist in CASES
]


@pytest.mark.parametrize("name, dist", V1_CASES)
def test_recorder_v1_matches_exact_form(name, dist):
    setup = _setup(name)
    state = _state(name, dist)
    record = setup.recorder(state)
    assert record.bregman_to_opt == record.V1
    _assert_close(record.V1, _exact_v1(setup, state.x))

"""Ground-truth optima.

Both solves need a positive definite aggregate Hessian, so that the
consensus optimum is unique. The unconstrained solve goes through the
aggregate normal equations; the simplex solve is a primal active-set method,
exact and finite on a definite quadratic. Each certifies its KKT conditions
to ``KKT_TOL`` times (1 + ||x*||) and returns the minimal-norm stacked
multiplier lambda* = -L^+ grad f(x*), the representative the lambda_0 = 0
dynamics converge to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph
from .objectives import DistributedProblem

KKT_TOL = 1e-8  # times (1 + ||x*||)
INTERIOR_TOL = 1e-8


class OracleError(RuntimeError):
    """The reference solve failed or did not certify."""


@dataclass(frozen=True)
class OptimalPair:
    x_star: np.ndarray           # (d,)
    lambda_star: np.ndarray | None  # (n, d) stacked rows; None for boundary optima
    f_star: float
    kkt_residual: float


def _stacked_multiplier(
    problem: DistributedProblem, graph: WeightedGraph, x_star: np.ndarray, center: bool
) -> tuple[np.ndarray, float]:
    """Minimal-norm lambda* solving L lambda = -grad f(x*) blockwise.

    For simplex problems each block gradient is centered first: the mean
    component is the simplex multiplier and lies outside range(L).
    """
    g = problem.grads_at(x_star)
    if center:
        g = g - g.mean(axis=1, keepdims=True)
    lam = -(graph.lap_pinv @ g)
    residual = float(np.linalg.norm(g + graph.laplacian @ lam))
    return lam, residual


def _definite_hessian(problem: DistributedProblem) -> np.ndarray:
    """The aggregate Hessian, which must be positive definite."""
    hess = problem.aggregate_hessian()
    eigvals = np.linalg.eigvalsh(hess)
    if eigvals[0] <= 1e-12 * max(eigvals[-1], 1.0):
        raise OracleError(
            f"aggregate Hessian is singular (min eigenvalue {eigvals[0]:g}); "
            "the consensus optimum is not unique"
        )
    return hess


def _certify(residual: float, x_star: np.ndarray, what: str) -> None:
    if residual > KKT_TOL * (1.0 + float(np.linalg.norm(x_star))):
        raise OracleError(f"{what} residual {residual:g} above tolerance")


def solve_unconstrained(problem: DistributedProblem, graph: WeightedGraph) -> OptimalPair:
    """Solve (sum Q_i^T Q_i) x = sum Q_i^T b_i and certify the stacked KKT pair."""
    hess = _definite_hessian(problem)
    rhs = np.einsum("nmd,nm->d", problem.q, problem.b)
    x_star = np.linalg.solve(hess, rhs)
    lam, stat_res = _stacked_multiplier(problem, graph, x_star, center=False)
    feas_res = float(np.linalg.norm(problem.aggregate_grad(x_star)))
    residual = max(stat_res, feas_res)
    _certify(residual, x_star, "unconstrained KKT")
    return OptimalPair(
        x_star=x_star,
        lambda_star=lam,
        f_star=problem.aggregate_value(x_star),
        kkt_residual=residual,
    )


def solve_simplex(problem: DistributedProblem, graph: WeightedGraph) -> OptimalPair:
    """Primal active-set solve of min x^T H x / 2 - r^T x over the simplex
    (Nocedal & Wright, Numerical Optimization, section 16.5).

    From the barycentre, each pass solves the equality-constrained problem on
    the free coordinates, those not held at 0, through its (k+1)^2 KKT
    system. If that point has a negative coordinate, x moves toward it until
    the first coordinate reaches 0, which is then held. Otherwise x takes the
    point whole and the held coordinate with the most negative multiplier is
    freed; with none, x is optimal. The KKT conditions are then checked:
    stationarity on the support and complementary slackness off it.
    """
    d = problem.d
    hess = _definite_hessian(problem)
    rhs = np.einsum("nmd,nm->d", problem.q, problem.b)
    x = np.full(d, 1.0 / d)
    free = np.ones(d, dtype=bool)
    # every measured run needs at most d + 2 passes; d^2 + 1 leaves room for
    # many frees and still stops a run that cycles on rounding errors
    max_passes = d * d + 1
    for _ in range(max_passes):
        idx = np.flatnonzero(free)
        k = idx.size
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = hess[np.ix_(idx, idx)]
        kkt[k, k] = 0.0
        sol = np.linalg.solve(kkt, np.append(rhs[idx], 1.0))
        target, current = sol[:k], x[idx]
        blocking = target < 0.0
        if np.any(blocking):
            # x_i >= 0 > target_i: x_i reaches 0 after this fraction of the step
            ratios = current[blocking] / (current[blocking] - target[blocking])
            first = np.argmin(ratios)
            x[idx] = np.maximum(current + ratios[first] * (target - current), 0.0)
            held = idx[blocking][first]
            x[held] = 0.0
            free[held] = False
            continue
        x[idx] = target
        # stationarity H x - r = nu 1 + mu with nu = -sol[k] and mu = 0 off the held set
        held = np.flatnonzero(~free)
        mult = hess[held] @ x - rhs[held] + sol[k]
        if not held.size or mult.min() >= 0.0:
            break
        free[held[np.argmin(mult)]] = True
    else:
        raise OracleError(f"simplex active set did not settle within {max_passes} passes")

    g = hess @ x - rhs
    support = x > INTERIOR_TOL
    nu = float(np.mean(g[support]))
    stat_res = float(np.max(np.abs(g[support] - nu)))
    comp_res = float(np.max(np.maximum(nu - g[~support], 0.0), initial=0.0))
    feas_res = abs(float(np.sum(x)) - 1.0)
    residual = max(stat_res, comp_res, feas_res)
    _certify(residual, x, "simplex KKT")

    lam = None
    if bool(np.all(support)):
        lam, lam_res = _stacked_multiplier(problem, graph, x, center=True)
        residual = max(residual, lam_res)
        _certify(lam_res, x, "stacked multiplier")
    return OptimalPair(
        x_star=x,
        lambda_star=lam,
        f_star=problem.aggregate_value(x),
        kkt_residual=residual,
    )


def solve(problem: DistributedProblem, graph: WeightedGraph) -> OptimalPair:
    if problem.domain == "simplex":
        return solve_simplex(problem, graph)
    return solve_unconstrained(problem, graph)

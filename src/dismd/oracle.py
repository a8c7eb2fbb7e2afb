"""Ground-truth optima and centralized baselines.

The unconstrained solve goes through the aggregate normal equations; the
simplex solve runs long-horizon deterministic centralized entropic mirror
descent and then cross-checks the simplex KKT conditions. Both return the
minimal-norm stacked multiplier lambda* = -L^+ grad f(x*), the representative
the lambda_0 = 0 dynamics converge to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .graphs import WeightedGraph, spectra
from .mirror_maps import EntropyMap, MirrorMap, _softmax
from .objectives import DistributedProblem, QuadraticBlock

KKT_TOL_UNCONSTRAINED = 1e-8
KKT_TOL_SIMPLEX = 1e-6
INTERIOR_TOL = 1e-8
MAX_SIMPLEX_ITERS = 10_000_000


class OracleError(RuntimeError):
    """The reference solve failed or did not certify."""


@dataclass(frozen=True)
class OptimalPair:
    x_star: np.ndarray           # (d,)
    lambda_star: np.ndarray | None  # (n, d) stacked rows; None for boundary optima
    f_star: float
    kkt_residual: float


def _laplacian_pinv(graph: WeightedGraph) -> np.ndarray:
    return spectra(graph, beta=1.0).lap_pinv


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
    lam = -(_laplacian_pinv(graph) @ g)
    residual = float(np.linalg.norm(g + graph.laplacian @ lam))
    return lam, residual


def solve_unconstrained(problem: DistributedProblem, graph: WeightedGraph) -> OptimalPair:
    """Solve (sum Q_i^T Q_i) x = sum Q_i^T b_i and certify the stacked KKT pair."""
    hess = problem.aggregate_hessian()
    eigvals = np.linalg.eigvalsh(hess)
    if eigvals[0] <= 1e-12 * max(eigvals[-1], 1.0):
        raise OracleError(
            f"aggregate Hessian is singular (min eigenvalue {eigvals[0]:g}); "
            "the consensus optimum is not unique"
        )
    rhs = -problem.aggregate_grad(np.zeros(problem.d))
    x_star = np.linalg.solve(hess, rhs)
    lam, stat_res = _stacked_multiplier(problem, graph, x_star, center=False)
    feas_res = float(np.linalg.norm(problem.aggregate_grad(x_star)))
    residual = max(stat_res, feas_res)
    if residual > KKT_TOL_UNCONSTRAINED * (1.0 + float(np.linalg.norm(x_star))):
        raise OracleError(f"unconstrained KKT residual {residual:g} above tolerance")
    return OptimalPair(
        x_star=x_star,
        lambda_star=lam,
        f_star=problem.aggregate_value(x_star),
        kkt_residual=residual,
    )


def solve_simplex(
    problem: DistributedProblem, graph: WeightedGraph, tol: float = 1e-10
) -> OptimalPair:
    """Centralized entropic mirror descent until the iterates stall.

    Stops once ||x_{k+1} - x_k|| <= tol * dt, then checks stationarity on the
    support and complementary slackness off it.
    """
    d = problem.d
    hess = problem.aggregate_hessian()
    l_agg = float(np.linalg.eigvalsh(hess)[-1])
    dt = min(0.1, 1.0 / max(l_agg, 1e-12))
    rhs = -problem.aggregate_grad(np.zeros(d))
    x = np.full(d, 1.0 / d)
    z = EntropyMap(d).forward(x)
    # one step is z -= dt * (H x - rhs); x = softmax(z), computed in place
    # in buffers allocated once; x and x_new swap roles every iteration
    x_new = np.empty(d)
    step = np.empty(d)
    diff = np.empty(d)
    for _ in range(MAX_SIMPLEX_ITERS):
        hess.dot(x, step)
        step -= rhs
        np.multiply(dt, step, out=step)
        z -= step
        _softmax(z, x_new)
        np.subtract(x_new, x, out=diff)
        x, x_new = x_new, x
        if math.sqrt(diff.dot(diff)) <= tol * dt:
            break
    else:
        raise OracleError(
            f"simplex solve did not stall within {MAX_SIMPLEX_ITERS} iterations; "
            f"last iterate {x}"
        )

    g = hess @ x - rhs
    support = x > INTERIOR_TOL
    nu = float(np.mean(g[support]))
    stat_res = float(np.max(np.abs(g[support] - nu)))
    comp_res = float(np.max(np.maximum(nu - g[~support], 0.0), initial=0.0))
    feas_res = abs(float(np.sum(x)) - 1.0)
    residual = max(stat_res, comp_res, feas_res)
    if residual > KKT_TOL_SIMPLEX:
        raise OracleError(f"simplex KKT residual {residual:g} above tolerance")

    lam = None
    if bool(np.all(support)):
        lam, lam_res = _stacked_multiplier(problem, graph, x, center=True)
        residual = max(residual, lam_res)
        if residual > KKT_TOL_SIMPLEX:
            raise OracleError(f"stacked multiplier residual {lam_res:g} above tolerance")
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


def merge_blocks(problem: DistributedProblem) -> DistributedProblem:
    """Collapse the N local objectives into one block for a centralized run."""
    q = np.vstack([blk.q for blk in problem.blocks])
    b = np.concatenate([blk.b for blk in problem.blocks])
    return DistributedProblem(
        blocks=[QuadraticBlock(q=q, b=b)],
        domain=problem.domain,
        d=problem.d,
        n=1,
        m=q.shape[0],
        minimizer=problem.minimizer,
    )


def centralized_md_baseline(
    problem: DistributedProblem,
    mmap: MirrorMap,
    hp: dynamics.Hyperparams,
    seed: int = 0,
    x0: np.ndarray | None = None,
    sample_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-server mirror descent on the aggregate objective.

    Runs the plain dynamics with one particle (so the interaction vanishes)
    and returns the sampled times and primal iterates as arrays.
    """
    merged = merge_blocks(problem)
    graph = WeightedGraph.from_adjacency(np.ones((1, 1)))
    x0_rows = None if x0 is None else np.asarray(x0, dtype=float).reshape(1, -1)
    states = dynamics.run(
        "ismd",
        merged,
        mmap,
        graph,
        hp,
        seed=seed,
        metrics_every=sample_every,
        x0_rows=x0_rows,
    )
    ts = np.array([s.t for s in states])
    xs = np.stack([s.x[0] for s in states])
    return ts, xs

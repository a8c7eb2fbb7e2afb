"""Run diagnostics: Lyapunov function, KKT residuals, spectral constants,
consensus spread and empirical convergence-rate fits.

The Lyapunov function evaluated here is

    V(x, lam) = c * (V1 + V2) + V3
    V1 = sum_i D_phi(x*, x^i)
    V2 = ||lam - lam*||^2 / 2            (plain exact dynamics)
         D_psi(lam*, lam)                (preconditioned dynamics)
    V3 = D_f(x, x*) + <x - x*, L (lam - lam*)> + <x, L x> / 2

with (x*, lam*) supplied by the reference oracle. The scale factor c is
chosen by ``default_c`` as a small safety margin above every threshold the
convergence analysis needs for non-negativity and descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import ParticleSystem
from .graphs import LaplacianSpectra, WeightedGraph
from .mirror_maps import MirrorMap
from .objectives import DistributedProblem

C_SAFETY_FACTOR = 1.01


@dataclass(frozen=True)
class MetricsRecord:
    step: int
    t: float
    loss_mean: float
    loss_best: float
    loss_worst: float
    consensus_spread: float
    kkt_primal: float
    kkt_consensus: float
    V: float
    V1: float
    V2: float
    V3: float
    bregman_to_opt: float

    def to_csv_row(self) -> str:
        vals = [str(self.step)] + [
            repr(float(getattr(self, name))) for name in CSV_COLUMNS[1:]
        ]
        return ",".join(vals)


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class ConvexityConstants:
    """Strong convexity / smoothness constants that enter the rate formula."""

    mu_phi: float
    l_phi: float
    mu_psi: float
    l_psi: float
    mu_f: float
    l_f: float
    alpha_phi: float  # l_f * l_phi / mu_phi (inf for the entropy map)
    mu_hat: float
    kappa_n: float
    kappa_beta: float


def compute_constants(
    problem: DistributedProblem,
    spec: LaplacianSpectra,
    mmap: MirrorMap,
    dual=None,
) -> ConvexityConstants:
    hess = problem.hess_blocks()
    block_eigs = [np.linalg.eigvalsh(h) for h in hess]
    mu_f = float(min(e[0] for e in block_eigs))
    l_f = float(max(e[-1] for e in block_eigs))
    mu_psi = float(dual.mu) if dual is not None else 1.0
    l_psi = float(dual.lip) if dual is not None else 1.0
    if dual is not None and dual.kind == "dual_hessian":
        mu_hat = min(mmap.mu, mu_psi)
    else:
        mu_hat = min(mmap.mu, 2.0)
    alpha_phi = l_f * mmap.lip / mmap.mu if math.isfinite(mmap.lip) else math.inf
    return ConvexityConstants(
        mu_phi=mmap.mu,
        l_phi=mmap.lip,
        mu_psi=mu_psi,
        l_psi=l_psi,
        mu_f=mu_f,
        l_f=l_f,
        alpha_phi=alpha_phi,
        mu_hat=mu_hat,
        kappa_n=spec.kappa_n,
        kappa_beta=spec.kappa_beta,
    )


def default_c(constants: ConvexityConstants, algorithm: str = "eismd") -> float:
    """Max of the non-negativity and descent thresholds, times a 1% margin."""
    thresholds = [constants.kappa_n / constants.mu_phi]
    if algorithm == "epismd":
        thresholds.append(constants.kappa_n / constants.mu_psi)
        thresholds.append(2.0 * constants.kappa_beta / constants.mu_psi)
    else:
        thresholds.append(constants.kappa_n)
        thresholds.append(2.0 * constants.kappa_beta)
    return C_SAFETY_FACTOR * max(thresholds)


def predicted_rate(constants: ConvexityConstants, c: float, kappa_g: float) -> float | None:
    """Indicative linear rate 2 kappa_g / (c mu_hat + 2 alpha + 3 kappa_n)."""
    if not math.isfinite(constants.alpha_phi):
        return None
    denom = c * constants.mu_hat + 2.0 * constants.alpha_phi + 3.0 * constants.kappa_n
    return 2.0 * kappa_g / denom


def consensus_spread(x_rows: np.ndarray, losses: np.ndarray) -> float:
    """Squared distance between the best and worst particle by aggregate loss."""
    diff = x_rows[int(np.argmin(losses))] - x_rows[int(np.argmax(losses))]
    return float(diff @ diff)


def bregman_to_opt(x_rows: np.ndarray, x_star: np.ndarray, mmap: MirrorMap) -> float:
    """sum_i D_phi(x*, x^i)."""
    x_rows = np.asarray(x_rows, dtype=float)
    target = np.broadcast_to(x_star, x_rows.shape)
    return float(np.sum(mmap.bregman(target, x_rows)))


def kappa_g_estimate(
    problem: DistributedProblem,
    graph: WeightedGraph,
    mmap: MirrorMap,
    points: list[np.ndarray],
) -> float:
    """Sampled infimum of the generalized Rayleigh quotient.

    For every sampled stacked point x, forms A(x) = [H_f + L, L] and returns
    the smallest eigenvalue of A^T W A over unit directions (d_x, d_lambda),
    with W the conjugate map Hessian at z = forward(x). Over a finite sample
    this is an upper bound for the true infimum (exact for constant Hessians
    and maps).

    Because A is Nd x 2Nd, its kernel is nontrivial (for any d_lambda there
    is a d_x cancelling it), so the quotient's true infimum is zero for
    every problem; the estimate is degenerate by construction and the rate
    predictions built on it are conservative. It is reported for
    completeness and for the trivial single-direction cases.
    """
    if not points:
        raise ValueError("kappa_g_estimate needs at least one sample point")
    n, d = problem.n, problem.d
    lap_dense = np.kron(graph.laplacian, np.eye(d))
    hf = np.zeros((n * d, n * d))
    for i, h in enumerate(problem.hess_blocks()):
        hf[i * d:(i + 1) * d, i * d:(i + 1) * d] = h
    a = np.hstack([hf + lap_dense, lap_dense])
    best = math.inf
    for x_rows in points:
        x_rows = np.asarray(x_rows, dtype=float).reshape(n, d)
        z_rows = mmap.forward(x_rows)
        w = np.zeros((n * d, n * d))
        for i in range(n):
            w[i * d:(i + 1) * d, i * d:(i + 1) * d] = mmap.hess_conj_dense(z_rows[i])
        w_eigs = np.linalg.eigvalsh(w)
        if w_eigs[0] <= 1e-14 * max(w_eigs[-1], 1.0):
            raise ValueError("conjugate map Hessian is singular at a sample point")
        m = a.T @ w @ a
        best = min(best, float(np.linalg.eigvalsh(m)[0]))
    return max(best, 0.0)


@dataclass(frozen=True)
class RateFit:
    r: float
    r_squared: float
    n_used: int
    truncated: bool


def rate_fit(t: np.ndarray, v: np.ndarray, window: float = 0.5) -> RateFit:
    """Least-squares slope of log V over the first ``window`` fraction.

    Non-positive values inside the window shrink the fit to the last
    all-positive prefix (flagged via ``truncated``).
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("t and v must be 1-d arrays of equal length")
    if t.size < 10:
        raise ValueError(f"need at least 10 points to fit a rate, got {t.size}")
    if not 0.0 < window <= 1.0:
        raise ValueError(f"window must be in (0, 1], got {window}")
    k = min(t.size, max(10, int(round(window * t.size))))
    truncated = False
    nonpos = np.nonzero(v[:k] <= 0.0)[0]
    if nonpos.size:
        k = int(nonpos[0])
        truncated = True
        if k < 2:
            raise ValueError("no positive prefix to fit a rate on")
    slope, intercept = np.polyfit(t[:k], np.log(v[:k]), 1)
    fitted = slope * t[:k] + intercept
    resid = np.log(v[:k]) - fitted
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((np.log(v[:k]) - np.mean(np.log(v[:k]))) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(r=-float(slope), r_squared=r2, n_used=k, truncated=truncated)


class MetricsRecorder:
    """Turns a ParticleSystem into a MetricsRecord, each column computed once."""

    def __init__(
        self,
        problem: DistributedProblem,
        graph: WeightedGraph,
        mmap: MirrorMap,
        x_star: np.ndarray,
        lambda_star: np.ndarray | None,
        c: float,
        dual=None,
    ):
        self.problem = problem
        self.graph = graph
        self.mmap = mmap
        self.x_star = np.asarray(x_star, dtype=float)
        if lambda_star is None:
            lambda_star = np.zeros((problem.n, problem.d))
        self.lambda_star = np.asarray(lambda_star, dtype=float)
        self.c = c
        self.dual = dual
        # x*-only terms of V3, fixed for the life of the recorder
        self._grads_star = problem.grads_at(self.x_star)
        self._f_star = problem.aggregate_value(self.x_star)

    def lyapunov(self, state: ParticleSystem) -> tuple[float, float, float, float]:
        """(V, V1, V2, V3) at the current state; see the module docstring."""
        return self._lyapunov(state, self.graph.laplacian @ state.x)

    def _lyapunov(
        self, state: ParticleSystem, lap_x: np.ndarray
    ) -> tuple[float, float, float, float]:
        x = state.x
        v1 = bregman_to_opt(x, self.x_star, self.mmap)
        lam_diff = state.lam - self.lambda_star
        if self.dual is not None and self.dual.kind == "dual_hessian":
            v2 = self.dual.bregman(self.lambda_star, state.lam)
        else:
            v2 = 0.5 * float(np.vdot(lam_diff, lam_diff))
        dx = x - self.x_star
        d_f = float(
            np.sum(self.problem.block_values(x)) - self._f_star - np.vdot(self._grads_star, dx)
        )
        v3 = (
            d_f
            + float(np.vdot(dx, self.graph.laplacian @ lam_diff))
            + 0.5 * float(np.vdot(x, lap_x))
        )
        return self.c * (v1 + v2) + v3, v1, v2, v3

    def __call__(self, state: ParticleSystem) -> MetricsRecord:
        x = state.x
        losses = self.problem.aggregate_value(x)
        lap_x = self.graph.laplacian @ x
        v, v1, v2, v3 = self._lyapunov(state, lap_x)
        primal = self.problem.grads(x) + self.graph.laplacian @ state.lam
        return MetricsRecord(
            step=state.step,
            t=state.t,
            loss_mean=self.problem.aggregate_value(x.mean(axis=0)),
            loss_best=float(losses.min()),
            loss_worst=float(losses.max()),
            consensus_spread=consensus_spread(x, losses),
            kkt_primal=float(np.linalg.norm(primal)),
            kkt_consensus=float(np.linalg.norm(lap_x)),
            V=v,
            V1=v1,
            V2=v2,
            V3=v3,
            bregman_to_opt=v1,
        )

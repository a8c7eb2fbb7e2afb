"""Run diagnostics: Lyapunov function, KKT residuals, spectral constants,
consensus spread and empirical convergence-rate fits.

The Lyapunov function evaluated here is

    V(x, lam) = c * (V1 + V2) + V3
    V1 = sum_i D_phi(x*, x^i)
    V2 = D_psi(lam*, lam)                (||lam - lam*||^2 / 2 without a dual map)
    V3 = sum_i dx_i^T H_i dx_i / 2 + <dx, L (lam - lam*)> + <dx, L dx> / 2

with dx = x - x*, H_i the block Hessians and (x*, lam*) supplied by the
reference oracle. The first term is D_f(x, x*), exact for quadratic blocks,
and <dx, L dx> = <x, L x> since L 1 = 0. V1 is evaluated in the same
x*-centred form where the map allows it: sum_i ||dx_i||^2 / 2 for the
euclidean map and sum_i dx_i^T P dx_i / 2 for the quadratic one; the
entropy map keeps its KL form. The scale factor c is chosen by
``default_c`` as a small safety margin above every threshold the
convergence analysis needs for non-negativity and descent.

``MetricsRecorder`` takes a block of B snapshots, a ``dynamics.ParticleSystem``
with a leading snapshot axis, and computes every column over that axis:
each matrix product runs once per snapshot with the shape a single state
would give it, and each squared norm is one BLAS dot per snapshot, so a
record does not depend on the block it was computed in. A single state is
the block ``state[None]``, B = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import ParticleSystem
from .graphs import LaplacianSpectra, WeightedGraph
from .mirror_maps import IdentityDual, MirrorMap, stacked_vdot
from .objectives import DistributedProblem

C_SAFETY_FACTOR = 1.01


class MetricsRecord(NamedTuple):
    """One row of metrics.csv: the record of one snapshot."""

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
        return ",".join([str(self.step), *(repr(float(v)) for v in self[1:])])


CSV_COLUMNS = MetricsRecord._fields


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class ConvexityConstants:
    """Convexity and smoothness constants: ``default_c`` reads them, the
    manifest reports them in this order."""

    kappa_n: float
    kappa_beta: float
    mu_f: float
    l_f: float
    mu_phi: float
    l_phi: float
    mu_psi: float
    alpha_phi: float  # l_f * l_phi / mu_phi (inf for the entropy map)
    mu_hat: float


def compute_constants(
    problem: DistributedProblem,
    spec: LaplacianSpectra,
    mmap: MirrorMap,
    dual=None,
) -> ConvexityConstants:
    dual = IdentityDual() if dual is None else dual
    block_eigs = problem.hess_eigenvalues()
    mu_f = float(block_eigs[:, 0].min())
    l_f = float(block_eigs[:, -1].max())
    mu_psi = float(dual.mu)
    mu_hat = min(mmap.mu, mu_psi if dual.kind == "dual_hessian" else 2.0)
    alpha_phi = l_f * mmap.lip / mmap.mu if math.isfinite(mmap.lip) else math.inf
    return ConvexityConstants(
        mu_phi=mmap.mu,
        l_phi=mmap.lip,
        mu_psi=mu_psi,
        mu_f=mu_f,
        l_f=l_f,
        alpha_phi=alpha_phi,
        mu_hat=mu_hat,
        kappa_n=spec.kappa_n,
        kappa_beta=spec.kappa_beta,
    )


def default_c(constants: ConvexityConstants) -> float:
    """Max of the non-negativity and descent thresholds, times a 1% margin.

    Without a dual map ``compute_constants`` sets mu_psi = 1, so the plain
    and exact dynamics get kappa_n and 2 kappa_beta as their dual thresholds.
    """
    kn, mu_psi = constants.kappa_n, constants.mu_psi
    return C_SAFETY_FACTOR * max(
        kn / constants.mu_phi, kn / mu_psi, 2.0 * constants.kappa_beta / mu_psi
    )


def consensus_spread(x_rows: np.ndarray, losses: np.ndarray):
    """Squared distance between the best and worst particle by aggregate loss,
    for (n, d) rows and (n,) losses (a float) or per snapshot of (R, n, d)
    rows and (R, n) losses (an (R,) array)."""
    best = np.take_along_axis(x_rows, losses.argmin(axis=-1)[..., None, None], axis=-2)
    worst = np.take_along_axis(x_rows, losses.argmax(axis=-1)[..., None, None], axis=-2)
    diff = best - worst
    return stacked_vdot(diff, diff)


def kappa_g_estimate(mmap: MirrorMap, x_rows: np.ndarray) -> float:
    """Infimum of the generalized Rayleigh quotient, which is exactly zero.

    The quotient is |A d|_W^2 / |d|^2 over directions d = (d_x, d_lambda),
    with A = [H_f + L, L] (L applied blockwise) and W the conjugate map
    Hessian at z = forward(x) for (n, d) rows x. A maps R^(2nd) to R^(nd),
    so by rank-nullity its kernel has dimension at least nd. A kernel
    direction makes the quotient zero, and W is positive semidefinite, so the
    quotient is never negative: its infimum is exactly 0 for every problem,
    graph and point.

    What remains to check is that W is nonsingular at ``x_rows``. W is block
    diagonal; its blocks are the conjugate Hessian applied to the d identity
    rows at each row of ``x_rows``, and one batched eigenvalue call checks
    them. The smallest block eigenvalue must exceed 1e-14 times the largest
    one (or 1e-14 if that is below one).
    """
    x_rows = np.asarray(x_rows, dtype=float)
    n, d = x_rows.shape
    eye = np.broadcast_to(np.eye(d), (n, d, d))
    z_rows = mmap.forward(x_rows)
    block_eigs = np.linalg.eigvalsh(mmap.hess_conj_apply(z_rows[:, None, :], eye))
    if block_eigs[:, 0].min() <= 1e-14 * max(block_eigs[:, -1].max(), 1.0):
        raise ValueError("conjugate map Hessian is singular at x_rows")
    return 0.0


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
    log_v = np.log(v[:k])
    slope, intercept = np.polyfit(t[:k], log_v, 1)
    resid = log_v - (slope * t[:k] + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((log_v - np.mean(log_v)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(r=-float(slope), r_squared=r2, n_used=k, truncated=truncated)


class MetricsRecorder:
    """Turns a block of snapshots into one MetricsRecord per snapshot, each
    column computed once.

    The objective columns come from one exact quadratic model centred at
    x*: the aggregate loss is f* + g*^T dx + dx^T H dx / 2, with g* and H
    the summed block gradients at x* and block Hessians, and f* and g* taken
    once in residual form. No term is a difference of sums of size f*.
    """

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
        self.dual = dual if dual is not None else IdentityDual()
        self._f_star = problem.aggregate_value(self.x_star)
        self._g_star = problem.grads_at(self.x_star).sum(axis=0)
        self._hess = problem.hess_blocks().sum(axis=0)

    def _losses(self, dx: np.ndarray) -> np.ndarray:
        """Aggregate loss at x* + dx for each row of (..., k, d) rows."""
        quad = 0.5 * np.sum((dx @ self._hess) * dx, axis=-1)
        return self._f_star + (dx @ self._g_star + quad)

    def _v1(self, x: np.ndarray, dx: np.ndarray) -> np.ndarray:
        """sum_i D_phi(x*, x^i) per snapshot, x*-centred for the euclidean and
        quadratic maps, in the KL form of ``MirrorMap.bregman`` for entropy."""
        if self.mmap.kind == "euclidean":
            return 0.5 * stacked_vdot(dx, dx)
        if self.mmap.kind == "quadratic":
            return 0.5 * stacked_vdot(dx, dx @ self.mmap.matrix)
        return self.mmap.bregman(self.x_star, x).sum(axis=-1)

    def __call__(self, snaps: ParticleSystem) -> list[MetricsRecord]:
        x, lam, lap = snaps.x, snaps.lam, self.graph.laplacian
        self.problem.check_domain(x)
        dx = x - self.x_star
        losses = self._losses(dx)
        loss_mean = self._losses(dx.mean(axis=-2, keepdims=True))[..., 0]
        lap_x = lap @ x
        primal = self.problem.grads(x) + lap @ lam
        v1 = self._v1(x, dx)
        v2 = self.dual.bregman(self.lambda_star, lam)
        d_f = 0.5 * stacked_vdot(dx, (self.problem.hess_blocks() @ dx[..., None])[..., 0])
        # <dx, L (lam - lam*)> + <dx, L dx> / 2 in one product
        v3 = d_f + stacked_vdot(dx, lap @ (lam - self.lambda_star + 0.5 * dx))
        v = self.c * (v1 + v2) + v3
        columns = (
            snaps.step, snaps.t, loss_mean, losses.min(axis=-1), losses.max(axis=-1),
            consensus_spread(x, losses), np.sqrt(stacked_vdot(primal, primal)),
            np.sqrt(stacked_vdot(lap_x, lap_x)), v, v1, v2, v3, v1,
        )
        return list(map(MetricsRecord._make, zip(*(col.tolist() for col in columns))))

"""Mirror maps and the dual-variable preconditioner.

Three primal map families are provided:

* Euclidean       phi(x) = ||x||^2 / 2, the identity map.
* Negative entropy phi(x) = sum_j x_j log x_j on the open probability simplex.
  The conjugate gradient normalizes exp(z - 1) back onto the simplex, so any
  constant shift of z leaves the primal point unchanged.
* Quadratic       phi(x) = x^T P x / 2 for a symmetric positive definite P.

Each map exposes the gradient (``forward``), the conjugate gradient
(``backward``), the value, the Bregman divergence and the action of the
conjugate Hessian. All operations are pure functions of their inputs and
act on the last axis: a single d-vector or a (..., n, d) array of rows.
Each ``backward``, primal and dual, writes its result into ``out`` when
given one, so the integration loop can reuse its buffers.

The Lagrangian-dual preconditioner acts on the (n, d) multiplier rows
through its conjugate gradient (``backward``) and its Bregman divergence:
either the identity (which reduces the preconditioned
dynamics to the plain exact dynamics) or the regularized-Laplacian-sandwiched
problem Hessian, whose conjugate Hessian is
``L_beta^{-1} (d^2 f) L_beta^{-1}`` and never requires inverting the problem
Hessian inside the integration loop.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .graphs import LaplacianSpectra
from .objectives import DistributedProblem

MAP_KINDS = ("euclidean", "entropy", "quadratic")


def _copy(a: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The identity map: a float copy of ``a``, in ``out`` when given."""
    if out is None:
        out = np.empty(np.shape(a))
    np.copyto(out, a)
    return out


def stacked_vdot(a: np.ndarray, b: np.ndarray):
    """np.vdot of the trailing (n, d) blocks of ``a`` and ``b``: a float for
    (n, d) arrays, an (R,) array for (R, n, d) ones. Each value is one BLAS
    dot over the block's entries, with the bits np.vdot gives that block."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lead = a.shape[:-2]
    return (a.reshape(*lead, 1, -1) @ b.reshape(*lead, -1, 1))[..., 0, 0]


def _xlogx(x: np.ndarray) -> np.ndarray:
    # 0 log 0 := 0; the tiny clamp only matters for boundary diagnostics.
    safe = np.maximum(x, 1e-300)
    return np.where(x > 0.0, x * np.log(safe), 0.0)


class MirrorMap:
    """Base class; concrete maps fill in value/forward/backward/Hessian."""

    kind: str
    dim: int
    mu: float   # strong convexity constant (map's natural norm)
    lip: float  # smoothness constant, may be inf

    def value(self, x: np.ndarray):
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the map: primal point -> dual point z."""
        raise NotImplementedError

    def backward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the conjugate: dual point z -> primal point."""
        raise NotImplementedError

    def hess_conj_apply(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Apply the conjugate Hessian at z to v along the last axis; z and v
        broadcast against each other, so identity rows v give dense blocks."""
        raise NotImplementedError

    def bregman(self, x: np.ndarray, y: np.ndarray):
        """D_phi(x, y) = phi(x) - phi(y) - <grad phi(y), x - y>.

        Returns a scalar for vector inputs and a per-row array for (n, d)
        inputs. For the entropy map on the simplex this is the KL divergence.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gap = self.value(x) - self.value(y)
        inner = np.sum(self.forward(y) * (x - y), axis=-1)
        return gap - inner


class EuclideanMap(MirrorMap):
    kind = "euclidean"

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.mu = 1.0
        self.lip = 1.0

    def value(self, x):
        return 0.5 * np.sum(np.square(x), axis=-1)

    def forward(self, x):
        return np.asarray(x, dtype=float).copy()

    def backward(self, z, out=None):
        return _copy(z, out)

    def hess_conj_apply(self, z, v):
        return np.asarray(v, dtype=float).copy()


class EntropyMap(MirrorMap):
    """Negative entropy restricted to the open simplex.

    forward is 1 + log(x); backward is the normalized exponential
    exp(z - 1) / sum exp(z - 1), evaluated with max subtraction so large dual
    values cannot overflow. mu = 1 with respect to the l1 norm (Pinsker);
    the smoothness constant is unbounded on the open simplex.
    """

    kind = "entropy"

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.mu = 1.0
        self.lip = math.inf

    def value(self, x):
        return np.sum(_xlogx(np.asarray(x, dtype=float)), axis=-1)

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValueError("entropy map requires strictly positive coordinates")
        return 1.0 + np.log(x)

    def backward(self, z, out=None):
        # the ufuncs behind z.max, out.sum and /=, without numpy's Python wrappers
        z = np.asarray(z, dtype=float)
        out = np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), out=out)
        np.exp(out, out=out)
        return np.divide(out, np.add.reduce(out, axis=-1, keepdims=True), out=out)

    def hess_conj_apply(self, z, v):
        x = self.backward(z)
        v = np.asarray(v, dtype=float)
        return x * v - x * np.sum(x * v, axis=-1, keepdims=True)


class QuadraticMap(MirrorMap):
    kind = "quadratic"

    def __init__(self, matrix: np.ndarray):
        p = np.asarray(matrix, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"quadratic map matrix must be square, got shape {p.shape}")
        if not np.allclose(p, p.T, rtol=0.0, atol=1e-12):
            raise ValueError("quadratic map matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(p)
        if eigvals[0] <= 0.0:
            raise ValueError(
                f"quadratic map matrix must be positive definite (min eigenvalue {eigvals[0]:g})"
            )
        self.dim = p.shape[0]
        self.matrix = p
        self.matrix_inv = np.linalg.inv(p)
        self.mu = float(eigvals[0])
        self.lip = float(eigvals[-1])

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(x * (x @ self.matrix), axis=-1)

    def forward(self, x):
        return np.asarray(x, dtype=float) @ self.matrix

    def backward(self, z, out=None):
        return np.matmul(np.asarray(z, dtype=float), self.matrix_inv, out=out)

    def hess_conj_apply(self, z, v):
        return np.asarray(v, dtype=float) @ self.matrix_inv


def make_mirror_map(kind: str, dim: int, matrix: np.ndarray | None = None) -> MirrorMap:
    if kind == "euclidean":
        return EuclideanMap(dim)
    if kind == "entropy":
        return EntropyMap(dim)
    if kind == "quadratic":
        if matrix is None:
            raise ValueError("quadratic mirror map needs a matrix")
        m = QuadraticMap(matrix)
        if m.dim != dim:
            raise ValueError(f"quadratic map matrix is {m.dim}x{m.dim}, problem dimension is {dim}")
        return m
    raise ValueError(f"unknown mirror map kind {kind!r}")


# Lanczos stops once the top Ritz pair's residual is this fraction of its
# Ritz value; it diagonalizes the tridiagonal matrix every LANCZOS_CHECK
# steps and grows its basis by LANCZOS_CHUNK rows at a time.
LANCZOS_RTOL = 1e-14
LANCZOS_CHECK = 8
LANCZOS_CHUNK = 64


def _lanczos_max(apply, shape: tuple[int, ...]) -> float:
    """Largest eigenvalue of the symmetric positive definite operator
    ``apply`` on arrays of ``shape``.

    Lanczos with full reorthogonalization from a fixed start vector. Every
    LANCZOS_CHECK steps, at the last possible step, or when the next basis
    vector would be rounding noise (an invariant subspace, e.g. from repeated
    eigenvalues), the small tridiagonal matrix T is diagonalized. The run
    stops once the residual |beta_k s_k| of T's top Ritz pair is at most
    LANCZOS_RTOL times its Ritz value; that residual bounds the eigenvalue's
    error. The basis holds flattened vectors and reaches dim x dim, with dim
    the size of ``shape``, only if the run needs dim steps.
    """
    dim = math.prod(shape)
    q = np.random.default_rng(0).standard_normal(dim)
    q /= np.linalg.norm(q)
    basis = np.empty((min(LANCZOS_CHUNK, dim), dim))
    alphas: list[float] = []
    betas: list[float] = []
    scale = 0.0
    k = 0
    while True:
        if k == basis.shape[0]:
            basis = np.concatenate([basis, np.empty((min(LANCZOS_CHUNK, dim - k), dim))])
        basis[k] = q
        k += 1
        w = apply(q.reshape(shape)).reshape(dim)
        alphas.append(float(q @ w))
        scale = max(scale, abs(alphas[-1]))
        known = basis[:k]
        for _ in range(2):  # twice is enough for orthogonality to rounding
            w -= known.T @ (known @ w)
        beta = float(np.linalg.norm(w))
        if k == dim or k % LANCZOS_CHECK == 0 or beta <= LANCZOS_RTOL * scale:
            t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            vals, vecs = np.linalg.eigh(t)
            if k == dim or beta * abs(vecs[-1, -1]) <= LANCZOS_RTOL * vals[-1]:
                return float(vals[-1])
        betas.append(beta)
        q = w / beta


class IdentityDual:
    """Trivial dual map psi = ||.||^2 / 2; preconditioned dynamics collapse
    to the plain exact dynamics under it."""

    kind = "identity"
    mu = 1.0

    def backward(self, mu: np.ndarray, out: np.ndarray | None = None, work=None) -> np.ndarray:
        return _copy(mu, out)

    def bregman(self, lam_a: np.ndarray, lam_b: np.ndarray):
        """||lam_a - lam_b||^2 / 2 over (..., n, d) rows, per leading index."""
        diff = np.asarray(lam_a, dtype=float) - np.asarray(lam_b, dtype=float)
        return 0.5 * stacked_vdot(diff, diff)


class RegularizedDualHessian:
    """Dual map with Hessian  L_beta (d^2 f)^{-1} L_beta  for quadratic problems.

    The integration loop only needs the conjugate gradient
    ``lambda = L_beta^{-1} (d^2 f) L_beta^{-1} mu``, assembled from the
    (one-off) regularized-Laplacian inverse and the problem's constant
    per-particle Hessian blocks. Requires every block Hessian to be positive
    definite so that psi itself is well defined.
    """

    kind = "dual_hessian"

    def __init__(self, spec: LaplacianSpectra, problem: DistributedProblem):
        n = problem.n
        if spec.lap_beta.shape[0] != n:
            raise ValueError(f"graph has {spec.lap_beta.shape[0]} nodes but problem has {n} blocks")
        block_eigs = problem.hess_eigenvalues()
        worst = np.min(block_eigs[:, 0] / np.maximum(block_eigs[:, -1], 1e-300))
        if worst <= 1e-12:
            raise ValueError(
                "dual Hessian preconditioner needs positive definite block Hessians "
                f"(worst relative eigenvalue {worst:g})"
            )
        self.n, self.d = n, problem.d
        self._lap_beta = spec.lap_beta
        self._lap_beta_inv = spec.lap_beta_inv
        self._hess = problem.hess_blocks()
        self._hess_inv = np.linalg.inv(self._hess)

    def backward(self, mu: np.ndarray, out: np.ndarray | None = None,
                 work: np.ndarray | None = None) -> np.ndarray:
        """Conjugate gradient: mu -> lambda, (L_beta^{-1} kron I_d)
        blockdiag(H_i) (L_beta^{-1} kron I_d) applied to (..., n, d) rows;
        ``out``, when given, also holds the first product, and ``work``, of
        the same shape, the second."""
        w = np.matmul(self._lap_beta_inv, np.asarray(mu, dtype=float), out=out)
        w = np.matmul(self._hess, w[..., None], out=None if work is None else work[..., None])
        return np.matmul(self._lap_beta_inv, w[..., 0], out=out)

    def bregman(self, lam_a: np.ndarray, lam_b: np.ndarray):
        """D_psi between (..., n, d) multiplier rows, per leading index
        (quadratic, so a weighted norm)."""
        diff = np.asarray(lam_a, dtype=float) - np.asarray(lam_b, dtype=float)
        w = self._lap_beta @ diff
        return 0.5 * np.einsum("...ni,nij,...nj->...", w, self._hess_inv, w)

    @cached_property
    def mu(self) -> float:
        """psi's strong convexity: the reciprocal of the conjugate Hessian's
        largest eigenvalue."""
        return 1.0 / _lanczos_max(self.backward, (self.n, self.d))

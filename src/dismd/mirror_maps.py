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
accept either a single d-vector or an (n, d) array of per-particle rows.

The Lagrangian-dual preconditioner mirrors the primal API for the stacked
multiplier variable: either the identity (which reduces the preconditioned
dynamics to the plain exact dynamics) or the regularized-Laplacian-sandwiched
problem Hessian, whose conjugate Hessian is
``L_beta^{-1} (d^2 f) L_beta^{-1}`` and never requires inverting the problem
Hessian inside the integration loop.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import LaplacianSpectra, apply_block

MAP_KINDS = ("euclidean", "entropy", "quadratic")


def _softmax(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(z - max z) / sum exp(z - max z) along the last axis, into ``out``.

    The max shift keeps exp from overflowing. Shared by ``EntropyMap.backward``
    and the simplex oracle's loop, which reuses one ``out`` buffer.
    """
    np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


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

    def backward(self, z: np.ndarray) -> np.ndarray:
        """Gradient of the conjugate: dual point z -> primal point."""
        raise NotImplementedError

    def hess_conj_apply(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Apply the conjugate Hessian at z to v (rowwise for 2-d input)."""
        raise NotImplementedError

    def hess_conj_dense(self, z: np.ndarray) -> np.ndarray:
        """Dense conjugate Hessian at a single dual point z."""
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

    def conj_value(self, z: np.ndarray):
        """Conjugate value via the Fenchel identity <z, x(z)> - phi(x(z))."""
        x = self.backward(np.asarray(z, dtype=float))
        return np.sum(z * x, axis=-1) - self.value(x)

    def conj_bregman(self, z: np.ndarray, zp: np.ndarray):
        z = np.asarray(z, dtype=float)
        zp = np.asarray(zp, dtype=float)
        inner = np.sum(self.backward(zp) * (z - zp), axis=-1)
        return self.conj_value(z) - self.conj_value(zp) - inner


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

    def backward(self, z):
        return np.asarray(z, dtype=float).copy()

    def hess_conj_apply(self, z, v):
        return np.asarray(v, dtype=float).copy()

    def hess_conj_dense(self, z):
        return np.eye(self.dim)


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

    def backward(self, z):
        z = np.asarray(z, dtype=float)
        return _softmax(z, np.empty_like(z))

    def hess_conj_apply(self, z, v):
        x = self.backward(z)
        v = np.asarray(v, dtype=float)
        return x * v - x * np.sum(x * v, axis=-1, keepdims=True)

    def hess_conj_dense(self, z):
        x = self.backward(np.asarray(z, dtype=float))
        return np.diag(x) - np.outer(x, x)

    def conj_value(self, z):
        # Closed form: 1 + log sum exp(z - 1), kept overflow-safe.
        z = np.asarray(z, dtype=float)
        m = np.max(z, axis=-1)
        return m + np.log(np.sum(np.exp(z - np.expand_dims(m, -1)), axis=-1))


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

    def backward(self, z):
        return np.asarray(z, dtype=float) @ self.matrix_inv

    def hess_conj_apply(self, z, v):
        return np.asarray(v, dtype=float) @ self.matrix_inv

    def hess_conj_dense(self, z):
        return self.matrix_inv.copy()


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


class IdentityDual:
    """Trivial dual map psi = ||.||^2 / 2; preconditioned dynamics collapse
    to the plain exact dynamics under it."""

    kind = "identity"
    mu = 1.0
    lip = 1.0

    def forward(self, lam: np.ndarray) -> np.ndarray:
        return np.asarray(lam, dtype=float).copy()

    def backward(self, mu: np.ndarray) -> np.ndarray:
        return np.asarray(mu, dtype=float).copy()

    def bregman(self, lam_a: np.ndarray, lam_b: np.ndarray) -> float:
        diff = np.asarray(lam_a, dtype=float) - np.asarray(lam_b, dtype=float)
        return 0.5 * float(np.vdot(diff, diff))


class RegularizedDualHessian:
    """Dual map with Hessian  L_beta (d^2 f)^{-1} L_beta  for quadratic problems.

    The integration loop only needs the conjugate gradient
    ``lambda = L_beta^{-1} (d^2 f) L_beta^{-1} mu``, assembled from the
    (one-off) regularized-Laplacian inverse and the constant per-particle
    Hessian blocks. Requires every block Hessian to be positive definite so
    that psi itself is well defined.
    """

    kind = "dual_hessian"

    def __init__(self, spec: LaplacianSpectra, hess_blocks: np.ndarray):
        hess = np.asarray(hess_blocks, dtype=float)
        if hess.ndim != 3 or hess.shape[1] != hess.shape[2]:
            raise ValueError(f"expected (n, d, d) Hessian blocks, got shape {hess.shape}")
        n = hess.shape[0]
        if spec.lap_beta.shape[0] != n:
            raise ValueError(
                f"graph has {spec.lap_beta.shape[0]} nodes but problem has {n} blocks"
            )
        block_eigs = [np.linalg.eigvalsh(h) for h in hess]
        worst = min(e[0] / max(e[-1], 1e-300) for e in block_eigs)
        if worst <= 1e-12:
            raise ValueError(
                "dual Hessian preconditioner needs positive definite block Hessians "
                f"(worst relative eigenvalue {worst:g})"
            )
        self.n = n
        self.d = hess.shape[1]
        self.beta = spec.beta
        self._lap_beta = spec.lap_beta
        self._lap_beta_inv = spec.lap_beta_inv
        self._hess = hess
        self._hess_inv = np.stack([np.linalg.inv(h) for h in hess])
        self._extremes: tuple[float, float] | None = None

    def backward(self, mu: np.ndarray) -> np.ndarray:
        """Conjugate gradient: mu -> lambda."""
        u = apply_block(self._lap_beta_inv, mu)
        rows = u if u.ndim == 2 else u.reshape(self.n, self.d)
        w = np.einsum("nij,nj->ni", self._hess, rows)
        out = self._lap_beta_inv @ w
        return out if np.asarray(mu).ndim == 2 else out.ravel()

    def forward(self, lam: np.ndarray) -> np.ndarray:
        """Map gradient: lambda -> mu."""
        u = apply_block(self._lap_beta, lam)
        rows = u if u.ndim == 2 else u.reshape(self.n, self.d)
        w = np.einsum("nij,nj->ni", self._hess_inv, rows)
        out = self._lap_beta @ w
        return out if np.asarray(lam).ndim == 2 else out.ravel()

    def bregman(self, lam_a: np.ndarray, lam_b: np.ndarray) -> float:
        """D_psi between stacked multipliers (quadratic, so a weighted norm)."""
        diff = np.asarray(lam_a, dtype=float) - np.asarray(lam_b, dtype=float)
        rows = diff if diff.ndim == 2 else diff.reshape(self.n, self.d)
        w = self._lap_beta @ rows
        return 0.5 * float(np.einsum("ni,nij,nj->", w, self._hess_inv, w))

    def conj_hessian_dense(self) -> np.ndarray:
        """Dense  L_beta^{-1} (d^2 f) L_beta^{-1}  for tests and constants."""
        d = self.d
        lbi = np.kron(self._lap_beta_inv, np.eye(d))
        hf = np.zeros((self.n * d, self.n * d))
        for i, h in enumerate(self._hess):
            hf[i * d:(i + 1) * d, i * d:(i + 1) * d] = h
        return lbi @ hf @ lbi

    def _constants(self) -> tuple[float, float]:
        if self._extremes is None:
            eigvals = np.linalg.eigvalsh(self.conj_hessian_dense())
            # psi's constants are the reciprocals of its conjugate's.
            self._extremes = (1.0 / float(eigvals[-1]), 1.0 / float(eigvals[0]))
        return self._extremes

    @property
    def mu(self) -> float:
        return self._constants()[0]

    @property
    def lip(self) -> float:
        return self._constants()[1]

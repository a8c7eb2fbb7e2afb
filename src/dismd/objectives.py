"""Per-particle quadratic objectives and the problem generator.

Each particle i owns f_i(x) = ||Q_i x - b_i||^2 / 2. The generator draws the
Q_i from random orthogonal factors with a log-uniform singular value profile
whose endpoints are pinned so the condition number is hit exactly. Only the
ratio of the singular values is contractual; their absolute scale is fixed at
geometric mean SV_SCALE, chosen so that the default integrator settings
(dt = 0.01, unit learning rate) are both stable and fast on the default
problem sizes: much larger and the explicit Euler step exceeds the stability
limit of the stiffest gradient mode, much smaller and the multiplier
dynamics crawl through their weakly damped oscillations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

DOMAINS = ("unconstrained", "simplex")
SV_SCALE = 0.2  # geometric mean of the generated singular values


@dataclass
class DistributedProblem:
    """N quadratic blocks f_i(x) = ||q[i] x - b[i]||^2 / 2 plus the domain they
    are optimized over.

    ``q`` is (n, m, d) and ``b`` is (n, m); both are copied and read-only.
    ``minimizer`` is the shared stationary point x0 when the problem was
    generated with shared_minimizer=True (gradients of every block vanish
    there), else None.
    """

    q: np.ndarray
    b: np.ndarray
    domain: str
    minimizer: np.ndarray | None = None
    n: int = field(init=False)
    m: int = field(init=False)
    d: int = field(init=False)
    _hess: np.ndarray = field(init=False, repr=False)
    _c: np.ndarray = field(init=False, repr=False)
    _hess_eigs: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        self.q = np.array(self.q, dtype=float)
        self.b = np.array(self.b, dtype=float)
        if self.q.ndim != 3 or self.b.shape != self.q.shape[:2]:
            raise ValueError(
                f"q must be (n, m, d) and b (n, m); got q {self.q.shape}, b {self.b.shape}"
            )
        self.q.flags.writeable = False
        self.b.flags.writeable = False
        self.n, self.m, self.d = self.q.shape
        # gradients are H_i x - c_i with H_i = Q_i^T Q_i and c_i = Q_i^T b_i
        self._hess = np.einsum("nmd,nme->nde", self.q, self.q)
        self._hess.flags.writeable = False
        self._c = np.einsum("nmd,nm->nd", self.q, self.b)

    def grads(self, x_rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-particle gradients: row i is grad f_i(x^i). x_rows is (n, d);
        the result is written into ``out`` when given."""
        if out is None:
            out = np.empty(np.shape(x_rows))
        np.matmul(self._hess, x_rows[..., None], out=out[..., None])
        return np.subtract(out, self._c, out=out)

    def grads_at(self, x: np.ndarray) -> np.ndarray:
        """All block gradients evaluated at one common point; (n, d)."""
        r = self.q @ x - self.b
        return np.einsum("nmd,nm->nd", self.q, r)

    def check_domain(self, x: np.ndarray) -> None:
        """Raise ValueError if a simplex problem gets a negative coordinate."""
        if self.domain == "simplex" and np.any(x < 0.0):
            raise ValueError("simplex problem evaluated at a point with negative coordinates")

    def aggregate_value(self, x: np.ndarray) -> float | np.ndarray:
        """sum_i f_i(x) at a consensus point x, or a (k,) array for (k, d) rows."""
        x = np.asarray(x, dtype=float)
        self.check_domain(x)
        # the residual form: with a shared minimizer f_i -> 0, and the expanded
        # x^T H x / 2 - c^T x + |b|^2 / 2 would cancel catastrophically
        # batched matmul keeps each row's bits equal to the single-point form
        r = (self.q @ x[..., None, :, None])[..., 0] - self.b
        values = 0.5 * np.sum(r * r, axis=(-2, -1))
        return float(values) if x.ndim == 1 else values

    def aggregate_grad(self, x: np.ndarray) -> np.ndarray:
        r = self.q @ x - self.b
        return np.einsum("nmd,nm->d", self.q, r)

    def hess_blocks(self) -> np.ndarray:
        """Read-only (n, d, d) array of the constant block Hessians Q_i^T Q_i."""
        return self._hess

    def hess_eigenvalues(self) -> np.ndarray:
        """Read-only (n, d) ascending block Hessian eigenvalues, computed on first use."""
        if self._hess_eigs is None:
            self._hess_eigs = np.linalg.eigvalsh(self._hess)
            self._hess_eigs.flags.writeable = False
        return self._hess_eigs

    def aggregate_hessian(self) -> np.ndarray:
        return np.einsum("nmd,nme->de", self.q, self.q)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.n},{self.m},{self.d},{self.domain}".encode())
        h.update(self.q.tobytes())
        h.update(self.b.tobytes())
        if self.minimizer is not None:
            h.update(self.minimizer.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    d: int
    m: int
    n: int
    condition_number: float = 1.0
    shared_minimizer: bool = False
    domain: str = "unconstrained"

    def __post_init__(self):
        if self.d < 1 or self.m < 1 or self.n < 1:
            raise ValueError("d, m and n must all be >= 1")
        if self.condition_number < 1.0:
            raise ValueError(f"condition number must be >= 1, got {self.condition_number}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.condition_number > 1.0 and min(self.m, self.d) < 2:
            raise ValueError(
                "condition number > 1 needs at least two singular values "
                f"(min(m, d) = {min(self.m, self.d)})"
            )


def _singular_values(rng: np.random.Generator, k: int, cond: float) -> np.ndarray:
    hi = SV_SCALE * np.sqrt(cond)
    lo = SV_SCALE / np.sqrt(cond)
    if cond == 1.0 or k == 1:
        return np.full(k, SV_SCALE)
    s = np.exp(rng.uniform(np.log(lo), np.log(hi), size=k))
    s = np.sort(s)[::-1]
    s[0] = hi
    s[-1] = lo  # pin the endpoints so sigma_max / sigma_min == cond exactly
    return s


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q


def generate_problem(cfg: GeneratorConfig) -> DistributedProblem:
    """Draw a problem; a pure function of the config (same seed, same bits)."""
    rng = np.random.default_rng(cfg.seed)
    k = min(cfg.m, cfg.d)
    x0 = None
    if cfg.shared_minimizer:
        if cfg.domain == "simplex":
            x0 = rng.dirichlet(np.ones(cfg.d))
        else:
            x0 = rng.standard_normal(cfg.d)
    q = np.empty((cfg.n, cfg.m, cfg.d))
    b = np.empty((cfg.n, cfg.m))
    for i in range(cfg.n):
        s = _singular_values(rng, k, cfg.condition_number)
        u = _orthonormal_columns(rng, cfg.m, k)
        v = _orthonormal_columns(rng, cfg.d, k)
        q[i] = qi = (u * s) @ v.T
        b[i] = qi @ x0 if x0 is not None else rng.standard_normal(cfg.m)
    return DistributedProblem(q=q, b=b, domain=cfg.domain, minimizer=x0)


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
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DOMAINS = ("unconstrained", "simplex")
BUNDLE_MANIFEST = "manifest.json"
BUNDLE_VERSION = 1
SV_SCALE = 0.2  # geometric mean of the generated singular values


@dataclass(frozen=True)
class QuadraticBlock:
    """One particle's objective f(x) = ||q x - b||^2 / 2."""

    q: np.ndarray  # (m, d)
    b: np.ndarray  # (m,)

    def value(self, x: np.ndarray) -> float:
        r = self.q @ x - self.b
        return 0.5 * float(r @ r)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.q.T @ (self.q @ x - self.b)

    def hess(self) -> np.ndarray:
        return self.q.T @ self.q


@dataclass
class DistributedProblem:
    """N quadratic blocks plus the domain they are optimized over.

    Immutable after construction. ``minimizer`` is the shared stationary
    point x0 when the problem was generated with shared_minimizer=True
    (gradients of every block vanish there), else None.
    """

    blocks: list[QuadraticBlock]
    domain: str
    d: int
    n: int
    m: int
    minimizer: np.ndarray | None = None
    _q: np.ndarray = field(init=False, repr=False)
    _b: np.ndarray = field(init=False, repr=False)
    _hess: np.ndarray = field(init=False, repr=False)
    _c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if len(self.blocks) != self.n:
            raise ValueError(f"expected {self.n} blocks, got {len(self.blocks)}")
        for blk in self.blocks:
            if blk.q.shape != (self.m, self.d) or blk.b.shape != (self.m,):
                raise ValueError(
                    f"inconsistent block shapes: q {blk.q.shape}, b {blk.b.shape}, "
                    f"expected ({self.m}, {self.d}) and ({self.m},)"
                )
        self._q = np.stack([blk.q for blk in self.blocks])
        self._b = np.stack([blk.b for blk in self.blocks])
        # gradients are H_i x - c_i with H_i = Q_i^T Q_i and c_i = Q_i^T b_i
        self._hess = np.einsum("nmd,nme->nde", self._q, self._q)
        self._hess.flags.writeable = False
        self._c = np.einsum("nmd,nm->nd", self._q, self._b)

    def grads(self, x_rows: np.ndarray) -> np.ndarray:
        """Per-particle gradients: row i is grad f_i(x^i). x_rows is (n, d)."""
        return (self._hess @ x_rows[..., None])[..., 0] - self._c

    def grads_at(self, x: np.ndarray) -> np.ndarray:
        """All block gradients evaluated at one common point; (n, d)."""
        r = self._q @ x - self._b
        return np.einsum("nmd,nm->nd", self._q, r)

    def block_values(self, x_rows: np.ndarray) -> np.ndarray:
        """f_i(x^i) for each particle."""
        # the residual form: with a shared minimizer f_i -> 0, and the expanded
        # x^T H x / 2 - c^T x + |b|^2 / 2 would cancel catastrophically
        r = (self._q @ x_rows[..., None])[..., 0] - self._b
        return 0.5 * np.sum(r * r, axis=-1)

    def aggregate_value(self, x: np.ndarray) -> float | np.ndarray:
        """sum_i f_i(x) at a consensus point x, or a (k,) array for (k, d) rows."""
        x = np.asarray(x, dtype=float)
        if self.domain == "simplex" and np.any(x < 0.0):
            raise ValueError("simplex problem evaluated at a point with negative coordinates")
        # batched matmul keeps each row's bits equal to the single-point form
        r = (self._q @ x[..., None, :, None])[..., 0] - self._b
        values = 0.5 * np.sum(r * r, axis=(-2, -1))
        return float(values) if x.ndim == 1 else values

    def aggregate_grad(self, x: np.ndarray) -> np.ndarray:
        r = self._q @ x - self._b
        return np.einsum("nmd,nm->d", self._q, r)

    def hess_blocks(self) -> np.ndarray:
        """Read-only (n, d, d) array of the constant block Hessians Q_i^T Q_i."""
        return self._hess

    def aggregate_hessian(self) -> np.ndarray:
        return np.einsum("nmd,nme->de", self._q, self._q)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.n},{self.m},{self.d},{self.domain}".encode())
        h.update(self._q.tobytes())
        h.update(self._b.tobytes())
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
    blocks = []
    for _ in range(cfg.n):
        s = _singular_values(rng, k, cfg.condition_number)
        u = _orthonormal_columns(rng, cfg.m, k)
        v = _orthonormal_columns(rng, cfg.d, k)
        q = (u * s) @ v.T
        b = q @ x0 if x0 is not None else rng.standard_normal(cfg.m)
        blocks.append(QuadraticBlock(q=q, b=b))
    return DistributedProblem(
        blocks=blocks, domain=cfg.domain, d=cfg.d, n=cfg.n, m=cfg.m, minimizer=x0
    )


def is_strongly_convex(problem: DistributedProblem, tol: float = 1e-10) -> bool:
    """Whether the aggregate Hessian sum_i Q_i^T Q_i is positive definite."""
    eigvals = np.linalg.eigvalsh(problem.aggregate_hessian())
    return bool(eigvals[0] > tol * max(eigvals[-1], 1.0))


def _write_matrix(path: Path, arr: np.ndarray) -> None:
    rows = np.atleast_2d(arr)
    with path.open("w") as fh:
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_matrix(path: Path | str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def save_problem_bundle(problem: DistributedProblem, out_dir: Path | str) -> Path:
    """Write one CSV per matrix plus a manifest so runs can be replayed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, blk in enumerate(problem.blocks):
        qname, bname = f"q_{i:03d}.csv", f"b_{i:03d}.csv"
        _write_matrix(out / qname, blk.q)
        _write_matrix(out / bname, blk.b)
        entries.append({"q": qname, "b": bname})
    manifest = {
        "bundle_version": BUNDLE_VERSION,
        "d": problem.d,
        "m": problem.m,
        "n": problem.n,
        "domain": problem.domain,
        "blocks": entries,
        "minimizer": None,
    }
    if problem.minimizer is not None:
        _write_matrix(out / "minimizer.csv", problem.minimizer)
        manifest["minimizer"] = "minimizer.csv"
    (out / BUNDLE_MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n")
    return out / BUNDLE_MANIFEST


def load_problem_bundle(bundle_dir: Path | str) -> DistributedProblem:
    root = Path(bundle_dir)
    manifest = json.loads((root / BUNDLE_MANIFEST).read_text())
    blocks = []
    for entry in manifest["blocks"]:
        q = load_matrix(root / entry["q"])
        b = load_matrix(root / entry["b"]).ravel()
        blocks.append(QuadraticBlock(q=q, b=b))
    minimizer = None
    if manifest.get("minimizer"):
        minimizer = load_matrix(root / manifest["minimizer"]).ravel()
    return DistributedProblem(
        blocks=blocks,
        domain=manifest["domain"],
        d=manifest["d"],
        n=manifest["n"],
        m=manifest["m"],
        minimizer=minimizer,
    )

"""Communication graphs: topologies, doubly stochastic weights, Laplacian spectra.

All graph objects are immutable after construction and safe to share across
threads. Matrices are dense; the simulator targets desk scale (N up to a few
hundred nodes), where dense eigendecomposition is both simpler and faster
than sparse machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Tolerance for the doubly stochastic check on weight matrices.
STOCHASTIC_TOL = 1e-12
# Eigenvalues below this fraction of the largest are treated as zero when
# forming the Laplacian pseudo-inverse.
PINV_CUTOFF = 1e-10
# Resampling budget for random topologies that come out disconnected.
MAX_TOPOLOGY_RETRIES = 100

TOPOLOGY_KINDS = ("cyclic", "erdos_renyi", "barbell")


class GraphError(ValueError):
    """Invalid topology parameters or failed graph construction."""


@dataclass(frozen=True)
class Topology:
    """Recipe for a communication topology.

    kind:    one of "cyclic", "erdos_renyi", "barbell".
    n:       number of nodes (particles).
    p:       edge probability, Erdos-Renyi only.
    cluster: cluster size, barbell only (n must equal 2 * cluster).
    seed:    RNG seed for random topologies.
    """

    kind: str
    n: int
    p: float | None = None
    cluster: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise GraphError(f"unknown topology kind {self.kind!r}")
        if self.n < 1:
            raise GraphError(f"particle count must be >= 1, got {self.n}")
        if self.kind == "erdos_renyi":
            if self.p is None or not 0.0 < self.p <= 1.0:
                raise GraphError(f"erdos_renyi needs edge probability p in (0, 1], got {self.p}")
        if self.kind == "barbell":
            if self.cluster is None or self.cluster < 1:
                raise GraphError(f"barbell needs a positive cluster size, got {self.cluster}")
            if self.n != 2 * self.cluster:
                raise GraphError(
                    f"barbell with cluster={self.cluster} needs n={2 * self.cluster}, got n={self.n}"
                )


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric doubly stochastic weight matrix, its Laplacian L, and L's
    ascending eigenvalues and pseudo-inverse L^+, from one eigendecomposition."""

    n: int
    adjacency: np.ndarray
    laplacian: np.ndarray
    edges: tuple[tuple[int, int], ...]
    eigenvalues: np.ndarray
    lap_pinv: np.ndarray

    @classmethod
    def from_adjacency(cls, a: np.ndarray) -> "WeightedGraph":
        """Validate a weight matrix and derive the Laplacian and its spectrum.

        Requires a symmetric, entrywise nonnegative, doubly stochastic matrix
        whose off-diagonal support is a connected graph.
        """
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphError(f"weight matrix must be square, got shape {a.shape}")
        n = a.shape[0]
        if np.any(a < 0):
            raise GraphError("weight matrix has negative entries")
        if not np.allclose(a, a.T, atol=STOCHASTIC_TOL, rtol=0.0):
            raise GraphError("weight matrix is not symmetric")
        if np.max(np.abs(a.sum(axis=0) - 1.0)) > STOCHASTIC_TOL:
            raise GraphError("weight matrix columns do not sum to 1")
        if np.max(np.abs(a.sum(axis=1) - 1.0)) > STOCHASTIC_TOL:
            raise GraphError("weight matrix rows do not sum to 1")
        edges = tuple(
            (i, j) for i in range(n) for j in range(i + 1, n) if a[i, j] > 0.0
        )
        if not _connected(n, edges):
            raise GraphError("weight matrix support is disconnected")
        lap = np.diag(a.sum(axis=1)) - a
        try:
            eigvals, eigvecs = np.linalg.eigh(lap)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on PSD rarely fails
            raise GraphError(f"eigendecomposition of Laplacian failed: {exc}") from exc
        cutoff = PINV_CUTOFF * max(float(eigvals[-1]), 0.0)
        inv = np.where(eigvals > cutoff, 1.0 / np.where(eigvals > cutoff, eigvals, 1.0), 0.0)
        return cls(n=n, adjacency=a, laplacian=lap, edges=edges, eigenvalues=eigvals,
                   lap_pinv=(eigvecs * inv) @ eigvecs.T)


@dataclass(frozen=True)
class LaplacianSpectra:
    """Spectral objects derived from a graph Laplacian for one beta.

    lap_beta is the beta-regularized Laplacian  L_beta = L + (beta/n) 11^T,
    and lap_beta_inv its inverse from the pseudo-inverse identity
    L_beta^{-1} = L^+ + (1/(beta n)) 11^T; kappa_n is the largest Laplacian
    eigenvalue, read from the graph's own spectrum.
    """

    beta: float
    lap_beta: np.ndarray
    lap_beta_inv: np.ndarray
    kappa_n: float
    algebraic_connectivity: float

    @cached_property
    def kappa_beta(self) -> float:
        """The squared largest eigenvalue of L_beta, from one eigvalsh on first read."""
        return float(np.max(np.linalg.eigvalsh(self.lap_beta))) ** 2


def _connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        for j in neighbors[stack.pop()]:
            if not seen[j]:
                seen[j] = True
                count += 1
                stack.append(j)
    return count == n


def build_topology(topology: Topology) -> tuple[tuple[int, int], ...]:
    """Produce the undirected edge set for a topology recipe.

    Erdos-Renyi graphs are resampled (with incremented seed) up to
    MAX_TOPOLOGY_RETRIES times until connected; a GraphError is raised if
    that budget is exhausted.
    """
    n = topology.n
    if topology.kind == "cyclic":
        if n == 1:
            return ()
        if n == 2:
            return ((0, 1),)
        return tuple((i, (i + 1) % n) for i in range(n))

    if topology.kind == "barbell":
        c = topology.cluster
        edges = [(i, j) for i in range(c) for j in range(i + 1, c)]
        edges += [(c + i, c + j) for i in range(c) for j in range(i + 1, c)]
        edges.append((c - 1, c))  # single bridge between the cliques
        return tuple(sorted(set(edges)))

    # erdos_renyi
    if n == 1:
        return ()
    for attempt in range(MAX_TOPOLOGY_RETRIES):
        rng = np.random.default_rng(topology.seed + attempt)
        mask = rng.random((n, n)) < topology.p
        edges = tuple(
            (i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]
        )
        if _connected(n, edges):
            return edges
    raise GraphError(
        f"erdos_renyi(n={n}, p={topology.p}) still disconnected after "
        f"{MAX_TOPOLOGY_RETRIES} resamples"
    )


def metropolis_weights(edges: tuple[tuple[int, int], ...], n: int) -> WeightedGraph:
    """Metropolis-Hastings weights: A_ij = 1/(1 + max(deg_i, deg_j)).

    The diagonal absorbs the slack, which makes the matrix symmetric and
    doubly stochastic for any undirected edge set.
    """
    if n < 1:
        raise GraphError(f"particle count must be >= 1, got {n}")
    deg = np.zeros(n, dtype=int)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise GraphError(f"invalid edge ({i}, {j}) for n={n}")
        deg[i] += 1
        deg[j] += 1
    a = np.zeros((n, n))
    for i, j in edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        a[i, j] = w
        a[j, i] = w
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    return WeightedGraph.from_adjacency(a)


def build_graph(topology: Topology) -> WeightedGraph:
    """Convenience: topology recipe straight to a Metropolis-weighted graph."""
    return metropolis_weights(build_topology(topology), topology.n)


def spectra(graph: WeightedGraph, beta: float) -> LaplacianSpectra:
    """L_beta, its inverse and the Rayleigh constants, from the graph's spectrum;
    kappa_beta is computed on first read."""
    if beta <= 0:
        raise GraphError(f"beta must be positive, got {beta}")
    n, eigvals = graph.n, graph.eigenvalues
    ones_block = np.ones((n, n)) / n
    return LaplacianSpectra(
        beta=beta,
        lap_beta=graph.laplacian + beta * ones_block,
        lap_beta_inv=graph.lap_pinv + ones_block / beta,
        kappa_n=max(float(eigvals[-1]), 0.0),
        algebraic_connectivity=float(eigvals[1]) if n >= 2 else 0.0,
    )

"""dismd: distributed stochastic mirror descent simulator.

Library plus CLI for integrating interacting mirror descent dynamics (plain,
exact, and dual-preconditioned) over communication graphs, with Lyapunov,
consensus and KKT diagnostics.
"""

__version__ = "0.7.0"

from .dynamics import DivergenceError, Hyperparams, NoiseStream, ParticleSystem, run
from .graphs import (
    GraphError,
    LaplacianSpectra,
    Topology,
    WeightedGraph,
    build_graph,
    build_topology,
    metropolis_weights,
    spectra,
)
from .mirror_maps import (
    EntropyMap,
    EuclideanMap,
    IdentityDual,
    MirrorMap,
    QuadraticMap,
    RegularizedDualHessian,
    make_mirror_map,
)
from .objectives import (
    DistributedProblem,
    GeneratorConfig,
    generate_problem,
    load_problem_bundle,
    save_problem_bundle,
)
from .oracle import OptimalPair, solve_simplex, solve_unconstrained

__all__ = [
    "DivergenceError",
    "DistributedProblem",
    "EntropyMap",
    "EuclideanMap",
    "GeneratorConfig",
    "GraphError",
    "Hyperparams",
    "IdentityDual",
    "LaplacianSpectra",
    "MirrorMap",
    "NoiseStream",
    "OptimalPair",
    "ParticleSystem",
    "QuadraticMap",
    "RegularizedDualHessian",
    "Topology",
    "WeightedGraph",
    "build_graph",
    "build_topology",
    "generate_problem",
    "load_problem_bundle",
    "make_mirror_map",
    "metropolis_weights",
    "run",
    "save_problem_bundle",
    "solve_simplex",
    "solve_unconstrained",
    "spectra",
]

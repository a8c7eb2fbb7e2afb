"""Euler-Maruyama integration of the interacting mirror descent dynamics.

One kernel, ``_step``, holds the explicit update of all three flavors, and
``ismd_step``, ``eismd_step`` and ``epismd_step`` are its entry points. It
writes the new state into ``out`` with in-place numpy calls, in the order of
operations and operands of the allocating update; ``run`` passes its own
state as ``out`` and one set of work arrays, and a call without ``out``
returns a new state. With
per-particle dual states z^i, multipliers lambda^i and mirrored multipliers
mu^i, one step of length dt reads (L is the graph Laplacian applied
blockwise, B the Gaussian increment with variance sigma^2 dt per coordinate):

* plain coupling (ISMD):
    z <- z - dt * (eta * grad_f(x) + eps * L z) + B
* exact (EISMD), coupling on x by default, on z via ``interaction_on="z"``:
    z      <- z - dt * (eta * grad_f(x) + eps * L x + L lambda) + B
    lambda <- lambda + dt * L x
* preconditioned exact (EPISMD): the lambda integral runs through a second
  mirror map over the multipliers,
    mu <- mu + dt * L x,   lambda = dual.backward(mu)

with x = backward(z) re-applied after every step, so the primal iterates can
never leave the mirror map's range (for the entropy map, the open simplex).
The flavors differ only in the multiplier: none (ISMD, which then couples on
z), lambda itself, or lambda through the dual map. Under ``IdentityDual`` the
preconditioned step is the exact one bit for bit.

Initial conditions: lambda_0 = 0, z_0 = forward(x_0), mu_0 = 0. Noise is a
counter-based Gaussian stream keyed by (seed, step, particle, coordinate),
so trajectories are pure functions of (seed, config) no matter how the work
is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .graphs import WeightedGraph
from .mirror_maps import MirrorMap
from .objectives import DistributedProblem

ALGORITHMS = ("ismd", "eismd", "epismd")


@dataclass(eq=False)
class DivergenceError(RuntimeError):
    """A state coordinate became non-finite during integration.

    ``array`` ("z", "lam" or "mu"), ``particle`` and ``coordinate`` locate the
    first offending entry (arrays in that order, row-major within one), and
    ``value`` is that entry. ``records`` holds the metrics taken before the
    blow-up. A command that writes the run's outputs sets ``run``, its label,
    and ``written``, the paths it wrote; the message names both.
    """

    step: int
    records: list = field(repr=False)
    array: str
    particle: int
    coordinate: int
    value: float
    run: str | None = None
    written: tuple = ()

    def __str__(self) -> str:
        where = "" if self.run is None else f"run {self.run!r}: "
        text = (
            f"{where}integration diverged at step {self.step}: {self.array} is {self.value!r} "
            f"at particle {self.particle}, coordinate {self.coordinate}"
        )
        if self.written:
            *rest, last = map(str, self.written)
            text += f"; wrote {', '.join(rest)}{' and ' if rest else ''}{last}"
        return text


@dataclass(frozen=True)
class Hyperparams:
    eta: float = 1.0
    epsilon: float = 1.0
    sigma: float = 0.0
    dt: float = 0.01
    epochs: int = 1000

    def __post_init__(self):
        if not all(map(math.isfinite, (self.eta, self.epsilon, self.sigma, self.dt))):
            raise ValueError(
                "eta, epsilon, sigma and dt must be finite, got "
                f"{self.eta}, {self.epsilon}, {self.sigma} and {self.dt}"
            )
        if self.eta <= 0 or self.epsilon <= 0 or self.dt <= 0:
            raise ValueError("eta, epsilon and dt must be positive")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


class NoiseStream:
    """Counter-based Gaussian increments, N(0, sigma^2 dt) per coordinate.

    Each step gets its own Philox counter block, so the (n, d) increment for
    step k is a pure function of (seed, k, particle, coordinate) and is
    independent of evaluation order or thread count.
    """

    def __init__(self, seed: int, n: int, d: int, sigma: float, dt: float):
        self.n = n
        self.d = d
        self.scale = sigma * math.sqrt(dt)
        key = SeedSequence(seed).generate_state(2, np.uint64)
        self._gen = Generator(Philox(key=key))
        self._state = self._gen.bit_generator.state

    def block(self, step: int, out: np.ndarray | None = None) -> np.ndarray:
        """The draw of a fresh Philox at counter [0, 0, step, 0], scaled,
        written into ``out`` (C-contiguous, (n, d)) when given.

        One generator serves every step: its counter is moved to the step's
        block and its buffer emptied, which reproduces the fresh generator's
        output bit for bit.
        """
        state = self._state
        state["state"]["counter"][:] = (0, 0, step, 0)
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        self._gen.bit_generator.state = state
        if out is None:
            out = np.empty((self.n, self.d))
        self._gen.standard_normal(out=out)
        out *= self.scale
        return out


@dataclass
class ParticleSystem:
    """Stacked state of the particle system at one step.

    x rows always satisfy x^i = backward(z^i); lam is zero for ISMD and mu is
    carried only by the preconditioned dynamics. The step kernel updates a
    state in place, so a state kept past the next step is a ``copy()``.
    """

    z: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray | None
    step: int
    t: float

    @classmethod
    def initial(cls, mmap: MirrorMap, x0_rows: np.ndarray, with_mu: bool = False) -> "ParticleSystem":
        return _initial(mmap, x0_rows, with_mu)[0]

    def copy(self) -> "ParticleSystem":
        """A state with copies of every array."""
        mu = None if self.mu is None else self.mu.copy()
        return ParticleSystem(z=self.z.copy(), x=self.x.copy(), lam=self.lam.copy(), mu=mu,
                              step=self.step, t=self.t)


def _stacked(n: int, d: int, with_mu: bool) -> tuple[ParticleSystem, np.ndarray]:
    """An unfilled step-0 state whose z, lam and (with_mu) mu are views of one
    (k, n, d) buffer, and that buffer."""
    stack = np.empty((3 if with_mu else 2, n, d))
    mu = stack[2] if with_mu else None
    return ParticleSystem(z=stack[0], x=np.empty((n, d)), lam=stack[1], mu=mu, step=0, t=0.0), stack


def _initial(mmap: MirrorMap, x0_rows: np.ndarray,
             with_mu: bool) -> tuple[ParticleSystem, np.ndarray]:
    """The step-0 state, z_0 = forward(x_0) with zero multipliers, in a
    stacked buffer, and that buffer."""
    x0 = np.asarray(x0_rows, dtype=float)
    state, stack = _stacked(*x0.shape, with_mu)
    stack.fill(0.0)
    state.z[...] = mmap.forward(x0)
    mmap.backward(state.z, out=state.x)
    return state, stack


class StepScratch:
    """Work arrays of the step kernel for (n, d) states."""

    def __init__(self, n: int, d: int):
        self.drift = np.empty((n, d))
        self.work = np.empty((n, d))
        self.lap_x = np.empty((n, d))


def default_initial_rows(problem: DistributedProblem, mmap: MirrorMap, seed: int) -> np.ndarray:
    """Default x_0: the uniform simplex point for the entropy map, a standard
    normal draw per particle otherwise."""
    if mmap.kind == "entropy":
        return np.full((problem.n, problem.d), 1.0 / problem.d)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((problem.n, problem.d))


def _step(state, problem, mmap, graph, hp, noise, interaction_on, dual, out,
          scratch) -> ParticleSystem:
    """One Euler-Maruyama step of any of the three dynamics, written into
    ``out``, which may be ``state`` itself; None allocates a new state.

    ``interaction_on`` is None for the plain dynamics, which couple on z and
    carry no multiplier. The exact dynamics integrate lam directly when
    ``dual`` is None and mu, with lam = dual.backward(mu), otherwise. Every
    read of ``state`` precedes the write of the same array of ``out``.
    """
    if out is None:
        out, _ = _stacked(*state.z.shape, dual is not None)
    if scratch is None:
        scratch = StepScratch(*state.z.shape)
    lap, drift, work, lap_x = graph.laplacian, scratch.drift, scratch.work, scratch.lap_x
    # drift = eta * grad + eps * (L z or L x) [+ L lam], as in the allocating form
    np.multiply(hp.eta, problem.grads(state.x, out=drift), out=drift)
    if interaction_on is not None:
        np.matmul(lap, state.x, out=lap_x)
    inter = lap_x if interaction_on == "x" else np.matmul(lap, state.z, out=work)
    np.add(drift, np.multiply(hp.epsilon, inter, out=work), out=drift)
    if interaction_on is None:
        if out.lam is not state.lam:
            np.copyto(out.lam, state.lam)
    else:
        np.add(drift, np.matmul(lap, state.lam, out=work), out=drift)
        np.multiply(hp.dt, lap_x, out=lap_x)
        if dual is None:
            np.add(state.lam, lap_x, out=out.lam)
        else:
            np.add(state.mu, lap_x, out=out.mu)
            dual.backward(out.mu, out=out.lam)
    np.multiply(hp.dt, drift, out=drift)
    np.subtract(state.z, drift, out=out.z)
    if noise is not None:
        np.add(out.z, noise, out=out.z)
    mmap.backward(out.z, out=out.x)
    out.step = state.step + 1
    out.t = out.step * hp.dt
    return out


def ismd_step(
    state: ParticleSystem,
    problem: DistributedProblem,
    mmap: MirrorMap,
    graph: WeightedGraph,
    hp: Hyperparams,
    noise: np.ndarray | None = None,
    *,
    out: ParticleSystem | None = None,
    scratch: StepScratch | None = None,
) -> ParticleSystem:
    return _step(state, problem, mmap, graph, hp, noise, None, None, out, scratch)


def eismd_step(
    state: ParticleSystem,
    problem: DistributedProblem,
    mmap: MirrorMap,
    graph: WeightedGraph,
    hp: Hyperparams,
    noise: np.ndarray | None = None,
    interaction_on: str = "x",
    *,
    out: ParticleSystem | None = None,
    scratch: StepScratch | None = None,
) -> ParticleSystem:
    return _step(state, problem, mmap, graph, hp, noise, interaction_on, None, out, scratch)


def epismd_step(
    state: ParticleSystem,
    problem: DistributedProblem,
    mmap: MirrorMap,
    dual,
    graph: WeightedGraph,
    hp: Hyperparams,
    noise: np.ndarray | None = None,
    interaction_on: str = "x",
    *,
    out: ParticleSystem | None = None,
    scratch: StepScratch | None = None,
) -> ParticleSystem:
    return _step(state, problem, mmap, graph, hp, noise, interaction_on, dual, out, scratch)


# Magnitudes beyond this overflow the quadratic forms every diagnostic needs,
# so they are treated as divergence just like non-finite values.
_STATE_LIMIT = 1e150
# run's first tier: a sum of squares at most this bounds every |entry| by
# _STATE_LIMIT / sqrt(2), which the rounding of the sum cannot carry past the
# limit, so _divergence finds no bad entry in a state it accepts. Any other
# state, NaN and inf included (the comparison is False for them), goes to
# _divergence.
_FAST_SUM_LIMIT = 0.5 * _STATE_LIMIT**2


def _divergence(state: ParticleSystem, records: list) -> DivergenceError | None:
    """The error naming the first entry of z, lam or mu outside
    [-_STATE_LIMIT, _STATE_LIMIT], NaN included; None if there is none."""
    for name in ("z", "lam", "mu"):
        arr = getattr(state, name)
        if arr is None:
            continue
        bad = ~(np.abs(arr) <= _STATE_LIMIT)
        if bad.any():
            particle, coordinate = np.unravel_index(int(np.argmax(bad)), arr.shape)
            value = float(arr[particle, coordinate])
            return DivergenceError(
                state.step, records, name, int(particle), int(coordinate), value
            )
    return None


def run(
    algorithm: str,
    problem: DistributedProblem,
    mmap: MirrorMap,
    graph: WeightedGraph,
    hp: Hyperparams,
    *,
    seed: int = 0,
    dual=None,
    interaction_on: str = "x",
    metrics_every: int = 50,
    recorder=None,
    x0_rows: np.ndarray | None = None,
) -> list:
    """Iterate the chosen step function for hp.epochs steps.

    A record is emitted at step 0, every ``metrics_every`` steps and at the
    final step. ``recorder`` maps a copy of the state to whatever should be
    kept (default: the copy itself). On a non-finite state the run aborts with
    a DivergenceError carrying the step index, the records collected so far
    and the location of the first offending entry.

    The run owns one state, whose z, lam and mu share one buffer, and updates
    it in place each step; the guard takes that buffer's sum of squares and
    scans the entries with ``_divergence`` only when the sum is large or not
    a number.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if interaction_on not in ("x", "z"):
        raise ValueError(f"interaction_on must be 'x' or 'z', got {interaction_on!r}")
    if (dual is None) == (algorithm == "epismd"):  # only epismd integrates a dual map
        raise ValueError(f"{algorithm} {'needs a' if dual is None else 'takes no'} dual map")
    if metrics_every < 1:
        raise ValueError(f"metrics_every must be >= 1, got {metrics_every}")
    if recorder is None:
        recorder = lambda s: s  # noqa: E731 - identity recorder keeps raw states

    shape = (problem.n, problem.d)
    if x0_rows is None:
        x0_rows = default_initial_rows(problem, mmap, seed)
    elif np.shape(x0_rows) != shape:
        raise ValueError(f"x0_rows must have shape {shape}, got {np.shape(x0_rows)}")
    state, stack = _initial(mmap, x0_rows, with_mu=(algorithm == "epismd"))
    flat = stack.reshape(-1)
    noise = b = None
    if hp.sigma > 0:
        noise = NoiseStream(seed, problem.n, problem.d, hp.sigma, hp.dt)
        b = np.empty(shape)
    scratch = StepScratch(*shape)

    records = [recorder(state.copy())]
    for k in range(hp.epochs):
        if noise is not None:
            noise.block(k, out=b)
        if algorithm == "ismd":
            ismd_step(state, problem, mmap, graph, hp, b, out=state, scratch=scratch)
        elif algorithm == "eismd":
            eismd_step(state, problem, mmap, graph, hp, b, interaction_on,
                       out=state, scratch=scratch)
        else:
            epismd_step(state, problem, mmap, dual, graph, hp, b, interaction_on,
                        out=state, scratch=scratch)
        if not np.vdot(flat, flat) <= _FAST_SUM_LIMIT:
            error = _divergence(state, records)
            if error is not None:
                raise error
        if state.step % metrics_every == 0 or state.step == hp.epochs:
            records.append(recorder(state.copy()))
    return records

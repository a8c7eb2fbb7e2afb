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

``run`` copies the state at each record step into a preallocated block of
``Snapshots`` and hands the recorder whole blocks, so the metrics are
computed over a leading snapshot axis rather than one state at a time.

``run`` also integrates R replicas of one run at once: the same problem,
maps, graph, dt and horizon, each with its own eta, epsilon, sigma, seed and
x_0. Their states stack on a leading replica axis, every kernel call covers
all of them, and each replica's arithmetic is its single run's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
        # a fresh generator's state with an empty buffer, in plain Python ints,
        # which the state setter reads faster than numpy arrays
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": key.tolist()},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def block(self, step: int, out: np.ndarray | None = None) -> np.ndarray:
        """The draw of a fresh Philox at counter [0, 0, step, 0], scaled,
        written into ``out`` (C-contiguous, (n, d)) when given.

        One generator serves every step: its counter is moved to the step's
        block and its buffer emptied, which reproduces the fresh generator's
        output bit for bit.
        """
        self._counter[2] = step
        self._gen.bit_generator.state = self._state
        if out is None:
            out = np.empty((self.n, self.d))
        self._gen.standard_normal(out=out)
        out *= self.scale
        return out


@dataclass
class ParticleSystem:
    """Stacked state of the particle system at one step: (n, d) arrays, or
    (R, n, d) for R replicas.

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

    def copy(self) -> "ParticleSystem":
        """A state with copies of every array."""
        mu = None if self.mu is None else self.mu.copy()
        return ParticleSystem(z=self.z.copy(), x=self.x.copy(), lam=self.lam.copy(), mu=mu,
                              step=self.step, t=self.t)


@dataclass
class Snapshots:
    """The states of R record steps, stacked on a leading axis.

    z, x, lam and (preconditioned dynamics only) mu are (R, n, d); step and t
    are (R,). ``run`` reuses one block for the whole run, so a recorder that
    keeps arrays past its call keeps copies.
    """

    z: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray | None
    step: np.ndarray
    t: np.ndarray

    @classmethod
    def of(cls, state: ParticleSystem) -> "Snapshots":
        """The block R = 1 of one state; its arrays are views of the state's."""
        mu = None if state.mu is None else state.mu[None]
        return cls(z=state.z[None], x=state.x[None], lam=state.lam[None], mu=mu,
                   step=np.array([state.step]), t=np.array([state.t]))

    def __len__(self) -> int:
        return len(self.step)

    def __getitem__(self, index) -> "Snapshots | ParticleSystem":
        """A slice of the block, or snapshot ``index`` as a state; both are views."""
        mu = None if self.mu is None else self.mu[index]
        if isinstance(index, slice):
            return Snapshots(z=self.z[index], x=self.x[index], lam=self.lam[index], mu=mu,
                             step=self.step[index], t=self.t[index])
        return ParticleSystem(z=self.z[index], x=self.x[index], lam=self.lam[index], mu=mu,
                              step=int(self.step[index]), t=float(self.t[index]))


def _states(snaps: Snapshots) -> list[ParticleSystem]:
    """The identity recorder: a copy of each snapshot's state."""
    return [snaps[r].copy() for r in range(len(snaps))]


def _stacked(shape: tuple[int, ...], with_mu: bool) -> tuple[ParticleSystem, np.ndarray]:
    """An unfilled step-0 state of ``shape`` arrays whose z, lam and
    (with_mu) mu are views of one (k, *shape) buffer, and that buffer."""
    stack = np.empty((3 if with_mu else 2, *shape))
    mu = stack[2] if with_mu else None
    return ParticleSystem(z=stack[0], x=np.empty(shape), lam=stack[1], mu=mu, step=0, t=0.0), stack


def _initial(mmap: MirrorMap, x0_rows: np.ndarray,
             with_mu: bool) -> tuple[ParticleSystem, np.ndarray]:
    """The step-0 state, z_0 = forward(x_0) with zero multipliers, of (n, d)
    or (R, n, d) rows in a stacked buffer, and that buffer."""
    x0 = np.asarray(x0_rows, dtype=float)
    state, stack = _stacked(x0.shape, with_mu)
    stack.fill(0.0)
    state.z[...] = mmap.forward(x0)
    mmap.backward(state.z, out=state.x)
    return state, stack


class StepScratch:
    """Work arrays of the step kernel for (n, d) or (R, n, d) states."""

    def __init__(self, *shape: int):
        self.drift = np.empty(shape)
        self.work = np.empty(shape)
        self.lap_x = np.empty(shape)


@dataclass(frozen=True)
class ReplicaRates:
    """What the step kernel reads of the hyperparameters of R > 1 replicas:
    eta and epsilon as (R, 1, 1) arrays, which broadcast against (R, n, d)
    states, and the dt they share. Each replica's own sigma scales its
    NoiseStream; ``sigma`` is the largest of them, so, as in Hyperparams, it
    is positive exactly when noise is drawn."""

    eta: np.ndarray
    epsilon: np.ndarray
    sigma: float
    dt: float

    @classmethod
    def of(cls, hps: list[Hyperparams]) -> "ReplicaRates":
        eta, epsilon = (np.array([getattr(h, k) for h in hps])[:, None, None]
                        for k in ("eta", "epsilon"))
        return cls(eta=eta, epsilon=epsilon, sigma=max(h.sigma for h in hps), dt=hps[0].dt)


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
    read of ``state`` precedes the write of the same array of ``out``. ``hp``
    is a Hyperparams for (n, d) states, or the ReplicaRates of (R, n, d)
    states of R replicas.
    """
    if out is None:
        out, _ = _stacked(state.z.shape, dual is not None)
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


# Bytes of one (B, n, d) array of a run's snapshot block, which sets B:
# 64 snapshots at n = 10, d = 20 and 8 at n = d = 40. The budget covers all
# of a run's replicas, B snapshots of each taking (R, B, n, d), so memory does
# not grow with R. Large enough that the recorder's per-call costs spread over
# many snapshots, small enough that the block and the recorder's temporaries
# over it add about 0.4 MB to a run's peak memory.
_BLOCK_BYTES = 102_400
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


class _Replica(NamedTuple):
    index: int  # position in the caller's list of replicas
    hp: Hyperparams
    noise: NoiseStream | None
    recorder: object
    records: list


class _Batch:
    """The replicas a run still integrates: their state over one (k, R, n, d)
    buffer, what the step kernel reads, and their block of snapshots.

    A batch of one steps (n, d) views of the buffer with its replica's own
    Hyperparams, as a single run always has; R > 1 replicas step (R, n, d)
    arrays with their ReplicaRates. Replicas without noise add -0.0 to z when
    others draw noise: x + (-0.0) is x for every x, -0.0 included, so their
    bits are those of a noise-free step.
    """

    def __init__(self, replicas: list[_Replica], stack: np.ndarray, x: np.ndarray,
                 step: int, t: float, n_records: int):
        self.replicas, self.n_records = replicas, n_records
        self.stack, self.x = stack, x
        self.flat = stack.reshape(-1)
        with_mu = len(stack) == 3
        if len(replicas) == 1:
            views, x_view, self.rates = stack[:, 0], x[0], replicas[0].hp
        else:
            views, x_view, self.rates = stack, x, ReplicaRates.of([r.hp for r in replicas])
        self.state = ParticleSystem(z=views[0], x=x_view, lam=views[1],
                                    mu=views[2] if with_mu else None, step=step, t=t)
        self.scratch = StepScratch(*x_view.shape)
        self.noise = None
        self.draws = []
        if any(r.noise is not None for r in replicas):
            b = np.full(x.shape, -0.0)
            self.noise = b[0] if len(replicas) == 1 else b
            self.draws = [(r.noise, b[row]) for row, r in enumerate(replicas) if r.noise is not None]
        size = min(n_records, max(1, _BLOCK_BYTES // stack[0].nbytes))
        # z, lam and mu of each snapshot, in the order of the buffer
        self.block = np.empty((len(stack), len(replicas), size, *x.shape[1:]))
        self.xs = np.empty((len(replicas), size, *x.shape[1:]))
        self.steps = np.empty(size, dtype=np.int64)
        self.ts = np.empty(size)
        # each replica's snapshots, contiguous views of the block
        self.snaps = [Snapshots(z=self.block[0, row], x=self.xs[row], lam=self.block[1, row],
                                mu=self.block[2, row] if with_mu else None,
                                step=self.steps, t=self.ts) for row in range(len(replicas))]
        self.filled = 0

    def replica_state(self, row: int) -> ParticleSystem:
        """The state of the replica in ``row``, of views of the buffer."""
        mu = self.stack[2, row] if len(self.stack) == 3 else None
        return ParticleSystem(z=self.stack[0, row], x=self.x[row], lam=self.stack[1, row],
                              mu=mu, step=self.state.step, t=self.state.t)

    def take(self) -> None:
        """Copy the state into the next snapshot of each replica."""
        filled = self.filled
        self.block[:, :, filled] = self.stack
        self.xs[:, filled] = self.x
        self.steps[filled] = self.state.step
        self.ts[filled] = self.state.t
        self.filled += 1
        if self.filled == len(self.steps):
            self.flush()

    def flush(self) -> None:
        """Hand each replica's snapshots, a contiguous block, to its recorder."""
        filled, self.filled = self.filled, 0
        if filled:
            for r, snaps in zip(self.replicas, self.snaps):
                r.records.extend(r.recorder(snaps[:filled]))

    def without(self, rows) -> "_Batch":
        """The batch of the other replicas, with their current state; call
        after ``flush``."""
        keep = [row for row in range(len(self.replicas)) if row not in rows]
        # indexing the replica axis need not give a C-contiguous array, and
        # the guard's flat view of the buffer needs one
        stack = np.ascontiguousarray(self.stack[:, keep])
        return _Batch([self.replicas[row] for row in keep], stack, self.x[keep],
                      self.state.step, self.state.t, self.n_records)


def _bound_step(algorithm, problem, mmap, graph, dual, interaction_on):
    """The step of ``algorithm`` with the arguments a run fixes bound, called
    as step(state, hp=, noise=, out=, scratch=). Its entry point is the one
    the module names at this call, so a wrapper installed around it sees
    every step. (A closure's positional call costs a tenth of a keyword
    ``partial``'s.)"""
    if algorithm == "ismd":
        entry = ismd_step

        def step(state, hp, noise, out, scratch):
            return entry(state, problem, mmap, graph, hp, noise, out=out, scratch=scratch)
    elif algorithm == "eismd":
        entry = eismd_step

        def step(state, hp, noise, out, scratch):
            return entry(state, problem, mmap, graph, hp, noise, interaction_on, out=out,
                         scratch=scratch)
    else:
        entry = epismd_step

        def step(state, hp, noise, out, scratch):
            return entry(state, problem, mmap, dual, graph, hp, noise, interaction_on, out=out,
                         scratch=scratch)
    return step


def run(
    algorithm: str,
    problem: DistributedProblem,
    mmap: MirrorMap,
    graph: WeightedGraph,
    hp,
    *,
    seed=0,
    dual=None,
    interaction_on: str = "x",
    metrics_every: int = 50,
    recorder=None,
    x0_rows=None,
) -> list:
    """Iterate the chosen step function for hp.epochs steps, for one run or
    for a batch of replicas.

    A single run takes one Hyperparams, one seed, one recorder and (n, d)
    x0_rows, and returns its records. A batch takes a sequence of
    Hyperparams, one per replica, which share dt and epochs, and a sequence
    of seeds; x0_rows and recorder are then None or sequences with one entry
    per replica, and an x0_rows entry may be None. It returns one outcome
    per replica, in order: its records, or the DivergenceError that carries
    them. Each replica's outcome is that of its single run, bit for bit.

    A record is taken at step 0, every ``metrics_every`` steps and at the
    final step: the state is copied into the next slot of a preallocated
    ``Snapshots`` block. Each full block, and the partial block at the end,
    goes to ``recorder`` in one call, which returns one record per snapshot
    (the default returns a copy of each state). The block holds at most
    ``_BLOCK_BYTES`` per (B, n, d) array over all replicas, and where its
    boundaries fall changes no record. On a non-finite state the run hands
    the partial block to the recorder, then raises a DivergenceError
    carrying the step index, the records taken before the blow-up and the
    location of the first offending entry; in a batch that replica's
    outcome is the error, and the other replicas carry on without it.

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
    single = isinstance(hp, Hyperparams)
    if single:  # a single run is the batch of one
        hp, seed, x0_rows, recorder = [hp], [seed], [x0_rows], [recorder]
    hps, seeds = list(hp), list(seed)
    x0s = [None] * len(hps) if x0_rows is None else list(x0_rows)
    recorders = [None] * len(hps) if recorder is None else list(recorder)
    if not hps or not len(seeds) == len(x0s) == len(recorders) == len(hps):
        raise ValueError("a batch needs at least one replica, and one seed, x0_rows and "
                         "recorder entry per replica")
    dt, epochs = hps[0].dt, hps[0].epochs
    if any(h.dt != dt or h.epochs != epochs for h in hps):
        raise ValueError("the replicas of a batch must share dt and epochs")

    shape = (problem.n, problem.d)
    for i, (s, x0) in enumerate(zip(seeds, x0s)):
        if x0 is None:
            x0s[i] = default_initial_rows(problem, mmap, s)
        elif np.shape(x0) != shape:
            raise ValueError(f"x0_rows must have shape {shape}, got {np.shape(x0)}")
    state, stack = _initial(mmap, np.array(x0s, dtype=float), with_mu=(algorithm == "epismd"))
    replicas = [
        _Replica(i, h, NoiseStream(s, *shape, h.sigma, dt) if h.sigma > 0 else None,
                 rec or _states, [])
        for i, (h, s, rec) in enumerate(zip(hps, seeds, recorders))
    ]
    outcomes: list = [r.records for r in replicas]
    batch = _Batch(replicas, stack, state.x, 0, 0.0, 1 + math.ceil(epochs / metrics_every))
    step = _bound_step(algorithm, problem, mmap, graph, dual, interaction_on)

    batch.take()
    for k in range(epochs):
        for noise, out in batch.draws:
            noise.block(k, out=out)
        state = batch.state
        step(state, hp=batch.rates, noise=batch.noise, out=state, scratch=batch.scratch)
        flat = batch.flat
        if not np.vdot(flat, flat) <= _FAST_SUM_LIMIT:
            errors = {}
            for row, r in enumerate(batch.replicas):
                error = _divergence(batch.replica_state(row), r.records)
                if error is not None:
                    errors[row] = outcomes[r.index] = error
            if errors:
                batch.flush()  # each error holds its list, so the block's records reach it
                if len(errors) == len(batch.replicas):
                    break
                batch = batch.without(errors)
        if state.step % metrics_every == 0 or state.step == epochs:
            batch.take()
    batch.flush()
    if not single:
        return outcomes
    if isinstance(outcomes[0], DivergenceError):
        raise outcomes[0]
    return outcomes[0]

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

A run keeps its state in one buffer: z, lambda, (EPISMD only) mu and x, in
that order, on its leading axis, a layout that ``_views`` alone names. The
divergence guard reads the evolved prefix, all but x, and ``_divergence``
alone finds an entry beyond the limit. ``run`` copies the buffer at each
record step into a preallocated block of snapshots laid out the same way,
a ``ParticleSystem`` with a leading snapshot axis, and hands the recorder
whole blocks, so the metrics are computed over that axis rather than one
state at a time.

``run`` also integrates R replicas of one run at once: the same problem,
maps, graph and horizon, each with its own eta, epsilon, sigma, dt, seed and
x_0. Their states stack on a replica axis after the buffer's first, every
kernel call covers all of them, and each replica's arithmetic is its single
run's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .graphs import WeightedGraph
from .mirror_maps import MirrorMap
from .objectives import DistributedProblem

ALGORITHMS = ("ismd", "eismd", "epismd")
# The hyperparameters each replica of a batch holds apart; it shares the rest.
PER_REPLICA = ("eta", "epsilon", "sigma", "dt")


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
    (R, n, d) for R replicas, with an int step and a float t, (R, 1, 1) for
    replicas of different dt. A block of B snapshots stacks them on a
    leading axis, its step and t then (B,).

    x rows always satisfy x^i = backward(z^i); lam is zero for ISMD and mu is
    carried only by the preconditioned dynamics. The step kernel updates a
    state in place, so a state kept past the next step is a ``copy()``, and
    ``run`` reuses one block for the whole run, so a recorder that keeps
    arrays past its call keeps copies.
    """

    z: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray | None
    step: int | np.ndarray
    t: float | np.ndarray

    def copy(self) -> "ParticleSystem":
        """A state with copies of z, x, lam and mu."""
        mu = None if self.mu is None else self.mu.copy()
        return ParticleSystem(z=self.z.copy(), x=self.x.copy(), lam=self.lam.copy(), mu=mu,
                              step=self.step, t=self.t)

    def __len__(self) -> int:
        return len(self.step)

    def __getitem__(self, index) -> "ParticleSystem":
        """Every field indexed on the leading axis, z, x, lam and mu as views:
        snapshot ``index`` of a block, with an int step and a float t, for an
        integer; a sub-block for a slice; the block of one state for None."""
        mu = None if self.mu is None else self.mu[index]
        step, t = np.asarray(self.step)[index], np.asarray(self.t)[index]
        if np.ndim(step) == 0:
            step, t = int(step), float(t)
        return ParticleSystem(z=self.z[index], x=self.x[index], lam=self.lam[index], mu=mu,
                              step=step, t=t)


def _states(snaps: ParticleSystem) -> list[ParticleSystem]:
    """The identity recorder: a copy of each snapshot's state."""
    return [snaps[r].copy() for r in range(len(snaps))]


def _views(buf: np.ndarray, step, t) -> ParticleSystem:
    """The state whose arrays are the views of ``buf``, a run's state buffer
    or its block of snapshots: z, lam, mu (only in a buffer of four) and x,
    in that order, on its leading axis. Its prefix ``buf[:-1]`` holds the
    evolved arrays."""
    return ParticleSystem(z=buf[0], x=buf[-1], lam=buf[1], mu=buf[2] if len(buf) == 4 else None,
                          step=step, t=t)


def _initial(mmap: MirrorMap, x0_rows: np.ndarray, with_mu: bool) -> np.ndarray:
    """The state buffer of step 0, z_0 = forward(x_0) with zero multipliers,
    of (n, d) or (R, n, d) rows, laid out as ``_views`` reads it."""
    buf = np.zeros((4 if with_mu else 3, *np.shape(x0_rows)))
    buf[0] = mmap.forward(x0_rows)
    mmap.backward(buf[0], out=buf[-1])
    return buf


class StepScratch:
    """Work arrays of the step kernel for (n, d) or (R, n, d) states."""

    def __init__(self, *shape: int):
        self.drift = np.empty(shape)
        self.work = np.empty(shape)
        self.lap_x = np.empty(shape)


@dataclass(frozen=True)
class ReplicaRates:
    """What the step kernel reads of the hyperparameters of R replicas, a
    single run being one: eta, epsilon and dt each as the float the replicas
    share or, if they differ, an (R, 1, 1) array, which broadcasts against
    (R, n, d) states. Each replica's own sigma and dt scale its NoiseStream;
    ``sigma`` is the largest sigma, so, as in Hyperparams, it is positive
    exactly when noise is drawn."""

    eta: float | np.ndarray
    epsilon: float | np.ndarray
    sigma: float
    dt: float | np.ndarray

    @classmethod
    def of(cls, hps: list[Hyperparams]) -> "ReplicaRates":
        def rate(key):
            values = [getattr(h, key) for h in hps]
            return values[0] if len(set(values)) == 1 else np.array(values)[:, None, None]

        return cls(eta=rate("eta"), epsilon=rate("epsilon"), sigma=max(h.sigma for h in hps),
                   dt=rate("dt"))


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
    is a Hyperparams or a ReplicaRates; an array rate needs (R, n, d) states.
    """
    if out is None:
        out = _views(np.empty((3 if dual is None else 4, *state.z.shape)), 0, 0.0)
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
            dual.backward(out.mu, out=out.lam, work=work)
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
# Snapshots of a block at most: _BLOCK_BYTES alone gives a small problem
# thousands (6,400 at n = 2, d = 1). 128, the largest block of the shipped
# problem shapes, bounds the records one recorder call returns.
_BLOCK_RECORDS = 128
# Magnitudes beyond this overflow the quadratic forms every diagnostic needs,
# so they are treated as divergence just like non-finite values.
_STATE_LIMIT = 1e150
# run's first tier: a sum of squares at most this bounds every |entry| by
# _STATE_LIMIT / sqrt(2), which the rounding of the sum cannot carry past the
# limit, so _divergence finds no bad entry in a state it accepts. Any other
# state, NaN and inf included (the comparison is False for them), goes to
# _divergence.
_FAST_SUM_LIMIT = 0.5 * _STATE_LIMIT**2


def _divergence(evolved: np.ndarray, step: int, records: list) -> DivergenceError | None:
    """The error naming the first entry of ``evolved``, one state's (k, n, d)
    z, lam[, mu], outside [-_STATE_LIMIT, _STATE_LIMIT], NaN included; None
    if there is none. The first index names the array."""
    bad = ~(np.abs(evolved) <= _STATE_LIMIT)
    index = int(np.argmax(bad))
    if not bad.flat[index]:
        return None
    which, particle, coordinate = map(int, np.unravel_index(index, evolved.shape))
    return DivergenceError(step, records, ("z", "lam", "mu")[which], particle, coordinate,
                           float(evolved[which, particle, coordinate]))


class _Replica(NamedTuple):
    index: int  # position in the caller's list of replicas
    hp: Hyperparams
    noise: NoiseStream | None
    recorder: object
    records: list


class _Batch:
    """The replicas a run still integrates: their state over one
    (k + 1, R, n, d) buffer of z, lam[, mu] and x, what the step kernel
    reads, and their block of snapshots, laid out as the buffer, with a t
    per replica. The state and each replica's block are ``_views`` of them.

    Every batch steps with its ReplicaRates: a batch of one steps (n, d)
    views of the buffer, as a single run always has, and R > 1 replicas step
    (R, n, d) arrays. Replicas without noise add -0.0 to z when
    others draw noise: x + (-0.0) is x for every x, -0.0 included, so their
    bits are those of a noise-free step.
    """

    def __init__(self, replicas: list[_Replica], buf: np.ndarray, step: int, n_records: int):
        self.replicas, self.n_records, self.buf = replicas, n_records, buf
        # the guard's view of the evolved arrays, all but x
        self.flat = buf[:-1].reshape(-1)
        self.rates = ReplicaRates.of([r.hp for r in replicas])
        self.state = _views(buf[:, 0] if len(replicas) == 1 else buf, step, step * self.rates.dt)
        self.scratch = StepScratch(*self.state.z.shape)
        self.noise = None
        self.draws = []
        if any(r.noise is not None for r in replicas):
            b = np.full(buf.shape[1:], -0.0)
            self.noise = b[0] if len(replicas) == 1 else b
            self.draws = [(r.noise, b[row]) for row, r in enumerate(replicas) if r.noise is not None]
        size = min(n_records, _BLOCK_RECORDS, max(1, _BLOCK_BYTES // buf[0].nbytes))
        self.block = np.empty((len(buf), len(replicas), size, *buf.shape[2:]))
        self.steps = np.empty(size, dtype=np.int64)
        self.ts = np.empty((len(replicas), size))
        # each replica's snapshots, contiguous views of the block
        self.snaps = [_views(self.block[:, row], self.steps, self.ts[row])
                      for row in range(len(replicas))]
        self.filled = 0

    def take(self) -> None:
        """Copy the state into the next snapshot of each replica."""
        filled = self.filled
        self.block[:, :, filled] = self.buf
        self.steps[filled] = self.state.step
        self.ts[:, filled] = np.ravel(self.state.t)
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
        buf = np.ascontiguousarray(self.buf[:, keep])
        return _Batch([self.replicas[row] for row in keep], buf, self.state.step, self.n_records)


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
    Hyperparams, one per replica, which share epochs, and a sequence
    of seeds; x0_rows and recorder are then None or sequences with one entry
    per replica, and an x0_rows entry may be None. It returns one outcome
    per replica, in order: its records, or the DivergenceError that carries
    them. Each replica's outcome is that of its single run, bit for bit.

    A record is taken at step 0, every ``metrics_every`` steps and at the
    final step: the state is copied into the next slot of a preallocated
    block, a ``ParticleSystem`` of (B, n, d) arrays and (B,) step and t.
    Each full block, and the partial block at the end, goes to ``recorder``
    in one call, which returns one record per snapshot (the default returns
    a copy of each state). The block holds at most
    ``_BLOCK_RECORDS`` snapshots and ``_BLOCK_BYTES`` per (B, n, d) array over
    all replicas, and where its boundaries fall changes no record. On a
    non-finite state the run hands the partial block to the recorder, then
    raises a DivergenceError carrying the step index, the records taken
    before the blow-up and the location of the first offending entry; in a
    batch that replica's outcome is the error, and the other replicas carry
    on without it.

    The run owns one state, whose z, lam, mu and x are the views of one
    buffer, and updates it in place each step; the guard takes the sum of
    squares of the buffer's evolved prefix, all but x, and scans each
    replica's prefix with ``_divergence`` only when the sum is large or not a
    number.
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
    shared = [f.name for f in fields(Hyperparams) if f.name not in PER_REPLICA]
    if any(getattr(h, k) != getattr(hps[0], k) for h in hps for k in shared):
        raise ValueError(f"the replicas of a batch must share {' and '.join(shared)}")

    shape = (problem.n, problem.d)
    for i, (s, x0) in enumerate(zip(seeds, x0s)):
        if x0 is None:
            x0s[i] = default_initial_rows(problem, mmap, s)
        elif np.shape(x0) != shape:
            raise ValueError(f"x0_rows must have shape {shape}, got {np.shape(x0)}")
    buf = _initial(mmap, np.array(x0s, dtype=float), with_mu=dual is not None)
    replicas = [
        _Replica(i, h, NoiseStream(s, *shape, h.sigma, h.dt) if h.sigma > 0 else None,
                 rec or _states, [])
        for i, (h, s, rec) in enumerate(zip(hps, seeds, recorders))
    ]
    outcomes: list = [r.records for r in replicas]
    epochs = hps[0].epochs
    batch = _Batch(replicas, buf, 0, 1 + math.ceil(epochs / metrics_every))
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
                error = _divergence(batch.buf[:-1, row], state.step, r.records)
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

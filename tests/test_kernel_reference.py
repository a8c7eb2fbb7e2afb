"""The per-step kernels and the recorder against the forms of artifact
version 0.1.0.

``DistributedProblem.grads`` and the dual-Hessian preconditioner's
``backward`` are the kernels the integration loop calls on every step. The
forms below are the ones artifact version 0.1.0 shipped, kept here as
independent references (with the ``out=`` keyword of the in-place step
kernel, which only copies the result): a kernel that sums in another order
may differ from them in the last bits, but never by more than a small
multiple of the rounding error of its operands. ``ref_record`` is the recorder that versions
0.1.0 to 0.5.0 shipped: residual-form losses row by row, V1 as
``bregman_to_opt``, sum_i D_phi(x*, x^i) in the map's own form, D_f as
sum_i f_i(x_i) - f* - <grad f(x*), dx> over the einsum ``ref_block_values``,
and the consensus term as <x, L x> / 2. The trajectory check runs the golden
cases once as shipped and once with these references patched in, and bounds
every metrics.csv column; patched in, together with the dense eigvalsh mu_psi
of the dual-Hessian preconditioner that 0.1.0 and 0.2.0 shipped, the
references reproduce the 0.1.0 bytes.

``ref_step`` is the allocating Euler-Maruyama step that versions 0.1.0 to
0.6.0 shipped as ``dynamics._step``: a fresh state and temporaries per
step. The state-level check runs every golden case once through
``dynamics.run`` and once through ``ref_step``, and asks for equal bits in
every state array at every record step.

``RefNoiseStream`` is the noise of versions 0.1.0 to 0.7.0 behind the chunk
API of ``dynamics.NoiseStream``: step k's increment is the draw of a fresh
Philox at counter [0, 0, k, 0], scaled. The trajectory check patches it
into both runs, so that its noisy cases reproduce their 0.1.0 bytes.

``ref_solve_simplex`` is the simplex oracle that versions 0.1.0 to 0.3.0
shipped: centralized entropic mirror descent, certified to 1e-6. The
trajectory check patches it into both runs, so that the simplex cases
compare kernels alone; the exact active-set oracle is pinned by its own
goldens and checked against a support enumeration in tests/test_oracle.py.
"""

import hashlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

from dismd import dynamics, harness, oracle
from dismd.config import RunConfig, load_config
from dismd.diagnostics import MetricsRecord, MetricsRecorder, consensus_spread
from dismd.graphs import Topology, build_graph, spectra
from dismd.mirror_maps import EntropyMap, RegularizedDualHessian
from dismd.objectives import DistributedProblem, GeneratorConfig, generate_problem
from dismd.oracle import INTERIOR_TOL, OptimalPair, OracleError, _stacked_multiplier

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REL_TOL = 1e-12
ABS_FLOOR = 1e-15


def _into(value, out):
    """``value``, copied into ``out`` when the caller passes one."""
    if out is None:
        return value
    out[...] = value
    return out


def ref_grads(self, x_rows, out=None):
    r = np.einsum("nmd,nd->nm", self.q, x_rows) - self.b
    return _into(np.einsum("nmd,nm->nd", self.q, r), out)


def bregman_to_opt(x_rows, x_star, mmap):
    """sum_i D_phi(x*, x^i)."""
    x_rows = np.asarray(x_rows, dtype=float)
    target = np.broadcast_to(x_star, x_rows.shape)
    return float(np.sum(mmap.bregman(target, x_rows)))


def ref_block_values(self, x_rows):
    r = np.einsum("nmd,nd->nm", self.q, x_rows) - self.b
    return 0.5 * np.sum(r * r, axis=-1)


def ref_record(self, state):
    """MetricsRecorder.__call__ of artifact versions 0.1.0 to 0.5.0."""
    x, lap, problem = state.x, self.graph.laplacian, self.problem
    losses = problem.aggregate_value(x)
    lap_x = lap @ x
    v1 = bregman_to_opt(x, self.x_star, self.mmap)
    v2 = self.dual.bregman(self.lambda_star, state.lam)
    dx = x - self.x_star
    d_f = float(
        np.sum(ref_block_values(problem, x))
        - problem.aggregate_value(self.x_star)
        - np.vdot(problem.grads_at(self.x_star), dx)
    )
    v3 = (
        d_f
        + float(np.vdot(dx, lap @ (state.lam - self.lambda_star)))
        + 0.5 * float(np.vdot(x, lap_x))
    )
    return MetricsRecord(
        step=state.step,
        t=state.t,
        loss_mean=problem.aggregate_value(x.mean(axis=0)),
        loss_best=float(losses.min()),
        loss_worst=float(losses.max()),
        consensus_spread=consensus_spread(x, losses),
        kkt_primal=float(np.linalg.norm(problem.grads(x) + lap @ state.lam)),
        kkt_consensus=float(np.linalg.norm(lap_x)),
        V=self.c * (v1 + v2) + v3,
        V1=v1,
        V2=v2,
        V3=v3,
        bregman_to_opt=v1,
    )


def ref_block_record(self, snaps):
    """``ref_record`` on each snapshot of a block, in the block recorder's
    place."""
    return [ref_record(self, snaps[r]) for r in range(len(snaps))]


def _ref_sandwich(self, outer, inner, rows):
    w = np.einsum("nij,nj->ni", inner, outer @ rows)
    return outer @ w


def ref_dual_backward(self, mu, out=None, work=None):
    return _into(_ref_sandwich(self, self._lap_beta_inv, self._hess, mu), out)


def ref_dual_mu(self):
    """mu from a dense eigvalsh of  L_beta^{-1} H L_beta^{-1}."""
    d = self.d
    lbi = np.kron(self._lap_beta_inv, np.eye(d))
    hf = np.zeros((self.n * d, self.n * d))
    for i, h in enumerate(self._hess):
        hf[i * d:(i + 1) * d, i * d:(i + 1) * d] = h
    return 1.0 / float(np.linalg.eigvalsh(lbi @ hf @ lbi)[-1])


def ref_step(state, problem, mmap, graph, hp, noise, interaction_on, dual=None):
    """One step of any of the three dynamics, allocating its result."""
    lap = graph.laplacian
    drift = hp.eta * problem.grads(state.x)
    lam, mu = state.lam, None
    if interaction_on is None:
        drift = drift + hp.epsilon * (lap @ state.z)
    else:
        lap_x = lap @ state.x
        inter = lap_x if interaction_on == "x" else lap @ state.z
        drift = drift + hp.epsilon * inter + lap @ lam
        if dual is None:
            lam = lam + hp.dt * lap_x
        else:
            mu = state.mu + hp.dt * lap_x
            lam = dual.backward(mu)
    z = state.z - hp.dt * drift
    if noise is not None:
        z = z + noise
    k = state.step + 1
    return dynamics.ParticleSystem(z=z, x=mmap.backward(z), lam=lam, mu=mu, step=k, t=k * hp.dt)


class RefNoiseStream(dynamics.NoiseStream):
    """Chunks of the same shape as the shipped stream's, each step's
    increment a fresh Philox at counter [0, 0, step, 0], scaled."""

    def __init__(self, seed, n, d, sigma, dt):
        super().__init__(seed, n, d, sigma, dt)
        self.key = SeedSequence(seed).generate_state(2, np.uint64)

    def block(self, chunk, out=None, draw=None):
        if out is None:
            out = np.empty((self.steps, self.n, self.d))
        for at in range(self.steps):
            philox = Philox(counter=[0, 0, chunk * self.steps + at, 0], key=self.key)
            out[at] = Generator(philox).standard_normal((self.n, self.d)) * self.scale
        return out


def ref_solve_simplex(problem, graph, tol=1e-10):
    """Entropic mirror descent on the aggregate objective until
    ||x_{k+1} - x_k|| <= tol * dt, then the simplex KKT check to 1e-6."""
    d = problem.d
    hess = problem.aggregate_hessian()
    dt = min(0.1, 1.0 / max(float(np.linalg.eigvalsh(hess)[-1]), 1e-12))
    rhs = -problem.aggregate_grad(np.zeros(d))
    mmap = EntropyMap(d)
    x = np.full(d, 1.0 / d)
    z = mmap.forward(x)
    for _ in range(10_000_000):
        z -= dt * (hess.dot(x) - rhs)
        x_new = mmap.backward(z)
        diff = x_new - x
        x = x_new
        if math.sqrt(diff.dot(diff)) <= tol * dt:
            break
    else:
        raise OracleError("simplex solve did not stall")

    g = hess @ x - rhs
    support = x > INTERIOR_TOL
    nu = float(np.mean(g[support]))
    stat_res = float(np.max(np.abs(g[support] - nu)))
    comp_res = float(np.max(np.maximum(nu - g[~support], 0.0), initial=0.0))
    residual = max(stat_res, comp_res, abs(float(np.sum(x)) - 1.0))
    lam = None
    if bool(np.all(support)):
        lam, lam_res = _stacked_multiplier(problem, graph, x, center=True)
        residual = max(residual, lam_res)
    if residual > 1e-6:
        raise OracleError(f"simplex KKT residual {residual:g} above tolerance")
    return OptimalPair(
        x_star=x, lambda_star=lam, f_star=problem.aggregate_value(x), kkt_residual=residual
    )


def _abs_sandwich(outer, inner, rows):
    """|outer| |inner| |outer| |rows|: the operand scale of a sandwich."""
    u = np.abs(outer) @ np.abs(rows)
    return np.abs(outer) @ (np.abs(inner) @ u[..., None])[..., 0]


def _assert_close(got, want, scale):
    tol = REL_TOL * scale + ABS_FLOOR
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= tol


def test_kernels_match_einsum_references_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 12),
        d=st.integers(1, 12),
        extra_m=st.integers(0, 11),
        cond=st.floats(1.0, 1e3),
        shared=st.booleans(),
        log_scale=st.floats(-3.0, 3.0),
        beta=st.floats(0.01, 10.0),
    )
    @hypothesis.settings(max_examples=200, deadline=None)
    def agrees(seed, n, d, extra_m, cond, shared, log_scale, beta):
        m = min(d + extra_m, 12)  # m >= d keeps every block Hessian definite
        if min(m, d) < 2:
            cond = 1.0
        prob = generate_problem(GeneratorConfig(
            seed=seed, d=d, m=m, n=n, condition_number=cond, shared_minimizer=shared,
        ))
        rng = np.random.default_rng(seed)
        x = 10.0**log_scale * rng.standard_normal((n, d))
        if shared:
            x = prob.minimizer + 1e-6 * x  # residuals cancel near a shared minimizer
        q, b = prob.q, prob.b
        hess = np.einsum("nmd,nme->nde", q, q)
        c = np.einsum("nmd,nm->nd", q, b)

        scale = np.max((np.abs(hess) @ np.abs(x)[..., None])[..., 0] + np.abs(c))
        _assert_close(prob.grads(x), ref_grads(prob, x), scale)

        spec = spectra(build_graph(Topology("cyclic", n)), beta)
        dual = RegularizedDualHessian(spec, prob)
        scale = np.max(_abs_sandwich(spec.lap_beta_inv, hess, x))
        _assert_close(dual.backward(x), ref_dual_backward(dual, x), scale)
        # a leading replica axis acts on each (n, d) slice alone
        batch = dual.backward(np.stack([x, -2.0 * x]))
        _assert_close(batch[0], ref_dual_backward(dual, x), scale)
        _assert_close(batch[1], ref_dual_backward(dual, -2.0 * x), 2.0 * scale)

    agrees()


# the ten golden metrics.csv cases of tests/test_golden.py, each with its
# artifact 0.1.0 hash, which the references must reproduce bit for bit:
# (config stem, {parameter path: value}, sha256 of metrics.csv at 0.1.0)
TRAJECTORY_CASES = [
    ("barbell_epismd", {},
     "859608fb0f986cc3b9030a24eea842177e4b9d5c7723f03b4ab6208f01b4b047"),
    ("problem_a_eismd", {},
     "c2dd3a59256c1c7dd34b3067fa7eb8ed15771ecffa1af66733351945f087ea2b"),
    ("problem_a_ismd", {},
     "85e186da8e6ea856c35efa591b118ee43cad0442bed90cafff1e3ae28df42318"),
    ("problem_b_simplex", {},
     "90cabf33e90f84e056f786120492c304133fab5da300d8de98b1acfec4bb94c5"),
    ("problem_a_eismd", {"hyperparams.sigma": 0.1},
     "1ced9142a54fab10a0a6a020dc31454926c7a9e82bf25241d7d3472e01819946"),
    ("problem_a_eismd", {"algorithm.interaction_on": "z"},
     "c2dd3a59256c1c7dd34b3067fa7eb8ed15771ecffa1af66733351945f087ea2b"),
    ("barbell_epismd", {"algorithm.interaction_on": "z"},
     "859608fb0f986cc3b9030a24eea842177e4b9d5c7723f03b4ab6208f01b4b047"),
    ("problem_b_simplex", {"algorithm.interaction_on": "z"},
     "f961cec983a95964d9f62291f4a865c3d164b3d43619798c3c16dbba78cd72a4"),
    ("problem_a_ismd", {"hyperparams.sigma": 0.1},
     "31a4922d955a24d9c47ccfc2bc2487a9be7a893d4fff78abfd774f1cea11978c"),
    ("barbell_epismd", {"hyperparams.sigma": 0.1},
     "8f2b0bfa60f3d9837ade18e7cd2cf81421e1458a10c568155ee15ae8dde4b4fc"),
]


def with_values(cfg: RunConfig, overrides: dict) -> RunConfig:
    """A copy of cfg with each ``section.key`` override applied and validated."""
    return cfg.with_values(overrides)


def shipped_config(stem, overrides) -> RunConfig:
    """A shipped config cut to 2,000 epochs, recorded every 10, with overrides."""
    cut = {"hyperparams.epochs": 2000, "hyperparams.metrics_every": 10}
    return with_values(load_config(CONFIGS / f"{stem}.ini"), {**cut, **overrides})


def _metrics(out_dir, stem, overrides) -> bytes:
    metrics_path, _ = harness.cmd_run(shipped_config(stem, overrides), out_dir)
    return metrics_path.read_bytes()


def _columns(csv_bytes: bytes) -> np.ndarray:
    return np.loadtxt(io.BytesIO(csv_bytes), delimiter=",", skiprows=1)


@pytest.mark.parametrize(
    "stem, overrides, digest_010",
    TRAJECTORY_CASES,
    ids=[stem + "".join(f"-{k}={v}" for k, v in ov.items()) for stem, ov, _ in TRAJECTORY_CASES],
)
def test_trajectory_matches_einsum_references(tmp_path, monkeypatch, stem, overrides, digest_010):
    monkeypatch.setattr(oracle, "solve_simplex", ref_solve_simplex)
    # the noise of 0.1.0 in both runs; a run with sigma = 0 builds no stream
    monkeypatch.setattr(dynamics, "NoiseStream", RefNoiseStream)
    shipped = _columns(_metrics(tmp_path / "shipped", stem, overrides))
    monkeypatch.setattr(DistributedProblem, "grads", ref_grads)
    monkeypatch.setattr(MetricsRecorder, "__call__", ref_block_record)
    monkeypatch.setattr(RegularizedDualHessian, "backward", ref_dual_backward)
    monkeypatch.setattr(RegularizedDualHessian, "mu", property(ref_dual_mu))
    reference_bytes = _metrics(tmp_path / "reference", stem, overrides)
    assert hashlib.sha256(reference_bytes).hexdigest() == digest_010
    reference = _columns(reference_bytes)
    assert shipped.shape == reference.shape
    col_scale = np.max(np.abs(shipped), axis=0)
    assert np.all(np.abs(shipped - reference) <= REL_TOL * col_scale)


def _ref_states(cfg, setup):
    """The record-step states of ``ref_step`` iterated from run's start."""
    a, hp = cfg["algorithm"], cfg.hyperparams()
    seed, every = cfg["run"]["seed"], cfg["hyperparams"]["metrics_every"]
    x0 = setup.x0
    if x0 is None:
        x0 = dynamics.default_initial_rows(setup.problem, setup.mmap, seed)
    z = setup.mmap.forward(x0)
    mu = np.zeros_like(z) if a["name"] == "epismd" else None
    state = dynamics.ParticleSystem(z=z, x=setup.mmap.backward(z), lam=np.zeros_like(z), mu=mu,
                                    step=0, t=0.0)
    noise = None
    if hp.sigma > 0:
        noise = dynamics.NoiseStream(seed, setup.problem.n, setup.problem.d, hp.sigma, hp.dt)
    interaction_on = None if a["name"] == "ismd" else a["interaction_on"]
    states = [state]
    for k in range(hp.epochs):
        b = None if noise is None else noise.block(k // noise.steps)[k % noise.steps]
        state = ref_step(state, setup.problem, setup.mmap, setup.graph, hp, b,
                         interaction_on, setup.dual)
        if state.step % every == 0 or state.step == hp.epochs:
            states.append(state)
    return states


@pytest.mark.parametrize(
    "stem, overrides",
    [case[:2] for case in TRAJECTORY_CASES],
    ids=[stem + "".join(f"-{k}={v}" for k, v in ov.items()) for stem, ov, _ in TRAJECTORY_CASES],
)
def test_run_states_equal_the_allocating_step(stem, overrides):
    cfg = shipped_config(stem, overrides)
    setup = harness.prepare(cfg)
    a = cfg["algorithm"]
    got = dynamics.run(
        a["name"], setup.problem, setup.mmap, setup.graph, cfg.hyperparams(),
        seed=cfg["run"]["seed"], dual=setup.dual, interaction_on=a["interaction_on"],
        metrics_every=cfg["hyperparams"]["metrics_every"],
        x0_rows=setup.x0,
    )
    want = _ref_states(cfg, setup)
    assert [s.step for s in got] == [s.step for s in want]
    for g, w in zip(got, want):
        assert g.t == w.t
        for name in ("z", "x", "lam"):
            assert np.array_equal(getattr(g, name), getattr(w, name)), (g.step, name)
        assert (g.mu is None) == (w.mu is None)
        if w.mu is not None:
            assert np.array_equal(g.mu, w.mu), (g.step, "mu")


@pytest.mark.parametrize("stem", ["problem_a_ismd", "problem_a_eismd", "barbell_epismd"])
def test_entry_point_without_out_leaves_its_input_untouched(stem):
    cfg = shipped_config(stem, {"hyperparams.sigma": 0.1})
    setup = harness.prepare(cfg)
    name, hp = cfg["algorithm"]["name"], cfg.hyperparams()
    state = _ref_states(cfg, setup)[3]
    before = state.copy()
    stream = dynamics.NoiseStream(5, setup.problem.n, setup.problem.d, hp.sigma, hp.dt)
    noise = stream.block(7 // stream.steps)[7 % stream.steps]
    args = (state, setup.problem, setup.mmap, setup.graph, hp, noise)
    if name == "ismd":
        got = dynamics.ismd_step(*args)
        want = ref_step(*args, None)
    elif name == "eismd":
        got = dynamics.eismd_step(*args, "x")
        want = ref_step(*args, "x")
    else:
        got = dynamics.epismd_step(state, setup.problem, setup.mmap, setup.dual, setup.graph, hp,
                                   noise, "x")
        want = ref_step(*args, "x", setup.dual)
    assert (got.step, got.t) == (want.step, want.t)
    for field_name in ("z", "x", "lam", "mu"):
        old, new = getattr(before, field_name), getattr(state, field_name)
        assert (old is None and new is None) or np.array_equal(old, new), field_name
        g, w = getattr(got, field_name), getattr(want, field_name)
        assert (g is None and w is None) or np.array_equal(g, w), field_name
        assert g is None or not np.shares_memory(g, new)

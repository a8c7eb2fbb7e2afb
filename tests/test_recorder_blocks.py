"""The snapshot blocks between ``dynamics.run`` and the recorder.

``run`` copies the state at each record step into a block of at most
``dynamics._BLOCK_RECORDS`` snapshots and ``dynamics._BLOCK_BYTES`` per
(B, n, d) array and hands the recorder whole blocks. Where the block
boundaries fall must change no record: each case below writes metrics.csv
with blocks of one snapshot (the per-state recorder of artifacts up to
0.6.0), of three snapshots, and of the default size, and over a horizon
whose records end in a partial block.
"""

from pathlib import Path

import numpy as np
import pytest

from dismd import dynamics, harness
from dismd.config import load_config
from dismd.diagnostics import MetricsRecorder
from dismd.dynamics import DivergenceError, Hyperparams, ParticleSystem, run
from dismd.graphs import metropolis_weights
from dismd.mirror_maps import EuclideanMap
from dismd.objectives import DistributedProblem
from test_kernel_reference import shipped_config, with_values

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BLOCK_CASES = {
    "problem_a_eismd-sigma=0.1": ("problem_a_eismd", {"hyperparams.sigma": 0.1}),
    "barbell_epismd": ("barbell_epismd", {}),
    "problem_b_simplex": ("problem_b_simplex", {}),
    # n * d odd, so consecutive snapshots start at odd multiples of 8 bytes
    "problem_a_ismd-n=5-d=3": ("problem_a_ismd", {"problem.n": 5, "problem.d": 3, "problem.m": 3}),
}


def _rows(tmp_path, monkeypatch, stem, overrides, snapshots=None):
    """metrics.csv rows of a shipped config cut to 2,000 epochs, with blocks
    of ``snapshots`` snapshots (None: the default block)."""
    cfg = shipped_config(stem, overrides)
    if snapshots is not None:
        n, d = cfg["problem"]["n"], cfg["problem"]["d"]
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", snapshots * 8 * n * d)
    out = tmp_path / f"{stem}-{snapshots}-{cfg['hyperparams']['epochs']}"
    metrics_path, _ = harness.cmd_run(cfg, out)
    return metrics_path.read_text().splitlines()


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_csv_rows_do_not_depend_on_block_boundaries(tmp_path, monkeypatch, case):
    stem, overrides = BLOCK_CASES[case]
    default = _rows(tmp_path, monkeypatch, stem, overrides)
    # 2,000 epochs recorded every 10 are 201 records: never a whole number of blocks
    assert len(default) == 202
    assert _rows(tmp_path, monkeypatch, stem, overrides, snapshots=3) == default
    assert _rows(tmp_path, monkeypatch, stem, overrides, snapshots=1) == default
    monkeypatch.undo()
    short = _rows(tmp_path, monkeypatch, stem, {**overrides, "hyperparams.epochs": 1234})
    # steps 0, 10, ..., 1230 and the final step 1234
    assert short[:-1] == default[:125]
    assert short[-1].startswith("1234,")


@pytest.mark.parametrize("stem", ["problem_a_eismd", "barbell_epismd", "problem_b_simplex"])
def test_a_block_gives_the_records_of_its_snapshots_one_by_one(stem):
    cfg = with_values(load_config(CONFIGS / f"{stem}.ini"), {"hyperparams.epochs": 600})
    setup = harness.prepare(cfg)
    a = cfg["algorithm"]
    states = run(
        a["name"], setup.problem, setup.mmap, setup.graph, cfg.hyperparams(),
        dual=setup.dual, interaction_on=a["interaction_on"], metrics_every=50,
    )

    def stacked(name):
        arrays = [getattr(s, name) for s in states]
        return None if arrays[0] is None else np.stack(arrays)

    block = ParticleSystem(z=stacked("z"), x=stacked("x"), lam=stacked("lam"), mu=stacked("mu"),
                           step=np.array([s.step for s in states]),
                           t=np.array([s.t for s in states]))
    got = setup.recorder(block)
    assert len(got) == len(states) == 13
    for record, state in zip(got, states):
        assert record.to_csv_row() == setup.recorder(state[None])[0].to_csv_row()


def _stiff_setup():
    # explicit Euler at dt = 1 multiplies the stiff mode by about -39 per step
    prob = DistributedProblem(q=np.full((2, 1, 1), 40.0), b=np.zeros((2, 1)), domain="unconstrained")
    graph = metropolis_weights(((0, 1),), 2)
    mmap = EuclideanMap(1)
    rec = MetricsRecorder(prob, graph, mmap, np.zeros(1), np.zeros((2, 1)), c=1.0)
    return prob, graph, mmap, rec


def test_divergence_mid_block_carries_the_records_before_it(monkeypatch):
    prob, graph, mmap, rec = _stiff_setup()
    hp = Hyperparams(dt=1.0, epochs=2000)
    # a record every 7 steps: a few records, all in one (partial) block
    with pytest.raises(DivergenceError) as by_block:
        run("eismd", prob, mmap, graph, hp, metrics_every=7, recorder=rec)
    with pytest.raises(DivergenceError) as by_state:
        run("eismd", prob, mmap, graph, hp, metrics_every=7)
    monkeypatch.setattr(dynamics, "_BLOCK_BYTES", 1)
    with pytest.raises(DivergenceError) as one_each:
        run("eismd", prob, mmap, graph, hp, metrics_every=7, recorder=rec)
    err, states = by_block.value, by_state.value.records
    assert 2 <= len(err.records) < 2 + err.step // 7
    assert [r.step for r in err.records] == [s.step for s in states] == list(
        range(0, err.step, 7))
    want = [rec(s[None])[0] for s in states]
    assert err.records == want == one_each.value.records
    where = ("step", "array", "particle", "coordinate", "value")
    assert [getattr(err, k) for k in where] == [getattr(by_state.value, k) for k in where] == [
        getattr(one_each.value, k) for k in where]


def test_the_default_recorder_keeps_an_int_step_and_a_float_t():
    prob, graph, mmap, _ = _stiff_setup()
    states = run("eismd", prob, mmap, graph, Hyperparams(dt=0.001, epochs=250), metrics_every=100)
    assert [(s.step, s.t) for s in states] == [(0, 0.0), (100, 0.1), (200, 0.2), (250, 0.25)]
    assert all(type(s.step) is int and type(s.t) is float for s in states)


def test_a_small_problem_gets_blocks_of_at_most_128_snapshots():
    # at n = 2, d = 1 the byte budget alone would hold all 1,001 snapshots
    prob, graph, mmap, rec = _stiff_setup()
    sizes = []

    def recorder(snaps):
        sizes.append(len(snaps))
        return rec(snaps)

    # dt = 0.001 keeps the stiff mode stable
    records = run("eismd", prob, mmap, graph, Hyperparams(dt=0.001, epochs=1000),
                  metrics_every=1, recorder=recorder)
    assert len(records) == sum(sizes) == 1001
    assert sizes == [128] * 7 + [105]


def test_negative_simplex_coordinate_in_a_block_raises():
    cfg = load_config(CONFIGS / "problem_b_simplex.ini")
    setup = harness.prepare(cfg)
    n, d = setup.problem.n, setup.problem.d
    x = np.full((3, n, d), 1.0 / d)
    x[2, n - 1, 0] = -1e-3
    x[2, n - 1, 1] += 2e-3
    lam = np.zeros((3, n, d))
    block = ParticleSystem(z=x.copy(), x=x, lam=lam, mu=None, step=np.arange(3), t=np.zeros(3))
    with pytest.raises(ValueError, match="negative"):
        setup.recorder(block)
    # the same block without its last snapshot is recorded
    assert [r.step for r in setup.recorder(block[:2])] == [0, 1]


def test_snapshot_of_a_state_is_a_view():
    z = np.arange(6.0).reshape(3, 2)
    state = ParticleSystem(z=z, x=z.copy(), lam=np.zeros((3, 2)), mu=None, step=4, t=0.04)
    block = state[None]
    assert len(block) == 1 and block.mu is None
    assert np.shares_memory(block.z, z)
    one = block[0]
    assert (one.step, one.t) == (4, 0.04) and np.shares_memory(one.x, state.x)

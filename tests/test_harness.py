import builtins
import errno
import io
import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dismd import cli, diagnostics, dynamics, harness
from dismd.diagnostics import csv_header
from dismd.dynamics import DivergenceError
from dismd.config import ConfigError, RunConfig, load_config
from dismd.harness import load_matrix
from test_kernel_reference import shipped_config, with_values

MINIMAL = """
[problem]
n = 2
d = 1
m = 1
condition_number = 1
seed = 3

[hyperparams]
epochs = 100
metrics_every = 10
dt = 0.01
sigma = 0.0

[run]
seed = 0
"""


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which JSON does not have."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_cmd_run_row_count_contract(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    metrics_path, manifest_path = harness.cmd_run(cfg, tmp_path / "out")
    lines = metrics_path.read_text().strip().split("\n")
    # header + step-0 record + one record per cadence (final step coincides)
    assert len(lines) == 100 // 10 + 2
    assert lines[0] == "step,t," + ",".join(lines[0].split(",")[2:])
    manifest = json.loads(manifest_path.read_text())
    assert manifest["records"] == 11
    assert manifest["artifact_version"]
    assert manifest["constants"]["c"] > 0
    assert manifest["oracle"]["kkt_residual"] <= 1e-8


def test_cmd_run_is_byte_reproducible(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL)
    a, _ = harness.cmd_run(load_config(cfg_path), tmp_path / "a")
    b, _ = harness.cmd_run(load_config(cfg_path), tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()


def test_manifest_timings_are_present_and_non_negative(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    _, manifest_path = harness.cmd_run(cfg, tmp_path / "out")
    manifest = json.loads(manifest_path.read_text())
    timings = manifest["timings"]
    parts = ("generate_s", "spectra_s", "dual_s", "oracle_s", "constants_s")
    assert set(timings) == {"prepare_s", *parts, "integrate_s", "record_s", "write_s"}
    assert all(v >= 0.0 for v in timings.values())
    # disjoint parts of prepare, and of integrate
    assert sum(timings[key] for key in parts) <= timings["prepare_s"]
    assert 0.0 < timings["record_s"] and 0.0 < timings["write_s"]
    assert timings["record_s"] + timings["write_s"] <= timings["integrate_s"]
    assert manifest["record_share"] == timings["record_s"] / timings["integrate_s"]
    assert manifest["wall_clock_seconds"] == timings["integrate_s"]
    assert manifest["steps_per_second"] == pytest.approx(100 / timings["integrate_s"])
    _, manifest_path = harness.cmd_run(with_values(cfg, {"hyperparams.epochs": 0}), tmp_path / "zero")
    assert json.loads(manifest_path.read_text())["steps_per_second"] is None


def test_metrics_csv_does_not_depend_on_the_timings(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    metrics_a, manifest_a = harness.cmd_run(cfg, tmp_path / "a")
    ticks = iter(range(0, 10**9, 7))
    monkeypatch.setattr(harness.time, "perf_counter", lambda: float(next(ticks)))
    metrics_b, manifest_b = harness.cmd_run(cfg, tmp_path / "b")
    assert metrics_a.read_bytes() == metrics_b.read_bytes()
    a, b = (json.loads(p.read_text()) for p in (manifest_a, manifest_b))
    timed = ("timings", "wall_clock_seconds", "steps_per_second", "record_share")
    assert all(a[key] != b[key] for key in timed)
    assert {k: v for k, v in a.items() if k not in timed} == {
        k: v for k, v in b.items() if k not in timed
    }


def test_rerun_from_manifest_echo_reproduces_metrics(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    metrics_path, manifest_path = harness.cmd_run(cfg, tmp_path / "out")
    echo = json.loads(manifest_path.read_text())["config"]
    clone = RunConfig.from_mapping(echo)
    metrics2, _ = harness.cmd_run(clone, tmp_path / "out2")
    assert metrics_path.read_bytes() == metrics2.read_bytes()


def test_seed_changes_noisy_metrics(tmp_path):
    noisy = MINIMAL.replace("sigma = 0.0", "sigma = 0.1")
    cfg = load_config(write_config(tmp_path, noisy))
    a, _ = harness.cmd_run(cfg, tmp_path / "a")
    b, _ = harness.cmd_run(with_values(cfg, {"run.seed": 1}), tmp_path / "b")
    assert a.read_bytes() != b.read_bytes()


def test_compare_requires_matching_grid(tmp_path):
    cfg_a = load_config(write_config(tmp_path, MINIMAL))
    cfg_b = load_config(write_config(tmp_path, MINIMAL.replace("dt = 0.01", "dt = 0.02")))
    with pytest.raises(ConfigError, match="dt"):
        harness.cmd_compare([cfg_a, cfg_b], ["a", "b"], tmp_path / "cmp")


def test_compare_eismd_epismd_identity_regression_guard(tmp_path):
    base = MINIMAL.replace("sigma = 0.0", "sigma = 0.1")
    cfg_e = load_config(write_config(tmp_path, base, "eismd.ini"))
    cfg_p = load_config(
        write_config(tmp_path, base + "\n[algorithm]\nname = epismd\ndual = identity\n", "epismd.ini")
    )
    cfg_e, cfg_p = (with_values(cfg, {"run.seed": 5}) for cfg in (cfg_e, cfg_p))
    csv_path = harness.cmd_compare([cfg_e, cfg_p], ["eismd", "epismd"], tmp_path / "cmp")
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("run,step,t,")
    rows_e = [l.split(",", 1)[1] for l in lines[1:] if l.startswith("eismd,")]
    rows_p = [l.split(",", 1)[1] for l in lines[1:] if l.startswith("epismd,")]
    assert rows_e == rows_p  # identity dual reproduces the exact dynamics


def test_sweep_writes_runs_and_summary(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    summary = harness.cmd_sweep(cfg, "hyperparams.epsilon", ["1", "10"], tmp_path / "sweep")
    lines = summary.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("value,seed,step,")
    assert (tmp_path / "sweep" / "epsilon_1" / "metrics.csv").exists()
    assert (tmp_path / "sweep" / "epsilon_10" / "manifest.json").exists()


def test_a_batched_sweep_shares_its_set_up_and_integration(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    prepared = []
    prepare = harness.prepare
    monkeypatch.setattr(harness, "prepare", lambda c: prepared.append(c) or prepare(c))
    for param, values, batched in [("hyperparams.sigma", ["0", "0.1", "0.2"], True),
                                   ("hyperparams.dt", ["0.01", "0.02"], True),
                                   ("hyperparams.epochs", ["100", "200"], False)]:
        out = tmp_path / param
        prepared.clear()
        harness.cmd_sweep(cfg, param, values, out)
        assert len(prepared) == (1 if batched else len(values))
        key = param.split(".")[1]
        manifests = [json.loads((out / f"{key}_{v}" / "manifest.json").read_text())
                     for v in values]
        timings = [m["timings"] for m in manifests]
        shared = {(t["prepare_s"], t["oracle_s"], t["integrate_s"]) for t in timings}
        assert len(shared) == (1 if batched else len(values))
        for m, t in zip(manifests, timings):
            assert 0.0 < t["record_s"] <= t["integrate_s"]
            assert m["record_share"] == t["record_s"] / t["integrate_s"]
            epochs = m["config"]["hyperparams"]["epochs"]
            assert m["steps_per_second"] == epochs / t["integrate_s"]


def test_execute_batches_only_configs_that_differ_in_batched_keys(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    setup = harness.prepare(cfg)
    files = [harness.OutputFile(tmp_path / f"{i}.csv", csv_header() + "\n") for i in range(2)]
    logs = [harness.RunLog(file, setup.recorder) for file in files]
    batch = [with_values(cfg, {"hyperparams.eta": 2.0, "run.seed": 5}),
             with_values(cfg, {"hyperparams.epsilon": 3.0, "hyperparams.sigma": 0.1,
                               "hyperparams.dt": 0.02})]
    try:
        assert [m["config"] for m, _ in harness.execute(setup, batch, logs)] == [
            c.to_mapping() for c in batch]
        for path, value in [("hyperparams.epochs", 50), ("hyperparams.metrics_every", 5),
                            ("problem.seed", 4), ("run.out", "elsewhere")]:
            with pytest.raises(ValueError, match="may differ only in"):
                harness.execute(setup, [cfg, with_values(cfg, {path: value})], logs)
    finally:
        for file in files:
            file.discard()


# two values of each batched sweep parameter, around problem_a_eismd's own
BATCHED_VALUES = {"hyperparams.eta": ["1", "2"], "hyperparams.epsilon": ["1", "3"],
                  "hyperparams.sigma": ["0", "0.1"], "hyperparams.dt": ["0.01", "0.005"]}


@pytest.mark.parametrize("param", harness.BATCHED)
def test_a_batched_sweep_writes_the_bytes_of_one_run_per_value(tmp_path, param):
    # sigma = 0.05 draws noise in every run the sweep of another parameter makes
    cfg = shipped_config("problem_a_eismd", {"hyperparams.epochs": 300,
                                             "hyperparams.sigma": 0.05, "run.seed": 4})
    values = BATCHED_VALUES[param]
    harness.cmd_sweep(cfg, param, values, tmp_path / "sweep")
    key = param.split(".")[1]
    for i, value in enumerate(values):
        metrics, _ = harness.cmd_run(with_values(cfg, {param: value, "run.seed": 4 + i}),
                                     tmp_path / f"run_{value}")
        swept = tmp_path / "sweep" / f"{key}_{value}" / "metrics.csv"
        assert swept.read_bytes() == metrics.read_bytes()


def test_a_sweep_opens_each_output_file_once(tmp_path, monkeypatch):
    # three CSVs, three manifests and one summary, each through one .tmp handle
    cfg = load_config(write_config(tmp_path, MINIMAL.replace("epochs = 100", "epochs = 3000")))
    out = tmp_path / "sweep"
    opened = []
    original = io.open

    def counting(file, mode="r", *args, **kwargs):
        if str(file).endswith(".tmp") and set(mode) & set("wa"):
            opened.append(os.path.relpath(str(file), out))
        return original(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting)
    monkeypatch.setattr(builtins, "open", counting)
    harness.cmd_sweep(cfg, "hyperparams.sigma", ["0", "0.1", "0.2"], out)
    assert sorted(opened) == sorted(
        [os.path.join(f"sigma_{v}", f"{name}.tmp") for v in ("0", "0.1", "0.2")
         for name in ("metrics.csv", "manifest.json")] + ["summary.csv.tmp"])
    assert not list(out.rglob("*.tmp"))


ERDOS_RENYI = MINIMAL.replace("n = 2", "n = 10") + "\n[graph]\ntopology = erdos_renyi\np = 0.5\n"


def test_a_sweep_sets_up_every_value_before_it_runs_any(tmp_path, capsys):
    cfg_path = write_config(tmp_path, ERDOS_RENYI)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg_path), "--out", str(out), "--quiet",
            "--param", "graph.p", "--values", "0.5,0.001,0.9"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: graph.p = 0.001: ") and "disconnected" in err
    assert not out.exists()
    argv[argv.index("--values") + 1] = "0.5,0.9"
    assert cli.main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == ["p_0.5", "p_0.9", "summary.csv"]


def test_a_compare_sets_up_every_config_before_it_runs_any(tmp_path, monkeypatch):
    good = load_config(write_config(tmp_path, ERDOS_RENYI))
    bad = with_values(good, {"graph.p": 0.001})
    runs = []
    monkeypatch.setattr(harness.dynamics, "run", lambda *a, **k: runs.append(a))
    with pytest.raises(ConfigError, match="^config bad: .*disconnected"):
        harness.cmd_compare([good, bad], ["good", "bad"], tmp_path / "cmp")
    assert runs == []
    assert not (tmp_path / "cmp").exists()


def test_cmd_run_memory_does_not_grow_with_the_record_count(tmp_path):
    # each block of records goes to the CSV as it is taken, and the command
    # keeps only their count and the last one
    cfg = load_config(write_config(tmp_path, MINIMAL))
    peaks = {}
    for epochs in (500, 5000):
        dense = with_values(cfg, {"hyperparams.epochs": epochs, "hyperparams.metrics_every": 1})
        tracemalloc.start()
        try:
            metrics_path, _ = harness.cmd_run(dense, tmp_path / str(epochs))
            peaks[epochs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(metrics_path.read_text().splitlines()) == epochs + 2
    assert abs(peaks[5000] - peaks[500]) < 0.5 * 2**20, peaks


RECORD = diagnostics.MetricsRecorder.__call__


def fail_the_recorder(monkeypatch, after_calls, tmp):
    """Make MetricsRecorder raise ValueError on its call after_calls + 1,
    checking that ``tmp`` then holds streamed rows past its header."""
    calls = []

    def flaky(self, snaps):
        calls.append(len(snaps))
        if len(calls) > after_calls:
            assert len(tmp.read_text().splitlines()) > 1
            raise ValueError("recorder failed")
        return RECORD(self, snaps)

    monkeypatch.setattr(diagnostics.MetricsRecorder, "__call__", flaky)


def test_a_failed_command_leaves_no_partial_csv(tmp_path, monkeypatch):
    # each run records 301 snapshots, three recorder calls of at most 128
    cfg = load_config(write_config(tmp_path, MINIMAL))
    cfg = with_values(cfg, {"hyperparams.epochs": 300, "hyperparams.metrics_every": 1})
    out = tmp_path / "run"
    fail_the_recorder(monkeypatch, 1, out / "metrics.csv.tmp")
    with pytest.raises(ValueError, match="recorder failed"):
        harness.cmd_run(cfg, out)
    assert not out.exists()  # the directory made for the stream goes too

    out = tmp_path / "compare"
    fail_the_recorder(monkeypatch, 4, out / "compare.csv.tmp")  # part-way through run b
    with pytest.raises(ValueError, match="recorder failed"):
        harness.cmd_compare([cfg, cfg], ["a", "b"], out)
    assert not out.exists()

    out = tmp_path / "sweep"
    fail_the_recorder(monkeypatch, 4, out / "sigma_0.1" / "metrics.csv.tmp")
    with pytest.raises(ValueError, match="recorder failed"):
        harness.cmd_sweep(cfg, "hyperparams.sigma", ["0", "0.1", "0.2"], out)
    assert not out.exists()

    # a serial sweep publishes its first value only with the rest
    out = tmp_path / "serial"
    fail_the_recorder(monkeypatch, 4, out / "epochs_200" / "metrics.csv.tmp")
    with pytest.raises(ValueError, match="recorder failed"):
        harness.cmd_sweep(cfg, "hyperparams.epochs", ["300", "200"], out)
    assert not out.exists()


def test_a_failing_discard_stops_no_other_and_keeps_the_commands_error(tmp_path, capsys,
                                                                       monkeypatch):
    dense = MINIMAL.replace("epochs = 100", "epochs = 300").replace("every = 10", "every = 1")
    cfg_path = write_config(tmp_path, dense)
    cfg = load_config(cfg_path)
    out = tmp_path / "compare"
    fail_the_recorder(monkeypatch, 4, out / "compare.csv.tmp")
    discard, kept = harness.OutputFile.discard, []

    def first_fails(self):
        if not kept:  # the last file opened, manifest.json, keeps its tmp
            kept.append(self.tmp)
            self.file.close()
            raise OSError("discard failed")
        discard(self)

    monkeypatch.setattr(harness.OutputFile, "discard", first_fails)
    with pytest.raises(ValueError, match="recorder failed") as failed:
        harness.cmd_compare([cfg, cfg], ["a", "b"], out)
    assert kept == [out / "manifest.json.tmp"]
    assert list(out.rglob("*.tmp")) == kept
    assert failed.value.kept == kept

    # the command line keeps the command's error and exit code, and names the file
    kept.clear()
    out = tmp_path / "cli"
    fail_the_recorder(monkeypatch, 4, out / "compare.csv.tmp")
    argv = ["compare", "--config", str(cfg_path), "--config", str(cfg_path), "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: recorder failed; could not remove {out / 'manifest.json.tmp'}\n")
    assert list(out.rglob("*.tmp")) == kept


def test_a_file_that_cannot_open_leaves_no_directory(tmp_path, capsys, monkeypatch):
    # the directories a file made go even when its tmp file never opens
    cfg_path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "new" / "sweep"
    original = io.open

    def too_many(file, *args, **kwargs):
        if str(file) == str(out / "sigma_0.1" / "metrics.csv.tmp"):
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE), str(file))
        return original(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", too_many)
    runs = []
    monkeypatch.setattr(harness.dynamics, "run", lambda *a, **k: runs.append(a))
    argv = ["sweep", "--config", str(cfg_path), "--out", str(out), "--quiet",
            "--param", "hyperparams.sigma", "--values", "0,0.1"]
    assert cli.main(argv) == 3
    assert os.strerror(errno.EMFILE) in capsys.readouterr().err
    assert runs == []
    assert list(tmp_path.iterdir()) == [cfg_path]


SIGMA_SWEEP = ["sweep", "--param", "hyperparams.sigma", "--values", "0,0.1"]


@pytest.mark.parametrize("command, blocked", [
    (["run"], "metrics.csv"),
    (["compare", "--config", "{cfg}"], "compare.csv"),
    (SIGMA_SWEEP, "sigma_0.1/metrics.csv"),
    (["run"], "manifest.json"),
    (["compare", "--config", "{cfg}"], "manifest.json"),
    (SIGMA_SWEEP, "sigma_0.1/manifest.json"),
    (SIGMA_SWEEP, "summary.csv"),
    (["sweep", "--param", "hyperparams.dt", "--values", "0.01,0.02"], "dt_0.02/metrics.csv"),
    (["sweep", "--param", "hyperparams.epochs", "--values", "100,200"], "epochs_200/metrics.csv"),
])
def test_a_directory_in_place_of_a_csv_fails_before_any_run(tmp_path, capsys, monkeypatch,
                                                            command, blocked):
    cfg_path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    runs = []
    monkeypatch.setattr(harness.dynamics, "run", lambda *a, **k: runs.append(a))
    argv = [command[0], "--config", str(cfg_path), "--out", str(out), "--quiet", *command[1:]]
    assert cli.main([a.format(cfg=cfg_path) for a in argv]) == 3
    assert "Is a directory" in capsys.readouterr().err
    assert runs == []
    # nothing is published, and the files opened before the blocked one are gone
    kept = Path(blocked)
    assert {p.relative_to(out) for p in out.rglob("*")} == {kept, *kept.parents} - {Path(".")}


def test_problem_gen_writes_no_bundle_file_unless_it_can_write_all(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "bundle"
    (out / "q_001.csv").mkdir(parents=True)
    assert cli.main(["problem-gen", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert [p.name for p in out.rglob("*")] == ["q_001.csv"]


def test_graph_info_writes_neither_matrix_unless_it_can_write_both(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "mats"
    (out / "laplacian.csv").mkdir(parents=True)
    assert cli.main(["graph-info", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert [p.name for p in out.rglob("*")] == ["laplacian.csv"]


def test_a_failed_bundle_write_leaves_no_file_and_no_directory(tmp_path, capsys, monkeypatch):
    # the first file made the three directories; it is discarded last, when they are empty
    cfg_path = write_config(tmp_path, MINIMAL)
    writes = []
    original = harness.OutputFile.write

    def failing_third(self, text):
        writes.append(self.path.name)
        if len(writes) == 3:
            raise OSError("disk full")
        original(self, text)

    monkeypatch.setattr(harness.OutputFile, "write", failing_third)
    out = tmp_path / "new" / "nested" / "bundle"
    assert cli.main(["problem-gen", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "disk full" in capsys.readouterr().err
    assert writes == ["q_000.csv", "b_000.csv", "q_001.csv"]
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_sweep_rejects_unknown_or_empty(tmp_path, capsys):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    with pytest.raises(ConfigError, match="parameter path"):
        harness.cmd_sweep(cfg, "hyperparams.sgima", ["1"], tmp_path / "s")
    with pytest.raises(ConfigError, match="at least one value"):
        harness.cmd_sweep(cfg, "hyperparams.sigma", [], tmp_path / "s")
    for values in (["0.1", "0.1"], ["0.1", "0.10"]):  # rejected before any run
        with pytest.raises(ConfigError, match="distinct"):
            harness.cmd_sweep(cfg, "hyperparams.sigma", values, tmp_path / "s")
    for param, values in [
        ("hyperparams.dt", ["0.01", "inf"]),
        ("hyperparams.eta", ["nan"]),
        ("graph.beta", ["1", "-inf"]),
        ("problem.condition_number", ["2", "0.5"]),
    ]:
        with pytest.raises(ConfigError, match=param):
            harness.cmd_sweep(cfg, param, values, tmp_path / "s")
    # values go through the config schema, which names the key
    with pytest.raises(ConfigError, match="hyperparams.epochs"):
        harness.cmd_sweep(cfg, "hyperparams.epochs", ["10", "1e2"], tmp_path / "s")
    with pytest.raises(ConfigError, match="distinct"):
        harness.cmd_sweep(cfg, "hyperparams.epochs", ["10", "010"], tmp_path / "s")
    assert not (tmp_path / "s").exists()
    cfg_path = write_config(tmp_path, MINIMAL)
    argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s"), "--quiet",
            "--param", "hyperparams.epochs", "--values", "10,1e2"]
    assert cli.main(argv) == 1
    assert not (tmp_path / "s").exists()
    for param, values in [("hyperparams.sigma", "0.01,0.02"), ("hyperparams.epochs", "10,20")]:
        argv[-4:] = ["--seed", "-1", "--param", param, "--values", values]  # batched, serial
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.endswith("error: run.seed must be >= 0, got -1\n")
        assert not (tmp_path / "s").exists()


def test_sweep_strips_spaced_values(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg_path), "--out", str(out), "--quiet",
            "--param", "hyperparams.sigma", "--values", "0.1, 0.2 ,"]
    assert cli.main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == ["sigma_0.1", "sigma_0.2", "summary.csv"]
    values = [line.split(",")[0] for line in (out / "summary.csv").read_text().splitlines()[1:]]
    assert values == ["0.1", "0.2"]


def test_sweep_noise_floor_ordering(tmp_path):
    text = MINIMAL.replace("epochs = 100", "epochs = 30000")
    cfg = load_config(write_config(tmp_path, text))
    summary = harness.cmd_sweep(cfg, "hyperparams.sigma", ["0", "0.05", "0.1"], tmp_path / "sweep")
    lines = summary.read_text().strip().split("\n")
    header = lines[0].split(",")
    v_col = header.index("V")
    floors = [float(line.split(",")[v_col]) for line in lines[1:]]
    assert floors[0] <= floors[1] <= floors[2]


def test_graph_info_report(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    report = harness.graph_info_report(cfg)
    assert "nodes: 2" in report
    assert "kappa_n" in report
    single = load_config(write_config(tmp_path, MINIMAL.replace("n = 2", "n = 1"), "one.ini"))
    assert "degenerate" in harness.graph_info_report(single)


def test_graph_info_takes_the_particle_count_from_the_bundle(tmp_path, capsys):
    # the config's n (default 10) does not apply to a bundle's problem
    cfg_path = write_config(tmp_path, MINIMAL.replace("n = 2", "n = 6"), "gen.ini")
    assert cli.main(["problem-gen", "--config", str(cfg_path), "--out", str(tmp_path / "b6"),
                     "--quiet"]) == 0
    text = f"[problem]\nkind = bundle\nbundle = {tmp_path / 'b6'}\n"
    cfg_path = write_config(tmp_path, text, "bundle.ini")
    out = tmp_path / "graph"
    assert cli.main(["graph-info", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert "nodes: 6" in capsys.readouterr().out
    assert load_matrix(out / "laplacian.csv").shape == (6, 6)


def test_barbell_cluster_is_checked_against_the_bundle(tmp_path, capsys):
    # only the loaded bundle knows its particle count
    cfg_path = write_config(tmp_path, MINIMAL.replace("n = 2", "n = 4"), "gen.ini")
    assert cli.main(["problem-gen", "--config", str(cfg_path), "--out", str(tmp_path / "b4"),
                     "--quiet"]) == 0
    text = f"[problem]\nkind = bundle\nbundle = {tmp_path / 'b4'}\n[graph]\ntopology = barbell\n"
    with pytest.raises(ConfigError, match=re.escape("graph.cluster must be >= 1, got 0")):
        load_config(write_config(tmp_path, text + "cluster = 0\n", "c0.ini"))
    cfg_path = write_config(tmp_path, text + "cluster = 3\n", "c3.ini")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: graph.cluster = 3 needs 6 particles but the problem has 4")
    assert "Traceback" not in err
    cfg = load_config(write_config(tmp_path, text + "cluster = 2\n", "c2.ini"))
    assert harness.build_weighted_graph(cfg, 4).n == 4


# rule: (MINIMAL's problem as a generated problem breaks it, the sections that
# break it, the one message of the rule)
CROSS_SECTION_RULES = {
    "barbell size": (
        MINIMAL.replace("n = 2", "n = 4"), "[graph]\ntopology = barbell\ncluster = 3\n",
        "graph.cluster = 3 needs 6 particles but the problem has 4"),
    "simplex without entropy": (
        MINIMAL.replace("d = 1", "d = 2\ndomain = simplex"), "[algorithm]\nmap = euclidean\n",
        "a simplex problem needs algorithm.map = entropy, got 'euclidean'"),
    "entropy without simplex": (
        MINIMAL, "[algorithm]\nmap = entropy\n",
        "algorithm.map = entropy needs a simplex problem, got domain 'unconstrained'"),
}


@pytest.mark.parametrize("rule", CROSS_SECTION_RULES)
def test_a_rule_across_sections_gives_one_message_for_a_config_and_a_bundle(tmp_path, rule):
    generated, breaking, message = CROSS_SECTION_RULES[rule]
    with pytest.raises(ConfigError) as from_config:
        load_config(write_config(tmp_path, generated + breaking, "generated.ini"))
    # the same problem from a bundle passes the config check and fails its set-up
    valid = "[algorithm]\nmap = entropy\n" if "simplex" in generated else ""
    problem = harness.build_problem(load_config(write_config(tmp_path, generated + valid)))
    harness.save_problem_bundle(problem, tmp_path / "bundle")
    cfg = load_config(write_config(tmp_path, bundle_config(tmp_path / "bundle") + breaking))
    with pytest.raises(ConfigError) as from_bundle:
        harness.prepare(cfg)
    assert str(from_config.value) == str(from_bundle.value) == message


def test_cli_reports_a_bundle_manifest_without_a_required_key(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "manifest.json").write_text('{"n": 2}\n')
    text = f"[problem]\nkind = bundle\nbundle = {bundle}\n"
    cfg_path = write_config(tmp_path, text)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bundle manifest") and "lacks m, d, domain, blocks" in err
    assert "Traceback" not in err


def test_dual_beta_moves_no_x_and_only_the_consensus_part_of_lambda():
    # dual_beta regularises the dual map's Laplacian: lambda = dual.backward(mu)
    # changes by a part that L maps to zero, so no x moves, while c, through
    # mu_psi, and with it V do
    runs = {}
    for beta in (0.01, 1.0):
        cfg = shipped_config("barbell_epismd", {"algorithm.dual_beta": beta})
        setup = harness.prepare(cfg)
        *_, last = dynamics.run("epismd", setup.problem, setup.mmap, setup.graph,
                                cfg.hyperparams(), seed=cfg["run"]["seed"], dual=setup.dual,
                                metrics_every=cfg["hyperparams"]["epochs"], x0_rows=setup.x0)
        [record] = setup.recorder(last[None])
        runs[beta] = last, record, setup.recorder.c
    (a, rec_a, c_a), (b, rec_b, c_b) = runs[0.01], runs[1.0]
    assert a.step == b.step == 2000
    assert np.max(np.abs(a.x - b.x)) <= 1e-12 * np.max(np.abs(a.x))
    lap = setup.graph.laplacian
    assert np.max(np.abs(lap @ (a.lam - b.lam))) <= 1e-12
    assert np.max(np.abs(a.lam - b.lam)) > 1.0  # the consensus part moves
    assert round(c_a, 2) == 5774.84 and round(c_b, 2) == 231.11
    assert rec_a.V2 == pytest.approx(rec_b.V2, rel=1e-12) and rec_a.V > 2 * rec_b.V


def test_graph_info_triangle_kappa(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL.replace("n = 2", "n = 3"), "tri.ini"))
    report = harness.graph_info_report(cfg)
    assert "kappa_n: 1.0" in report  # dense eigensolver value for the triangle


def test_graph_info_barbell_less_connected_than_cyclic(tmp_path):
    barbell = load_config(
        write_config(tmp_path, "[problem]\nn = 10\n[graph]\ntopology = barbell\ncluster = 5\n", "b.ini")
    )
    cyclic = load_config(write_config(tmp_path, "[problem]\nn = 10\n", "c.ini"))
    spec_b = harness.spectra(harness.build_weighted_graph(barbell, 10), barbell["graph"]["beta"])
    spec_c = harness.spectra(harness.build_weighted_graph(cyclic, 10), cyclic["graph"]["beta"])
    assert spec_b.algebraic_connectivity < spec_c.algebraic_connectivity


def test_graph_matrix_export_and_reload(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    harness.graph_info_report(cfg, tmp_path / "mats")
    a = load_matrix(tmp_path / "mats" / "adjacency.csv")
    lap = load_matrix(tmp_path / "mats" / "laplacian.csv")
    graph = harness.build_weighted_graph(cfg, 2)
    assert np.array_equal(a, graph.adjacency)
    assert np.array_equal(lap, graph.laplacian)


def test_user_supplied_weight_matrix(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    harness.graph_info_report(cfg, tmp_path / "mats")
    text = MINIMAL + f"\n[graph]\ntopology = matrix\nweights = {tmp_path/'mats'/'adjacency.csv'}\n"
    cfg2 = load_config(write_config(tmp_path, text, "mat.ini"))
    graph = harness.build_weighted_graph(cfg2, 2)
    assert graph.n == 2
    bad = np.array([[0.7, 0.3], [0.3, 0.6]])
    np.savetxt(tmp_path / "bad.csv", bad, delimiter=",")
    text_bad = MINIMAL + f"\n[graph]\ntopology = matrix\nweights = {tmp_path/'bad.csv'}\n"
    cfg3 = load_config(write_config(tmp_path, text_bad, "bad.ini"))
    with pytest.raises(Exception):
        harness.build_weighted_graph(cfg3, 2)


def test_x0_override_from_csv(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    np.savetxt(tmp_path / "x0.csv", np.array([[5.0], [-5.0]]), delimiter=",")
    text = MINIMAL + f"\n[algorithm]\nx0 = {tmp_path/'x0.csv'}\n"
    cfg2 = load_config(write_config(tmp_path, text, "x0.ini"))
    a, _ = harness.cmd_run(cfg, tmp_path / "a")
    b, _ = harness.cmd_run(cfg2, tmp_path / "b")
    assert a.read_bytes() != b.read_bytes()
    first_row = b.read_text().split("\n")[1]
    assert float(first_row.split(",")[1]) == 0.0  # starts at t = 0 from the given x0

    np.savetxt(tmp_path / "bad.csv", np.ones((3, 1)), delimiter=",")
    text_bad = MINIMAL + f"\n[algorithm]\nx0 = {tmp_path/'bad.csv'}\n"
    cfg3 = load_config(write_config(tmp_path, text_bad, "x0bad.ini"))
    with pytest.raises(ConfigError, match="x0"):
        harness.cmd_run(cfg3, tmp_path / "c")


def test_a_one_row_x0_starts_every_particle_at_that_row(tmp_path):
    text = MINIMAL.replace("n = 2", "n = 3").replace("d = 1", "d = 2").replace("m = 1", "m = 2")
    written = []
    for name, rows in (("one", "0.5,-1.0\n"), ("all", "0.5,-1.0\n" * 3)):
        (tmp_path / f"{name}.csv").write_text(rows)
        cfg_path = write_config(tmp_path, text + f"\n[algorithm]\nx0 = {tmp_path / name}.csv\n",
                                f"{name}.ini")
        metrics_path, _ = harness.cmd_run(load_config(cfg_path), tmp_path / name)
        written.append(metrics_path.read_bytes())
    default, _ = harness.cmd_run(load_config(write_config(tmp_path, text)), tmp_path / "default")
    assert written[0] == written[1] != default.read_bytes()


@pytest.mark.parametrize("rows", [
    pytest.param("0.5,0.5\n0.0,1.0\n", id="zero-entry"),
    pytest.param("0.5,0.5\n0.5,0.500001\n", id="sum-1+1e-6"),
])
def test_a_simplex_x0_row_outside_the_open_simplex_is_a_config_error(tmp_path, capsys, rows):
    (tmp_path / "x0.csv").write_text(rows)
    text = MINIMAL.replace("d = 1", "d = 2").replace("m = 1", "m = 2").replace(
        "seed = 3", "seed = 3\ndomain = simplex")
    text += f"\n[algorithm]\nmap = entropy\nx0 = {tmp_path / 'x0.csv'}\n"
    cfg_path = write_config(tmp_path, text)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: algorithm.x0 rows must lie in the open simplex\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_x0_is_a_config_error(tmp_path, capsys, value):
    (tmp_path / "x0.csv").write_text(f"0.5\n{value}\n")
    text = MINIMAL + f"\n[algorithm]\nx0 = {tmp_path / 'x0.csv'}\n"
    cfg_path = write_config(tmp_path, text, "x0.ini")
    with pytest.raises(ConfigError,
                       match=rf"algorithm\.x0 must be finite, got {value} at particle 1, coordinate 0"):
        harness.cmd_run(load_config(cfg_path), tmp_path / "lib")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "algorithm.x0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("rows, value, particle, coordinate", [
    pytest.param("0.5\n1e160\n", "1e160", 1, 0, id="1e160"),
    pytest.param("0.5\n-1e151\n", "-1e151", 1, 0, id="-1e151"),
    # two entries beyond: the start check names the row-major first, as the
    # run's guard, dynamics._divergence, does
    pytest.param("0.5,0.5\n0.5,1e160\n1e170,0.5\n", "1e160", 1, 1, id="row-major-first"),
])
def test_x0_beyond_the_divergence_limit_is_a_config_error(tmp_path, capsys, monkeypatch, rows,
                                                          value, particle, coordinate):
    (tmp_path / "x0.csv").write_text(rows)
    lines = rows.splitlines()
    text = MINIMAL.replace("n = 2", f"n = {len(lines)}").replace(
        "d = 1", f"d = {len(lines[0].split(','))}")
    cfg_path = write_config(tmp_path, text + f"\n[algorithm]\nx0 = {tmp_path / 'x0.csv'}\n")
    runs = []
    monkeypatch.setattr(harness.dynamics, "run", lambda *a, **k: runs.append(a))
    argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
            "--param", "hyperparams.dt", "--values", "0.01,0.02"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"algorithm.x0 starts z beyond the divergence limit 1e+150: z = {float(value)!r} " \
           f"at particle {particle}, coordinate {coordinate}" in err
    assert runs == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("source", ["graph.weights", "algorithm.map_matrix", "bundle"])
def test_a_non_finite_matrix_entry_names_its_key_or_file(tmp_path, capsys, source, value):
    text = MINIMAL.replace("d = 1", "d = 2").replace("m = 1", "m = 2")
    if source == "graph.weights":
        (tmp_path / "w.csv").write_text(f"0.5,{value}\n0.5,0.5\n")
        text += f"\n[graph]\ntopology = matrix\nweights = {tmp_path / 'w.csv'}\n"
        expected = f"graph.weights must be finite, got {value} at row 0, column 1"
    elif source == "algorithm.map_matrix":
        (tmp_path / "p.csv").write_text(f"2.0,0.0\n{value},3.0\n")
        text += f"\n[algorithm]\nmap = quadratic\nmap_matrix = {tmp_path / 'p.csv'}\n"
        expected = f"algorithm.map_matrix must be finite, got {value} at row 1, column 0"
    else:
        harness.save_problem_bundle(harness.build_problem(load_config(
            write_config(tmp_path, text, "gen.ini"))), tmp_path / "bundle")
        (tmp_path / "bundle" / "q_001.csv").write_text(f"1.0,0.0\n0.0,{value}\n")
        text = bundle_config(tmp_path / "bundle")
        expected = (f"{tmp_path / 'bundle' / 'q_001.csv'} must be finite, "
                    f"got {value} at row 1, column 1")
    cfg_path = write_config(tmp_path, text)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "out").exists()


# case -> (MINIMAL's problem reshaped, the file's text, the config lines that
# read it, the error line with {file} standing for the file's path). The first
# word of a case is the key that names the file.
FAILED_MATRIX_CHECKS = {
    "graph.weights": (
        MINIMAL.replace("n = 2", "n = 4"), "1.0,0.0\n0.0,1.0\n", "[graph]\ntopology = matrix\n",
        "graph.weights file {file} must hold a 4x4 matrix, got 2x2"),
    "graph.weights support": (
        MINIMAL.replace("n = 2", "n = 4"), "1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n",
        "[graph]\ntopology = matrix\n", "graph.weights: weight matrix support is disconnected"),
    "graph.weights ragged": (
        MINIMAL.replace("n = 2", "n = 4"), "0.5,0.5,0,0\n0.5,0.5\n", "[graph]\ntopology = matrix\n",
        "graph.weights file {file} is not a CSV of numbers: "
        "the number of columns changed from 4 to 2 at row 2"),
    "algorithm.x0 ragged": (
        MINIMAL.replace("d = 1", "d = 2"), "0.5,0.5\n0.5\n", "[algorithm]\n",
        "algorithm.x0 file {file} is not a CSV of numbers: "
        "the number of columns changed from 2 to 1 at row 2"),
    "algorithm.map_matrix not a number": (
        MINIMAL.replace("d = 1", "d = 2"), "2.0,0.0\n0.0,abc\n", "[algorithm]\nmap = quadratic\n",
        "algorithm.map_matrix file {file} is not a CSV of numbers: "
        "could not convert string 'abc' to float64 at row 1, column 2."),
    "algorithm.map_matrix size": (
        MINIMAL.replace("d = 1", "d = 3"), "1.0,0.0\n0.0,1.0\n", "[algorithm]\nmap = quadratic\n",
        "algorithm.map_matrix file {file} must hold a 3x3 matrix, got 2x2"),
    "algorithm.map_matrix symmetry": (
        MINIMAL.replace("d = 1", "d = 2"), "2.0,1.0\n0.0,2.0\n", "[algorithm]\nmap = quadratic\n",
        "algorithm.map_matrix: quadratic map matrix must be symmetric"),
}


@pytest.mark.parametrize("case", FAILED_MATRIX_CHECKS)
def test_a_matrix_file_that_fails_its_check_names_its_key(tmp_path, capsys, case):
    problem, rows, section, message = FAILED_MATRIX_CHECKS[case]
    key = case.split()[0]
    (tmp_path / "w.csv").write_text(rows)
    text = problem + f"\n{section}{key.split('.')[1]} = {tmp_path / 'w.csv'}\n"
    cfg_path = write_config(tmp_path, text)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message.format(file=tmp_path / 'w.csv')}\n"
    assert not (tmp_path / "out").exists()


def test_a_missing_matrix_file_is_an_io_error(tmp_path, capsys):
    text = MINIMAL + f"\n[graph]\ntopology = matrix\nweights = {tmp_path / 'absent.csv'}\n"
    cfg_path = write_config(tmp_path, text)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not (tmp_path / "out").exists()


def _edit_manifest(bundle, edit):
    path = bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


# defect -> (what it does to a saved n = d = m = 2 bundle, the error line with
# {bundle} standing for the bundle's directory)
BROKEN_BUNDLES = {
    "q file cut to one row": (
        lambda bundle: (bundle / "q_001.csv").write_text("1.0,0.0\n"),
        "{bundle}/q_001.csv must hold a 2x2 matrix, got 1x2"),
    "b file of three entries": (
        lambda bundle: (bundle / "b_000.csv").write_text("1.0,0.0,2.0\n"),
        "{bundle}/b_000.csv must hold a 2-entry row or column, got 1x3"),
    "manifest not JSON": (
        lambda bundle: (bundle / "manifest.json").write_text("n = 2\n"),
        "bundle manifest {bundle}/manifest.json is not JSON: "
        "Expecting value: line 1 column 1 (char 0)"),
    "block without q": (
        lambda bundle: _edit_manifest(bundle, lambda manifest: manifest["blocks"][1].pop("q")),
        "bundle manifest {bundle}/manifest.json must list n = 2 blocks naming q and b files"),
    "block naming b by a number": (
        lambda bundle: _edit_manifest(bundle, lambda manifest: manifest["blocks"][0].update(b=0)),
        "bundle manifest {bundle}/manifest.json must list n = 2 blocks naming q and b files"),
    "manifest not an object": (
        lambda bundle: (bundle / "manifest.json").write_text("3\n"),
        "bundle manifest {bundle}/manifest.json must hold a JSON object, got 3"),
    "minimizer not a file name": (
        lambda bundle: _edit_manifest(bundle, lambda manifest: manifest.update(minimizer=5)),
        "bundle manifest {bundle}/manifest.json must give minimizer as null or a file name, "
        "got 5"),
    "no blocks": (
        lambda bundle: _edit_manifest(bundle, lambda manifest: manifest.update(n=0, blocks=[])),
        "bundle manifest {bundle}/manifest.json must give n as an integer >= 1, got 0"),
    "m given as a string": (
        lambda bundle: _edit_manifest(bundle, lambda manifest: manifest.update(m="2")),
        "bundle manifest {bundle}/manifest.json must give m as an integer >= 1, got '2'"),
    "unknown domain": (
        lambda bundle: _edit_manifest(bundle, lambda manifest: manifest.update(domain="foo")),
        "bundle manifest {bundle}/manifest.json must give domain as one of "
        "('unconstrained', 'simplex'), got 'foo'"),
}


@pytest.mark.parametrize("defect", BROKEN_BUNDLES)
def test_a_broken_bundle_is_one_error_that_names_its_file(tmp_path, capsys, defect):
    break_it, message = BROKEN_BUNDLES[defect]
    text = MINIMAL.replace("d = 1", "d = 2").replace("m = 1", "m = 2")
    harness.save_problem_bundle(harness.build_problem(load_config(
        write_config(tmp_path, text, "gen.ini"))), tmp_path / "bundle")
    break_it(tmp_path / "bundle")
    cfg_path = write_config(tmp_path, bundle_config(tmp_path / "bundle"))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message.format(bundle=tmp_path / 'bundle')}\n"
    assert not (tmp_path / "out").exists()


def test_a_config_file_that_is_not_utf8_is_one_error_that_names_it(tmp_path, capsys):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_bytes(b"\xff" + MINIMAL.encode())
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: could not parse {cfg_path}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["algorithm.x0", "graph.weights", "algorithm.map_matrix",
                                    "bundle"])
def test_an_empty_matrix_file_is_one_error_that_names_its_key_or_file(tmp_path, capsys, source):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    text = MINIMAL + {
        "algorithm.x0": f"\n[algorithm]\nx0 = {empty}\n",
        "graph.weights": f"\n[graph]\ntopology = matrix\nweights = {empty}\n",
        "algorithm.map_matrix": f"\n[algorithm]\nmap = quadratic\nmap_matrix = {empty}\n",
        "bundle": "",
    }[source]
    expected = f"{source} file {empty} holds no entries"
    if source == "bundle":
        harness.save_problem_bundle(harness.build_problem(load_config(
            write_config(tmp_path, text, "gen.ini"))), tmp_path / "bundle")
        (tmp_path / "bundle" / "b_001.csv").write_text("")
        text = bundle_config(tmp_path / "bundle")
        expected = f"{tmp_path / 'bundle' / 'b_001.csv'} holds no entries"
    cfg_path = write_config(tmp_path, text)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "out").exists()


def test_quadratic_map_from_matrix_file(tmp_path):
    np.savetxt(tmp_path / "p.csv", np.diag([2.0, 3.0]), delimiter=",")
    text = MINIMAL.replace("d = 1", "d = 2").replace("m = 1", "m = 2")
    text += f"\n[algorithm]\nmap = quadratic\nmap_matrix = {tmp_path/'p.csv'}\n"
    cfg = load_config(write_config(tmp_path, text, "quad.ini"))
    metrics_path, manifest_path = harness.cmd_run(cfg, tmp_path / "out")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["constants"]["mu_phi"] == 2.0
    assert manifest["constants"]["l_phi"] == 3.0


def test_oracle_report(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    report = harness.oracle_report(cfg)
    assert "f_star" in report and "kkt_residual" in report


def test_cli_run_ok_and_quiet(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "metrics.csv").exists()
    code = cli.main(
        ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out2"), "--quiet"]
    )
    assert code == 0
    assert capsys.readouterr().out.endswith("metrics.csv and " + str(tmp_path / "out" / "manifest.json") + "\n")


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "[hyperparams]\nsgima = 0.1\n")
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "sgima" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_cli_exit_code_on_divergence(tmp_path, capsys):
    # dt far beyond the stability limit diverges quickly
    text = MINIMAL.replace("dt = 0.01", "dt = 500.0")
    cfg_path = write_config(tmp_path, text)
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "diverged" in capsys.readouterr().err
    assert (tmp_path / "out" / "metrics.csv").exists()
    assert "diverged" in json.loads((tmp_path / "out" / "manifest.json").read_text())


def test_cli_run_replaces_stale_outputs_on_divergence(tmp_path, capsys):
    out = tmp_path / "out"
    healthy = write_config(tmp_path, MINIMAL, "healthy.ini")
    assert cli.main(["run", "--config", str(healthy), "--out", str(out), "--quiet"]) == 0
    stale = (out / "metrics.csv").read_bytes(), (out / "manifest.json").read_bytes()
    blown = write_config(tmp_path, MINIMAL.replace("dt = 0.01", "dt = 0.01\neta = 1e5"), "blown.ini")
    assert cli.main(["run", "--config", str(blown), "--out", str(out), "--quiet"]) == 2
    assert (out / "metrics.csv").read_bytes() != stale[0]
    assert (out / "manifest.json").read_bytes() != stale[1]
    err = capsys.readouterr().err
    assert err.startswith("error: integration diverged at step ")
    assert f"wrote {out / 'metrics.csv'} and {out / 'manifest.json'}" in err
    manifest = strict_json((out / "manifest.json").read_text())
    assert {"diverged", "oracle", "constants"} <= set(manifest)
    rows = (out / "metrics.csv").read_text().strip().split("\n")[1:]
    assert manifest["records"] == len(rows) >= 1
    where = manifest["diverged"]
    assert int(rows[-1].split(",")[0]) < where["step"] < 100
    # the speed counts the steps taken, not the configured epochs
    taken = where["step"] / manifest["timings"]["integrate_s"]
    assert manifest["steps_per_second"] == pytest.approx(taken, rel=1e-12)


def test_sweep_runs_past_a_diverged_value(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)

    def sweep(values, out):
        argv = ["sweep", "--config", str(cfg_path), "--out", str(out), "--quiet",
                "--param", "hyperparams.eta", "--values", values]
        return cli.main(argv)

    assert sweep("1,2,3", tmp_path / "clean") == 0
    assert sweep("1,1e5,3", tmp_path / "mixed") == 2
    err = capsys.readouterr().err
    mixed = tmp_path / "mixed"
    assert err.startswith("error: run 'eta_1e5': integration diverged at step ")
    assert f"{mixed / 'summary.csv'}" in err
    assert sorted(p.name for p in mixed.iterdir()) == ["eta_1", "eta_1e5", "eta_3", "summary.csv"]
    for name in ("eta_1", "eta_3"):
        clean = (tmp_path / "clean" / name / "metrics.csv").read_bytes()
        assert (mixed / name / "metrics.csv").read_bytes() == clean
    rows = (mixed / "summary.csv").read_text().strip().split("\n")
    rows_clean = (tmp_path / "clean" / "summary.csv").read_text().strip().split("\n")
    assert len(rows) == 4
    assert [rows[0], rows[1], rows[3]] == [rows_clean[0], rows_clean[1], rows_clean[3]]
    blown = rows[2].split(",")
    manifest = strict_json((mixed / "eta_1e5" / "manifest.json").read_text())
    assert blown[:2] == ["1e5", "1"]
    assert int(blown[2]) < manifest["diverged"]["step"] < 100
    assert float(blown[-2]) < 0  # the rate fit over its records: V grows
    assert manifest["records"] == len((mixed / "eta_1e5" / "metrics.csv").read_text().split()) - 1


def test_cli_divergence_message_locates_the_entry(tmp_path, capsys):
    text = MINIMAL.replace("dt = 0.01", "dt = 500.0")
    cfg_path = write_config(tmp_path, text)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.search(r"diverged at step \d+: (z|lam|mu) is .+ at particle [01], coordinate 0", err)


def test_cli_compare_writes_both_files_around_a_diverged_run(tmp_path, capsys):
    # compare needs one dt for all runs, so a huge eta makes one diverge
    blown = write_config(tmp_path, MINIMAL.replace("dt = 0.01", "dt = 0.01\neta = 1e5"), "blown.ini")
    healthy = write_config(tmp_path, MINIMAL, "healthy.ini")
    other = write_config(tmp_path, MINIMAL, "other.ini")

    def compare(first, out):
        argv = ["compare", "--config", str(first), "--config", str(healthy), "--out", str(out)]
        code = cli.main(argv + ["--quiet"])
        lines = (out / "compare.csv").read_text().strip().split("\n")
        manifest = strict_json((out / "manifest.json").read_text())
        return code, lines, manifest

    code, lines, manifest = compare(blown, tmp_path / "mixed")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: run 'blown': integration diverged at step ")
    mixed = tmp_path / "mixed"
    assert f"wrote {mixed / 'compare.csv'} and {mixed / 'manifest.json'}" in err
    code_ok, lines_ok, _ = compare(other, tmp_path / "clean")
    assert code_ok == 0
    assert lines[0] == lines_ok[0] == "run," + csv_header()
    assert [l for l in lines if l.startswith("healthy,")] == [
        l for l in lines_ok if l.startswith("healthy,")
    ]
    assert manifest["healthy"]["records"] == 11
    entry = manifest["blown"]
    assert set(entry) == set(manifest["healthy"]) | {"diverged"}
    assert entry["config"] == load_config(blown).to_mapping()
    assert entry["records"] == sum(l.startswith("blown,") for l in lines) >= 1
    where = entry["diverged"]
    assert set(where) == {"step", "array", "particle", "coordinate", "value"}
    assert where["step"] >= 1 and where["array"] in ("z", "lam")
    assert abs(where["value"]) > 1e150  # past the state limit, still finite


def test_compare_manifest_stays_json_for_a_non_finite_divergence(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path, MINIMAL))

    def nan_run(*args, seed, **kwargs):
        # a batch's outcome per replica: the error of a run that diverged
        return [DivergenceError(7, [], "lam", 1, 0, float("nan")) for _ in seed]

    monkeypatch.setattr(harness.dynamics, "run", nan_run)
    with pytest.raises(DivergenceError):
        harness.cmd_compare([cfg, cfg], ["a", "b"], tmp_path / "cmp")
    manifest = strict_json((tmp_path / "cmp" / "manifest.json").read_text())
    where = {"step": 7, "array": "lam", "particle": 1, "coordinate": 0, "value": None}
    assert manifest["a"]["diverged"] == manifest["b"]["diverged"] == where
    assert manifest["a"]["records"] == 0
    assert (tmp_path / "cmp" / "compare.csv").read_text() == "run," + csv_header() + "\n"


def test_cli_exit_code_on_io_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(blocker / "out")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run"],
    ["run", "--config", "{cfg}", "--bogus"],
    ["oracle", "--config", "{cfg}", "--seed", "1"],
    ["oracle", "--config", "{cfg}", "--out", "{out}"],
    ["problem-gen", "--config", "{cfg}", "--out", "{out}", "--seed", "1"],
    ["graph-info", "--config", "{cfg}", "--seed", "1"],
], ids=["missing-config", "unknown-flag", "oracle-seed", "oracle-out", "problem-gen-seed",
        "graph-info-seed"])
def test_cli_usage_error_exits_1(tmp_path, capsys, argv):
    cfg_path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    code = cli.main([a.format(cfg=cfg_path, out=out) for a in argv])
    assert code == 1
    captured = capsys.readouterr()
    assert "usage:" in captured.err and "error:" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_help_exits_0(capsys):
    assert cli.main(["oracle", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_cli_seed_override(tmp_path):
    noisy = MINIMAL.replace("sigma = 0.0", "sigma = 0.1")
    cfg_path = write_config(tmp_path, noisy)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert cli.main(
        ["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "9", "--quiet"]
    ) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() != (tmp_path / "b" / "metrics.csv").read_bytes()
    # the override is converted and validated as a loaded value is
    assert cli._load(str(cfg_path), 9)["run"]["seed"] == 9
    with pytest.raises(ConfigError, match=re.escape("run.seed")):
        cli._load(str(cfg_path), "nine")


def bundle_config(bundle):
    """MINIMAL with its problem loaded from ``bundle``, whose own arrays
    decide what the generator's keys would."""
    generated = "[problem]\nn = 2\nd = 1\nm = 1\ncondition_number = 1\nseed = 3\n"
    assert generated in MINIMAL
    return MINIMAL.replace(generated, f"[problem]\nkind = bundle\nbundle = {bundle}\n")


def test_cli_problem_gen_and_bundle_round_trip(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL)
    assert cli.main(
        ["problem-gen", "--config", str(cfg_path), "--out", str(tmp_path / "bundle"), "--quiet"]
    ) == 0
    text = bundle_config(tmp_path / "bundle")
    cfg_path2 = write_config(tmp_path, text, "bundle.ini")
    out_a = tmp_path / "gen_run"
    out_b = tmp_path / "bundle_run"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_a), "--quiet"]) == 0
    assert cli.main(["run", "--config", str(cfg_path2), "--out", str(out_b), "--quiet"]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_bundle_domain_decides_the_entropy_map_check(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL)
    assert cli.main(
        ["problem-gen", "--config", str(cfg_path), "--out", str(tmp_path / "bundle"), "--quiet"]
    ) == 0
    text = bundle_config(tmp_path / "bundle") + "\n[algorithm]\nmap = entropy\n"
    # the config itself is valid: only the loaded bundle knows its domain
    cfg = load_config(write_config(tmp_path, text, "bundle.ini"))
    with pytest.raises(ConfigError, match="entropy"):
        harness.build_problem(cfg)


def test_cli_graph_info_and_oracle(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    assert cli.main(["graph-info", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "kappa_n" in out
    assert cli.main(["oracle", "--config", str(cfg_path)]) == 0
    assert "f_star" in capsys.readouterr().out


def test_cli_compare_multi_config(tmp_path):
    a = write_config(tmp_path, MINIMAL, "ismd.ini")
    text = MINIMAL + "\n[algorithm]\nname = ismd\n"
    b = write_config(tmp_path, text, "eismd.ini")
    code = cli.main(
        ["compare", "--config", str(a), "--config", str(b), "--out", str(tmp_path / "cmp"), "--quiet"]
    )
    assert code == 0
    lines = (tmp_path / "cmp" / "compare.csv").read_text().strip().split("\n")
    labels = {line.split(",")[0] for line in lines[1:]}
    assert labels == {"ismd", "eismd"}


def test_cli_compare_labels_are_unique(tmp_path):
    paths = []
    for rel in ("a_2.ini", "x/a.ini", "y/a.ini"):
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        paths += ["--config", str(write_config(tmp_path, MINIMAL, rel))]
    code = cli.main(["compare", *paths, "--out", str(tmp_path / "cmp"), "--quiet"])
    assert code == 0
    lines = (tmp_path / "cmp" / "compare.csv").read_text().strip().split("\n")
    labels = [line.split(",")[0] for line in lines[1:]]
    assert len(set(labels)) == 3
    assert all(labels.count(label) == 11 for label in set(labels))
    manifest = json.loads((tmp_path / "cmp" / "manifest.json").read_text())
    assert set(manifest) == set(labels)
    cfg = load_config(tmp_path / "a_2.ini")
    with pytest.raises(ConfigError, match="distinct"):
        harness.cmd_compare([cfg, cfg], ["a", "a"], tmp_path / "dup")


@pytest.mark.parametrize("name", ["a,b.ini", 'a"b.ini', "a\nb.ini", "a\rb.ini"])
def test_a_compare_label_that_would_break_the_csv_is_rejected(tmp_path, capsys, monkeypatch,
                                                             name):
    bad = write_config(tmp_path, MINIMAL, name)
    good = write_config(tmp_path, MINIMAL, "min.ini")
    prepared = []
    monkeypatch.setattr(harness, "prepare", lambda cfg: prepared.append(cfg))
    out = tmp_path / "cmp"
    argv = ["compare", "--config", str(good), "--config", str(bad), "--out", str(out), "--quiet"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: config {bad}: label ")
    assert prepared == []
    assert not out.exists()

import json
import re
import tracemalloc

import numpy as np
import pytest

from dismd import cli, diagnostics, harness
from dismd.diagnostics import csv_header
from dismd.dynamics import DivergenceError
from dismd.config import ConfigError, RunConfig, load_config
from dismd.objectives import load_matrix
from test_kernel_reference import with_values

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
    assert set(timings) == {
        "prepare_s", "dual_s", "oracle_s", "constants_s", "integrate_s", "record_s"
    }
    assert all(v >= 0.0 for v in timings.values())
    # three disjoint parts of prepare
    assert timings["dual_s"] + timings["oracle_s"] + timings["constants_s"] <= timings["prepare_s"]
    assert 0.0 < timings["record_s"] <= timings["integrate_s"]
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


def test_a_batched_sweep_shares_its_set_up_and_integration(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    for param, values, batched in [("hyperparams.sigma", ["0", "0.1", "0.2"], True),
                                   ("hyperparams.dt", ["0.01", "0.02"], False)]:
        out = tmp_path / param
        harness.cmd_sweep(cfg, param, values, out)
        key = param.split(".")[1]
        manifests = [json.loads((out / f"{key}_{v}" / "manifest.json").read_text())
                     for v in values]
        timings = [m["timings"] for m in manifests]
        shared = {(t["prepare_s"], t["oracle_s"], t["integrate_s"]) for t in timings}
        assert len(shared) == (1 if batched else len(values))
        for m, t in zip(manifests, timings):
            assert 0.0 < t["record_s"] <= t["integrate_s"]
            assert m["record_share"] == t["record_s"] / t["integrate_s"]
            assert m["steps_per_second"] == 100 / t["integrate_s"]


def test_execute_batches_only_configs_that_differ_in_batched_keys(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    batch = [with_values(cfg, {"hyperparams.eta": 2.0, "run.seed": 5}),
             with_values(cfg, {"hyperparams.epsilon": 3.0, "hyperparams.sigma": 0.1})]
    assert [m["config"] for _, m, _ in harness.execute(batch)] == [
        c.to_mapping() for c in batch]
    for path, value in [("hyperparams.dt", 0.02), ("hyperparams.metrics_every", 5),
                        ("problem.seed", 4), ("run.out", "elsewhere")]:
        with pytest.raises(ValueError, match="may differ only in"):
            harness.execute([cfg, with_values(cfg, {path: value})])


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
    assert list(out.iterdir()) == []

    out = tmp_path / "sweep"
    fail_the_recorder(monkeypatch, 4, out / "sigma_0.1" / "metrics.csv.tmp")
    with pytest.raises(ValueError, match="recorder failed"):
        harness.cmd_sweep(cfg, "hyperparams.sigma", ["0", "0.1", "0.2"], out)
    assert list(out.iterdir()) == []


def test_sweep_rejects_unknown_or_empty(tmp_path):
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
    assert harness.build_graph_and_spectra(cfg, 4)[0].n == 4


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


def test_graph_info_triangle_kappa(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL.replace("n = 2", "n = 3"), "tri.ini"))
    report = harness.graph_info_report(cfg)
    assert "kappa_n: 1.0" in report  # dense eigensolver value for the triangle


def test_graph_info_barbell_less_connected_than_cyclic(tmp_path):
    barbell = load_config(
        write_config(tmp_path, "[problem]\nn = 10\n[graph]\ntopology = barbell\ncluster = 5\n", "b.ini")
    )
    cyclic = load_config(write_config(tmp_path, "[problem]\nn = 10\n", "c.ini"))
    _, spec_b = harness.build_graph_and_spectra(barbell, 10)
    _, spec_c = harness.build_graph_and_spectra(cyclic, 10)
    assert spec_b.algebraic_connectivity < spec_c.algebraic_connectivity


def test_graph_matrix_export_and_reload(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    harness.export_graph_matrices(cfg, tmp_path / "mats")
    a = load_matrix(tmp_path / "mats" / "adjacency.csv")
    lap = load_matrix(tmp_path / "mats" / "laplacian.csv")
    graph, _ = harness.build_graph_and_spectra(cfg, 2)
    assert np.array_equal(a, graph.adjacency)
    assert np.array_equal(lap, graph.laplacian)


def test_user_supplied_weight_matrix(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    harness.export_graph_matrices(cfg, tmp_path / "mats")
    text = MINIMAL + f"\n[graph]\ntopology = matrix\nweights = {tmp_path/'mats'/'adjacency.csv'}\n"
    cfg2 = load_config(write_config(tmp_path, text, "mat.ini"))
    graph, spec = harness.build_graph_and_spectra(cfg2, 2)
    assert graph.n == 2
    bad = np.array([[0.7, 0.3], [0.3, 0.6]])
    np.savetxt(tmp_path / "bad.csv", bad, delimiter=",")
    text_bad = MINIMAL + f"\n[graph]\ntopology = matrix\nweights = {tmp_path/'bad.csv'}\n"
    cfg3 = load_config(write_config(tmp_path, text_bad, "bad.ini"))
    with pytest.raises(Exception):
        harness.build_graph_and_spectra(cfg3, 2)


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

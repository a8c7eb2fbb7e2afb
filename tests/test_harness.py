import json
import re

import numpy as np
import pytest

from dismd import cli, harness
from dismd.config import ConfigError, RunConfig, load_config
from dismd.objectives import load_matrix

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
    assert set(timings) == {"prepare_s", "oracle_s", "integrate_s"}
    assert all(v >= 0.0 for v in timings.values())
    assert timings["oracle_s"] <= timings["prepare_s"]
    assert manifest["wall_clock_seconds"] == timings["integrate_s"]
    assert manifest["steps_per_second"] == pytest.approx(100 / timings["integrate_s"])
    cfg.set("hyperparams", "epochs", 0)
    _, manifest_path = harness.cmd_run(cfg, tmp_path / "zero")
    assert json.loads(manifest_path.read_text())["steps_per_second"] is None


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
    cfg2 = load_config(write_config(tmp_path, noisy))
    cfg2.set("run", "seed", 1)
    b, _ = harness.cmd_run(cfg2, tmp_path / "b")
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
    for cfg in (cfg_e, cfg_p):
        cfg.set("run", "seed", 5)
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
    assert not (tmp_path / "s").exists()


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
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_cli_divergence_message_locates_the_entry(tmp_path, capsys):
    text = MINIMAL.replace("dt = 0.01", "dt = 500.0")
    cfg_path = write_config(tmp_path, text)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.search(r"diverged at step \d+: (z|lam|mu) is .+ at particle [01], coordinate 0", err)


def test_cli_exit_code_on_io_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(blocker / "out")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_cli_seed_override(tmp_path):
    noisy = MINIMAL.replace("sigma = 0.0", "sigma = 0.1")
    cfg_path = write_config(tmp_path, noisy)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert cli.main(
        ["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "9", "--quiet"]
    ) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() != (tmp_path / "b" / "metrics.csv").read_bytes()


def test_cli_problem_gen_and_bundle_round_trip(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL)
    assert cli.main(
        ["problem-gen", "--config", str(cfg_path), "--out", str(tmp_path / "bundle"), "--quiet"]
    ) == 0
    text = MINIMAL.replace("kind = generate", "").replace(
        "[problem]", f"[problem]\nkind = bundle\nbundle = {tmp_path/'bundle'}"
    )
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
    text = MINIMAL.replace(
        "[problem]", f"[problem]\nkind = bundle\nbundle = {tmp_path/'bundle'}"
    ) + "\n[algorithm]\nmap = entropy\n"
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

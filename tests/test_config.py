import pytest

from dismd.config import ConfigError, RunConfig, default_config, load_config


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_defaults_resolve():
    cfg = default_config()
    assert cfg["problem"]["d"] == 20
    assert cfg["problem"]["condition_number"] == 15.0
    assert cfg["hyperparams"]["dt"] == 0.01
    assert cfg["hyperparams"]["metrics_every"] == 50
    assert cfg["algorithm"]["name"] == "eismd"
    assert cfg["run"]["seed"] == 0


def test_load_minimal_config(tmp_path):
    path = write(
        tmp_path,
        """
[problem]
n = 2
d = 1
m = 1
condition_number = 1

[hyperparams]
epochs = 100
sigma = 0.0
""",
    )
    cfg = load_config(path)
    assert cfg["problem"]["n"] == 2
    assert cfg["hyperparams"]["epochs"] == 100
    assert cfg.hyperparams().epochs == 100


def test_unknown_key_is_cited(tmp_path):
    path = write(tmp_path, "[hyperparams]\nsgima = 0.1\n")
    with pytest.raises(ConfigError, match="sgima"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[hyperparms]\nsigma = 0.1\n")
    with pytest.raises(ConfigError, match="hyperparms"):
        load_config(path)


def test_bad_value_names_key(tmp_path):
    path = write(tmp_path, "[hyperparams]\nsigma = lots\n")
    with pytest.raises(ConfigError, match="hyperparams.sigma"):
        load_config(path)


def test_validation_rules(tmp_path):
    with pytest.raises(ConfigError, match="entropy"):
        load_config(write(tmp_path, "[problem]\ndomain = simplex\n"))
    with pytest.raises(ConfigError, match="entropy"):
        load_config(write(tmp_path, "[algorithm]\nmap = entropy\n"))
    with pytest.raises(ConfigError, match="entropy"):
        load_config(write(tmp_path, "[problem]\ndomain = unconstrained\n[algorithm]\nmap = entropy\n"))
    with pytest.raises(ConfigError, match="graph.p"):
        load_config(write(tmp_path, "[graph]\ntopology = erdos_renyi\n"))
    with pytest.raises(ConfigError, match="cluster"):
        load_config(write(tmp_path, "[graph]\ntopology = barbell\n"))
    with pytest.raises(ConfigError, match="algorithm.name"):
        load_config(write(tmp_path, "[algorithm]\nname = sgd\n"))
    with pytest.raises(ConfigError, match="dt"):
        load_config(write(tmp_path, "[hyperparams]\ndt = -2\n"))
    with pytest.raises(ConfigError, match="bundle"):
        load_config(write(tmp_path, "[problem]\nkind = bundle\n"))


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.ini")


def test_mapping_round_trip(tmp_path):
    path = write(
        tmp_path,
        """
[problem]
domain = simplex
shared_minimizer = true
d = 5

[algorithm]
map = entropy

[run]
seed = 11
""",
    )
    cfg = load_config(path)
    clone = RunConfig.from_mapping(cfg.to_mapping())
    assert clone.to_mapping() == cfg.to_mapping()


def test_set_checks_parameter_path():
    cfg = default_config()
    cfg.set("hyperparams", "sigma", 0.2)
    assert cfg["hyperparams"]["sigma"] == 0.2
    with pytest.raises(ConfigError):
        cfg.set("hyperparams", "sgima", 0.2)


def test_comments_and_inline_comments(tmp_path):
    path = write(
        tmp_path,
        """
# full-line comment
[hyperparams]
sigma = 0.5  # inline comment
""",
    )
    assert load_config(path)["hyperparams"]["sigma"] == 0.5

import re

import pytest

from dismd.config import ConfigError, RunConfig, load_config


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_defaults_resolve():
    cfg = RunConfig.from_mapping({})
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


# every float-valued config key; each must reject nan and +-inf by name
FLOAT_KEYS = (
    "problem.condition_number",
    "graph.p",
    "graph.beta",
    "algorithm.dual_beta",
    "hyperparams.eta",
    "hyperparams.epsilon",
    "hyperparams.sigma",
    "hyperparams.dt",
)


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
    for text, key in [
        ("[graph]\ntopology = erdos_renyi\np = 0\n", "graph.p"),
        ("[graph]\ntopology = erdos_renyi\np = 1.5\n", "graph.p"),
        ("[problem]\nn = 10\n[graph]\ntopology = barbell\ncluster = 4\n", "graph.cluster"),
        ("[algorithm]\nname = eismd\ndual = dual_hessian\n", "algorithm.dual"),
        ("[algorithm]\nname = ismd\ndual = dual_hessian\n", "algorithm.dual"),
        ("[algorithm]\nname = epismd\ndual = dual_hessian\ndual_beta = -1\n", "algorithm.dual_beta"),
        ("[algorithm]\ndual_beta = 0\n", "algorithm.dual_beta"),
        ("[algorithm]\nmap_matrix = nonexistent.csv\n", "algorithm.map_matrix"),
        # keys the chosen options never read
        ("[graph]\np = 0.5\n", "graph.p"),
        ("[graph]\ncluster = 5\n", "graph.cluster"),
        ("[graph]\nseed = 5\n", "graph.seed"),
        ("[problem]\nn = 4\n[graph]\ntopology = barbell\ncluster = 2\nseed = -1\n", "graph.seed"),
        ("[graph]\nweights = /nonexistent.csv\n", "graph.weights"),
        ("[algorithm]\nname = eismd\ndual_beta = 0.1\n", "algorithm.dual_beta"),
        ("[algorithm]\nname = epismd\ndual = identity\ndual_beta = 0.1\n", "algorithm.dual_beta"),
        ("[algorithm]\nname = ismd\ninteraction_on = z\n", "algorithm.interaction_on"),
        ("[problem]\nkind = generate\nbundle = /nonexistent\n", "problem.bundle"),
        # a generated problem needs two singular values to spread
        ("[problem]\nd = 1\n", "problem.condition_number"),
        ("[problem]\nm = 1\ncondition_number = 1.5\n", "problem.condition_number"),
        # a barbell needs a positive cluster size, whatever the problem kind
        ("[graph]\ntopology = barbell\ncluster = 0\n", "graph.cluster"),
        ("[problem]\nkind = bundle\nbundle = b\n[graph]\ntopology = barbell\ncluster = 0\n",
         "graph.cluster"),
        # a bundle's own arrays decide what the generator's keys would
        *((f"[problem]\nkind = bundle\nbundle = b\n{key} = {value}\n", f"problem.{key}")
          for key, value in [("seed", 5), ("d", 3), ("m", 2), ("n", 7), ("condition_number", 4.0),
                             ("shared_minimizer", "true"), ("domain", "simplex")]),
    ]:
        with pytest.raises(ConfigError, match=key):
            load_config(write(tmp_path, text))
    for key in FLOAT_KEYS:
        section, name = key.split(".")
        for value in ("nan", "inf", "-inf", "+Infinity"):
            text = f"[{section}]\n{name} = {value}\n"
            with pytest.raises(ConfigError, match=re.escape(key)):
                load_config(write(tmp_path, text))


def test_graph_seed_accepted_where_read_and_at_its_default():
    # test_validation_rules rejects a seed elsewhere; 0 is the default, which
    # to_mapping echoes, so every topology accepts it
    er = RunConfig.from_mapping({"graph": {"topology": "erdos_renyi", "p": 0.5, "seed": 5}})
    assert er["graph"]["seed"] == 5
    cyclic = RunConfig.from_mapping({"graph": {"topology": "cyclic", "seed": 0}})
    assert RunConfig.from_mapping(cyclic.to_mapping()).to_mapping() == cyclic.to_mapping()


def test_bundle_accepts_the_generator_keys_at_their_defaults():
    # test_validation_rules rejects them when set; to_mapping echoes the
    # defaults, so a bundle config round-trips
    bundle = RunConfig.from_mapping({"problem": {"kind": "bundle", "bundle": "b", "n": 10}})
    assert RunConfig.from_mapping(bundle.to_mapping()).to_mapping() == bundle.to_mapping()


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


def test_from_mapping_converts_strings_and_cites_unknown_keys():
    # library callers override values through a mapping; a string is
    # converted as a loaded value is, and an unknown key is named
    mapping = RunConfig.from_mapping({}).to_mapping()
    mapping["hyperparams"]["epochs"] = "300"
    assert RunConfig.from_mapping(mapping)["hyperparams"]["epochs"] == 300
    mapping["hyperparams"]["sgima"] = 0.2
    with pytest.raises(ConfigError, match="sgima"):
        RunConfig.from_mapping(mapping)


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


def test_mapping_round_trip_and_invalid_combinations_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    finite = {"allow_nan": False, "allow_infinity": False}

    @st.composite
    def configs(draw):
        cluster = draw(st.integers(1, 6))
        topology = draw(st.sampled_from(["cyclic", "erdos_renyi", "barbell"]))
        algorithm = draw(st.sampled_from(["ismd", "eismd", "epismd"]))
        dual = draw(st.sampled_from(
            ["identity", "dual_hessian"] if algorithm == "epismd" else ["identity"]
        ))
        simplex = draw(st.booleans())
        d = draw(st.integers(1, 8))
        return {
            "problem": {
                "n": 2 * cluster if topology == "barbell" else draw(st.integers(1, 12)),
                "d": d,
                # one coordinate leaves a single singular value, so no spread
                "condition_number": draw(st.floats(1.0, 1e6, **finite)) if d > 1 else 1.0,
                "domain": "simplex" if simplex else "unconstrained",
                "shared_minimizer": draw(st.booleans()),
            },
            "graph": {
                "topology": topology,
                "p": draw(st.floats(1e-6, 1.0, **finite)) if topology == "erdos_renyi" else None,
                "cluster": cluster if topology == "barbell" else None,
                "beta": draw(st.floats(1e-6, 1e6, **finite)),
            },
            "algorithm": {
                "name": algorithm,
                "map": "entropy" if simplex else "euclidean",
                "dual": dual,
                # dual_beta is read only by the dual-Hessian preconditioner
                "dual_beta": draw(st.one_of(st.none(), st.floats(1e-6, 1e6, **finite)))
                if dual == "dual_hessian" else None,
            },
            "hyperparams": {
                "sigma": draw(st.floats(0.0, 10.0, **finite)),
                "dt": draw(st.floats(1e-6, 1.0, **finite)),
                "epochs": draw(st.integers(0, 10**6)),
            },
            "run": {"seed": draw(st.integers(0, 2**31))},
        }

    @hypothesis.given(configs())
    @hypothesis.settings(max_examples=200, deadline=None)
    def round_trips(mapping):
        cfg = RunConfig.from_mapping(mapping)
        assert RunConfig.from_mapping(cfg.to_mapping()).to_mapping() == cfg.to_mapping()

    @hypothesis.given(
        p=st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True)),
        n=st.integers(1, 20),
        cluster=st.integers(-3, 10),
        algorithm=st.sampled_from(["ismd", "eismd"]),
    )
    @hypothesis.settings(max_examples=200, deadline=None)
    def rejects(p, n, cluster, algorithm):
        with pytest.raises(ConfigError, match="graph.p"):
            RunConfig.from_mapping({"graph": {"topology": "erdos_renyi", "p": p}})
        if n != 2 * cluster:
            with pytest.raises(ConfigError, match="graph.cluster"):
                RunConfig.from_mapping(
                    {"problem": {"n": n}, "graph": {"topology": "barbell", "cluster": cluster}}
                )
        with pytest.raises(ConfigError, match="algorithm.dual"):
            RunConfig.from_mapping({"algorithm": {"name": algorithm, "dual": "dual_hessian"}})

    @hypothesis.given(
        key=st.sampled_from(FLOAT_KEYS),
        value=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        dual_beta=st.floats(max_value=0.0, allow_infinity=False),
    )
    @hypothesis.settings(max_examples=200, deadline=None)
    def rejects_non_finite(key, value, dual_beta):
        section, name = key.split(".")
        with pytest.raises(ConfigError, match=re.escape(key)):
            RunConfig.from_mapping({section: {name: value}})
        with pytest.raises(ConfigError, match="algorithm.dual_beta"):
            RunConfig.from_mapping({"algorithm": {"dual_beta": dual_beta}})

    round_trips()
    rejects()
    rejects_non_finite()

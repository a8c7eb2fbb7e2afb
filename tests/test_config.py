import importlib
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from dismd import harness
from dismd.config import SCHEMA, ConfigError, RunConfig, load_config
from dismd.dynamics import Hyperparams
from dismd.objectives import GeneratorConfig


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
        # seeds are non-negative
        ("[problem]\nseed = -3\n", "problem.seed must be >= 0, got -3"),
        ("[graph]\ntopology = erdos_renyi\np = 0.5\nseed = -2\n", "graph.seed must be >= 0, got -2"),
        ("[run]\nseed = -1\n", "run.seed must be >= 0, got -1"),
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


def test_with_values_converts_strings_as_a_loaded_value():
    cfg = RunConfig.from_mapping({}).with_values(
        {"hyperparams.epochs": "300", "hyperparams.sigma": " 0.1 ", "run.seed": 7,
         "problem.shared_minimizer": "yes"})
    assert cfg["hyperparams"]["epochs"] == 300 and type(cfg["hyperparams"]["epochs"]) is int
    assert cfg["hyperparams"]["sigma"] == 0.1 and cfg["run"]["seed"] == 7
    assert cfg["problem"]["shared_minimizer"] is True


@pytest.mark.parametrize("values, message", [
    ({"hyperparams.dt": "inf"}, "bad value for 'hyperparams.dt': must be a finite number"),
    ({"hyperparams.eta": -1}, "hyperparams.eta must be positive, got -1.0"),
    ({"hyperparams.epochs": "1e2"}, "bad value for 'hyperparams.epochs'"),
    ({"graph.p": 0.5}, "graph.p is read only by graph.topology = erdos_renyi"),
    ({"hyperparams.sgima": 0.1}, "unknown key 'sgima' in section [hyperparams]"),
    ({"hyperparam.sigma": 0.1}, "unknown config section [hyperparam]"),
    ({"sigma": 0.1}, "unknown config section [sigma]"),
])
def test_with_values_rejects_a_bad_value_or_key_and_leaves_its_source(values, message):
    cfg = RunConfig.from_mapping({"hyperparams": {"sigma": 0.05}})
    before = cfg.to_mapping()
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg.with_values(values)
    cfg.with_values({"hyperparams.sigma": 0.2, "run.seed": 3})
    assert cfg.to_mapping() == before


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


# one config per rule that breaks only that rule -> the exact message it gives
RULE_MESSAGES = {
    # ranges
    "problem.d": ("[problem]\nd = 0\n", "problem.d must be >= 1, got 0"),
    "problem.m": ("[problem]\nm = 0\n", "problem.m must be >= 1, got 0"),
    "problem.n": ("[problem]\nn = 0\n", "problem.n must be >= 1, got 0"),
    "problem.condition_number": ("[problem]\ncondition_number = 0.5\n",
                                 "problem.condition_number must be >= 1, got 0.5"),
    "graph.p": ("[graph]\ntopology = erdos_renyi\np = 0\n", "graph.p must be in (0, 1], got 0.0"),
    "graph.cluster": ("[graph]\ntopology = barbell\ncluster = 0\n",
                      "graph.cluster must be >= 1, got 0"),
    "graph.beta": ("[graph]\nbeta = 0\n", "graph.beta must be positive, got 0.0"),
    "algorithm.dual_beta": ("[algorithm]\nname = epismd\ndual = dual_hessian\ndual_beta = 0\n",
                            "algorithm.dual_beta must be positive, got 0.0"),
    "hyperparams.eta": ("[hyperparams]\neta = 0\n", "hyperparams.eta must be positive, got 0.0"),
    "hyperparams.epsilon": ("[hyperparams]\nepsilon = -1\n",
                            "hyperparams.epsilon must be positive, got -1.0"),
    "hyperparams.sigma": ("[hyperparams]\nsigma = -0.5\n",
                          "hyperparams.sigma must be >= 0, got -0.5"),
    "hyperparams.dt": ("[hyperparams]\ndt = -2\n", "hyperparams.dt must be positive, got -2.0"),
    "hyperparams.epochs": ("[hyperparams]\nepochs = -1\n",
                           "hyperparams.epochs must be >= 0, got -1"),
    "hyperparams.metrics_every": ("[hyperparams]\nmetrics_every = 0\n",
                                  "hyperparams.metrics_every must be >= 1, got 0"),
    "problem.seed": ("[problem]\nseed = -3\n", "problem.seed must be >= 0, got -3"),
    "graph.seed": ("[graph]\ntopology = erdos_renyi\np = 0.5\nseed = -2\n",
                   "graph.seed must be >= 0, got -2"),
    "run.seed": ("[run]\nseed = -1\n", "run.seed must be >= 0, got -1"),
    # choices
    "problem.kind": ("[problem]\nkind = file\n",
                     "problem.kind must be one of ('generate', 'bundle'), got 'file'"),
    "problem.domain": ("[problem]\ndomain = box\n",
                       "problem.domain must be one of ('unconstrained', 'simplex'), got 'box'"),
    "graph.topology": ("[graph]\ntopology = ring\n", "graph.topology must be one of "
                       "('cyclic', 'erdos_renyi', 'barbell', 'matrix'), got 'ring'"),
    "algorithm.name": ("[algorithm]\nname = sgd\n",
                       "algorithm.name must be one of ('ismd', 'eismd', 'epismd'), got 'sgd'"),
    "algorithm.interaction_on": ("[algorithm]\ninteraction_on = y\n",
                                 "algorithm.interaction_on must be one of ('x', 'z'), got 'y'"),
    "algorithm.map": ("[algorithm]\nmap = log\n", "algorithm.map must be one of "
                      "('euclidean', 'entropy', 'quadratic'), got 'log'"),
    "algorithm.dual": ("[algorithm]\ndual = hessian\n",
                       "algorithm.dual must be one of ('identity', 'dual_hessian'), got 'hessian'"),
    # keys read only under one choice
    **{f"bundle reads no problem.{key}": (
        f"[problem]\nkind = bundle\nbundle = b\n{key} = {value}\n",
        f"problem.{key} is read only by problem.kind = generate, got 'bundle'")
       for key, value in [("seed", 5), ("d", 3), ("m", 2), ("n", 7), ("condition_number", 4.0),
                          ("shared_minimizer", "true"), ("domain", "simplex")]},
    "generate reads no problem.bundle": (
        "[problem]\nbundle = b\n",
        "problem.bundle is read only by problem.kind = bundle, got 'generate'"),
    "cyclic reads no graph.p": (
        "[graph]\np = 0.5\n", "graph.p is read only by graph.topology = erdos_renyi, got 'cyclic'"),
    "cyclic reads no graph.seed": (
        "[graph]\nseed = 5\n",
        "graph.seed is read only by graph.topology = erdos_renyi, got 'cyclic'"),
    "cyclic reads no graph.cluster": (
        "[graph]\ncluster = 5\n",
        "graph.cluster is read only by graph.topology = barbell, got 'cyclic'"),
    "cyclic reads no graph.weights": (
        "[graph]\nweights = w.csv\n",
        "graph.weights is read only by graph.topology = matrix, got 'cyclic'"),
    "euclidean reads no map_matrix": (
        "[algorithm]\nmap_matrix = p.csv\n",
        "algorithm.map_matrix is read only by algorithm.map = quadratic, got 'euclidean'"),
    "identity reads no dual_beta": (
        "[algorithm]\nname = epismd\ndual_beta = 0.1\n",
        "algorithm.dual_beta is read only by algorithm.dual = dual_hessian, got 'identity'"),
    # keys a choice requires
    "bundle requires problem.bundle": ("[problem]\nkind = bundle\n",
                                       "problem.kind = bundle requires problem.bundle"),
    "erdos_renyi requires graph.p": ("[graph]\ntopology = erdos_renyi\n",
                                     "graph.topology = erdos_renyi requires graph.p"),
    "barbell requires graph.cluster": ("[graph]\ntopology = barbell\n",
                                       "graph.topology = barbell requires graph.cluster"),
    "matrix requires graph.weights": ("[graph]\ntopology = matrix\n",
                                      "graph.topology = matrix requires graph.weights"),
    "quadratic requires map_matrix": ("[algorithm]\nmap = quadratic\n",
                                      "algorithm.map = quadratic requires algorithm.map_matrix"),
    # rules between values
    "condition number spread": (
        "[problem]\nd = 1\n", "problem.condition_number = 15.0 > 1 needs at least two singular "
        "values, but min(problem.m, problem.d) = 1"),
    "barbell size": ("[problem]\nn = 10\n[graph]\ntopology = barbell\ncluster = 4\n",
                     "graph.cluster = 4 needs 8 particles but the problem has 10"),
    "simplex without entropy": ("[problem]\ndomain = simplex\n",
                                "a simplex problem needs algorithm.map = entropy, got 'euclidean'"),
    "entropy without simplex": (
        "[algorithm]\nmap = entropy\n",
        "algorithm.map = entropy needs a simplex problem, got domain 'unconstrained'"),
    "ismd reads no interaction_on = z": (
        "[algorithm]\nname = ismd\ninteraction_on = z\n",
        "algorithm.interaction_on = z is not read by algorithm.name = ismd, which couples on z"),
    "dual_hessian needs epismd": (
        "[algorithm]\nname = eismd\ndual = dual_hessian\n",
        "algorithm.dual = dual_hessian needs algorithm.name = epismd, got 'eismd'"),
}


@pytest.mark.parametrize("rule", RULE_MESSAGES)
def test_each_rule_gives_its_one_message(tmp_path, rule):
    text, message = RULE_MESSAGES[rule]
    with pytest.raises(ConfigError) as raised:
        load_config(write(tmp_path, text))
    assert str(raised.value) == message


def test_readme_lists_every_config_key_and_its_choices():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = next(b for b in readme.split("```")[1::2] if b.lstrip().startswith("[problem]"))
    listed = {}
    for line in block.strip().splitlines():
        if line.startswith("["):
            section, line = line[1:].split("]", 1)
            listed[section] = []
        for item in filter(None, (part.strip() for part in line.split(","))):
            key, _, value = (word.strip() for word in item.partition("="))
            listed[section].append((key, tuple(v.strip() for v in value.split("|"))
                                    if "|" in value else None))
    assert listed == {
        section: [(key, spec.allowed if isinstance(spec.allowed, tuple) else None)
                  for key, spec in keys.items()]
        for section, keys in SCHEMA.items()
    }


def test_readme_library_references_resolve_and_its_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    references = set(re.findall(r"`(dismd\.\w+\.\w+)", readme))
    assert "dismd.dynamics.ParticleSystem" in references
    for reference in references:
        module, _, name = reference.rpartition(".")
        assert hasattr(importlib.import_module(module), name), reference
    example = readme.split("\n## Library use\n", 1)[1].split("```python\n", 1)[1].split("```")[0]
    assert "epochs=50_000" in example
    exec(example.replace("epochs=50_000", "epochs=500"), {})
    assert math.isfinite(float(capsys.readouterr().out))


def test_the_records_built_from_the_config_find_their_fields_in_the_schema():
    # RunConfig.hyperparams and harness.build_problem fill these records field
    # by field from their sections, and harness.SWEEPABLE opens with the keys
    # that run as the replicas of one batch
    for record, section in ((Hyperparams, "hyperparams"), (GeneratorConfig, "problem")):
        missing = [f.name for f in fields(record) if f.name not in SCHEMA[section]]
        assert missing == [], f"{record.__name__} fields {missing} are not keys of [{section}]"
    assert harness.SWEEPABLE[:len(harness.BATCHED)] == harness.BATCHED

"""Run configuration: sectioned key-value files, strictly validated.

The config format is INI (sections of scalar key = value pairs). Unknown
sections or keys are rejected, and every error message names the offending
key so a typo like ``sgima`` is caught before any computation starts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .dynamics import ALGORITHMS, Hyperparams
from .graphs import TOPOLOGY_KINDS
from .mirror_maps import MAP_KINDS
from .objectives import DOMAINS


class ConfigError(ValueError):
    pass


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw.strip()!r}")
    return value


def _to_str(raw: str) -> str:
    return raw.strip()


# section -> key -> (converter, default); defaults of None mean "unset".
SCHEMA: dict[str, dict[str, tuple[Any, Any]]] = {
    "problem": {
        "kind": (_to_str, "generate"),
        "bundle": (_to_str, None),
        "seed": (int, 0),
        "d": (int, 20),
        "m": (int, 20),
        "n": (int, 10),
        "condition_number": (_to_finite_float, 15.0),
        "shared_minimizer": (_to_bool, False),
        "domain": (_to_str, "unconstrained"),
    },
    "graph": {
        "topology": (_to_str, "cyclic"),
        "p": (_to_finite_float, None),
        "cluster": (int, None),
        "seed": (int, 0),
        "weights": (_to_str, None),
        "beta": (_to_finite_float, 1.0),
    },
    "algorithm": {
        "name": (_to_str, "eismd"),
        "interaction_on": (_to_str, "x"),
        "map": (_to_str, "euclidean"),
        "map_matrix": (_to_str, None),
        "dual": (_to_str, "identity"),
        "dual_beta": (_to_finite_float, None),
        "x0": (_to_str, None),
    },
    "hyperparams": {
        "eta": (_to_finite_float, 1.0),
        "epsilon": (_to_finite_float, 1.0),
        "sigma": (_to_finite_float, 0.0),
        "dt": (_to_finite_float, 0.01),
        "epochs": (int, 50_000),
        "metrics_every": (int, 50),
    },
    "run": {
        "seed": (int, 0),
        "out": (_to_str, None),
    },
}


@dataclass
class RunConfig:
    """Validated, fully resolved configuration for one run."""

    values: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __getitem__(self, key: str) -> dict[str, Any]:
        return self.values[key]

    def hyperparams(self) -> Hyperparams:
        h = self.values["hyperparams"]
        return Hyperparams(
            eta=h["eta"], epsilon=h["epsilon"], sigma=h["sigma"], dt=h["dt"], epochs=h["epochs"]
        )

    def to_mapping(self) -> dict[str, dict[str, Any]]:
        return {sec: dict(keys) for sec, keys in self.values.items()}

    @classmethod
    def from_mapping(cls, mapping: dict[str, dict[str, Any]]) -> "RunConfig":
        raw = {
            sec: {k: str(v) for k, v in keys.items() if v is not None}
            for sec, keys in mapping.items()
        }
        return _build(raw)


def _build(raw: dict[str, dict[str, str]]) -> RunConfig:
    values: dict[str, dict[str, Any]] = {}
    for section in raw:
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
    for section, keys in SCHEMA.items():
        given = raw.get(section, {})
        for key in given:
            if key not in keys:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
        resolved = {}
        for key, (convert, default) in keys.items():
            if key in given:
                try:
                    resolved[key] = convert(given[key])
                except ValueError as exc:
                    raise ConfigError(f"bad value for '{section}.{key}': {exc}") from exc
            else:
                resolved[key] = default
        values[section] = resolved
    cfg = RunConfig(values=values)
    _validate(cfg)
    return cfg


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def check_barbell(cluster: int, n: int) -> None:
    """A barbell of ``cluster``-node halves joins 2 * cluster particles."""
    _require(n == 2 * cluster,
             f"graph.cluster = {cluster} needs {2 * cluster} particles but the problem has {n}")


def check_map_domain(domain: str, map: str) -> None:
    """Simplex problems pair only with the entropy map, and it only with them."""
    if domain == "simplex":
        _require(map == "entropy", f"a simplex problem needs algorithm.map = entropy, got {map!r}")
    else:
        _require(map != "entropy",
                 f"algorithm.map = entropy needs a simplex problem, got domain {domain!r}")


def _validate(cfg: RunConfig) -> None:
    p = cfg["problem"]
    _require(p["kind"] in ("generate", "bundle"), f"problem.kind must be generate|bundle, got {p['kind']!r}")
    if p["kind"] == "bundle":
        _require(p["bundle"] is not None, "problem.kind = bundle requires problem.bundle")
        # the bundle's own arrays decide; a key left at its default, as
        # to_mapping echoes it, is not set
        for key in ("seed", "d", "m", "n", "condition_number", "shared_minimizer", "domain"):
            _require(p[key] == SCHEMA["problem"][key][1],
                     f"problem.{key} is read only by problem.kind = generate, got 'bundle'")
    else:
        _require(p["bundle"] is None, "problem.bundle is read only by problem.kind = bundle")
    _require(p["domain"] in DOMAINS, f"problem.domain must be one of {DOMAINS}, got {p['domain']!r}")
    _require(p["d"] >= 1 and p["m"] >= 1 and p["n"] >= 1, "problem.d, problem.m, problem.n must be >= 1")
    _require(p["condition_number"] >= 1.0, "problem.condition_number must be >= 1")
    if p["kind"] == "generate":
        _require(
            p["condition_number"] == 1.0 or min(p["m"], p["d"]) >= 2,
            f"problem.condition_number = {p['condition_number']} > 1 needs at least two singular "
            f"values, but min(problem.m, problem.d) = {min(p['m'], p['d'])}",
        )

    g = cfg["graph"]
    kinds = TOPOLOGY_KINDS + ("matrix",)
    _require(g["topology"] in kinds, f"graph.topology must be one of {kinds}, got {g['topology']!r}")
    # a key left at its default (None, or seed 0 as to_mapping echoes it) is not set
    for key, topology in (("p", "erdos_renyi"), ("seed", "erdos_renyi"), ("cluster", "barbell"),
                          ("weights", "matrix")):
        if g["topology"] != topology:
            _require(g[key] == SCHEMA["graph"][key][1],
                     f"graph.{key} is read only by graph.topology = {topology}, got {g['topology']!r}")
    if g["topology"] == "erdos_renyi":
        _require(g["p"] is not None, "graph.topology = erdos_renyi requires graph.p")
        _require(0.0 < g["p"] <= 1.0, f"graph.p must be in (0, 1], got {g['p']}")
    if g["topology"] == "barbell":
        _require(g["cluster"] is not None, "graph.topology = barbell requires graph.cluster")
        _require(g["cluster"] >= 1, f"graph.cluster must be >= 1, got {g['cluster']}")
        if p["kind"] == "generate":  # a bundle's own n decides, once it is loaded
            check_barbell(g["cluster"], p["n"])
    if g["topology"] == "matrix":
        _require(g["weights"] is not None, "graph.topology = matrix requires graph.weights")
    _require(g["beta"] > 0, f"graph.beta must be positive, got {g['beta']}")

    a = cfg["algorithm"]
    _require(a["name"] in ALGORITHMS, f"algorithm.name must be one of {ALGORITHMS}, got {a['name']!r}")
    _require(a["interaction_on"] in ("x", "z"), f"algorithm.interaction_on must be x|z, got {a['interaction_on']!r}")
    if a["name"] == "ismd":
        _require(a["interaction_on"] == "x", "algorithm.interaction_on = z is not read by algorithm.name = ismd, which couples on z")
    _require(a["map"] in MAP_KINDS, f"algorithm.map must be one of {MAP_KINDS}, got {a['map']!r}")
    if a["map"] == "quadratic":
        _require(a["map_matrix"] is not None, "algorithm.map = quadratic requires algorithm.map_matrix")
    else:
        _require(
            a["map_matrix"] is None,
            f"algorithm.map_matrix is read only by algorithm.map = quadratic, got map = {a['map']!r}",
        )
    _require(a["dual"] in ("identity", "dual_hessian"), f"algorithm.dual must be identity|dual_hessian, got {a['dual']!r}")
    if a["dual"] == "dual_hessian":
        _require(a["name"] == "epismd", f"algorithm.dual = dual_hessian needs algorithm.name = epismd, got {a['name']!r}")
    if a["dual_beta"] is not None:
        _require(a["dual"] == "dual_hessian", "algorithm.dual_beta is read only by algorithm.dual = dual_hessian")
        _require(a["dual_beta"] > 0, f"algorithm.dual_beta must be positive, got {a['dual_beta']}")
    if p["kind"] == "generate":  # a bundle's own domain decides, once it is loaded
        check_map_domain(p["domain"], a["map"])

    h = cfg["hyperparams"]
    _require(h["eta"] > 0, f"hyperparams.eta must be positive, got {h['eta']}")
    _require(h["epsilon"] > 0, f"hyperparams.epsilon must be positive, got {h['epsilon']}")
    _require(h["sigma"] >= 0, f"hyperparams.sigma must be >= 0, got {h['sigma']}")
    _require(h["dt"] > 0, f"hyperparams.dt must be positive, got {h['dt']}")
    _require(h["epochs"] >= 0, f"hyperparams.epochs must be >= 0, got {h['epochs']}")
    _require(h["metrics_every"] >= 1, f"hyperparams.metrics_every must be >= 1, got {h['metrics_every']}")
    for key, seed in (("problem.seed", p["seed"]), ("graph.seed", g["seed"]), ("run.seed", cfg["run"]["seed"])):
        _require(seed >= 0, f"{key} must be >= 0, got {seed}")


def load_config(path: Path | str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keep keys case-sensitive so typos are not masked
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read_string(path.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    raw = {section: dict(parser.items(section)) for section in parser.sections()}
    return _build(raw)


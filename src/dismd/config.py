"""Run configuration: sectioned key-value files, strictly validated.

The config format is INI (sections of scalar key = value pairs). Unknown
sections or keys are rejected, and every error message names the offending
key so a typo like ``sgima`` is caught before any computation starts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, NamedTuple

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


class Key(NamedTuple):
    """One config key. ``default`` None means unset. ``allowed`` is a tuple of
    choices or a RANGES name. A key that only one choice reads names it in
    ``read_by`` as (key of the same section, value); ``required`` keys must be
    set under it."""

    convert: Callable[[str], Any]
    default: Any
    allowed: tuple | str | None = None
    read_by: tuple[str, str] | None = None
    required: bool = False


# the values a number may take, by the words its message gives
RANGES = {
    "positive": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
}

GENERATED = ("kind", "generate")  # a bundle's own arrays decide these keys

SCHEMA: dict[str, dict[str, Key]] = {
    "problem": {
        "kind": Key(_to_str, "generate", ("generate", "bundle")),
        "bundle": Key(_to_str, None, read_by=("kind", "bundle"), required=True),
        "seed": Key(int, 0, ">= 0", GENERATED),
        "d": Key(int, 20, ">= 1", GENERATED),
        "m": Key(int, 20, ">= 1", GENERATED),
        "n": Key(int, 10, ">= 1", GENERATED),
        "condition_number": Key(_to_finite_float, 15.0, ">= 1", GENERATED),
        "shared_minimizer": Key(_to_bool, False, read_by=GENERATED),
        "domain": Key(_to_str, "unconstrained", DOMAINS, GENERATED),
    },
    "graph": {
        "topology": Key(_to_str, "cyclic", TOPOLOGY_KINDS + ("matrix",)),
        "p": Key(_to_finite_float, None, "in (0, 1]", ("topology", "erdos_renyi"), required=True),
        "cluster": Key(int, None, ">= 1", ("topology", "barbell"), required=True),
        "seed": Key(int, 0, ">= 0", ("topology", "erdos_renyi")),
        "weights": Key(_to_str, None, read_by=("topology", "matrix"), required=True),
        "beta": Key(_to_finite_float, 1.0, "positive"),
    },
    "algorithm": {
        "name": Key(_to_str, "eismd", ALGORITHMS),
        "interaction_on": Key(_to_str, "x", ("x", "z")),
        "map": Key(_to_str, "euclidean", MAP_KINDS),
        "map_matrix": Key(_to_str, None, read_by=("map", "quadratic"), required=True),
        "dual": Key(_to_str, "identity", ("identity", "dual_hessian")),
        "dual_beta": Key(_to_finite_float, None, "positive", ("dual", "dual_hessian")),
        "x0": Key(_to_str, None),
    },
    "hyperparams": {
        "eta": Key(_to_finite_float, 1.0, "positive"),
        "epsilon": Key(_to_finite_float, 1.0, "positive"),
        "sigma": Key(_to_finite_float, 0.0, ">= 0"),
        "dt": Key(_to_finite_float, 0.01, "positive"),
        "epochs": Key(int, 50_000, ">= 0"),
        "metrics_every": Key(int, 50, ">= 1"),
    },
    "run": {
        "seed": Key(int, 0, ">= 0"),
        "out": Key(_to_str, None),
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
        return Hyperparams(**{f.name: h[f.name] for f in fields(Hyperparams)})

    def to_mapping(self) -> dict[str, dict[str, Any]]:
        return {sec: dict(keys) for sec, keys in self.values.items()}

    def with_values(self, values: dict[str, Any]) -> "RunConfig":
        """A copy with each ``"section.key": value`` of ``values`` set, the
        values then converted and validated as loaded values are."""
        mapping = self.to_mapping()
        for path, value in values.items():
            section, _, key = path.partition(".")
            mapping.setdefault(section, {})[key] = value
        return RunConfig.from_mapping(mapping)

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
        for key, spec in keys.items():
            if key in given:
                try:
                    resolved[key] = spec.convert(given[key])
                except ValueError as exc:
                    raise ConfigError(f"bad value for '{section}.{key}': {exc}") from exc
            else:
                resolved[key] = spec.default
        values[section] = resolved
    for section, keys in SCHEMA.items():
        got = values[section]
        for key, (_, default, allowed, read_by, required) in keys.items():
            name, value = f"{section}.{key}", got[key]
            if read_by:
                by, choice = read_by
                # a key left at its default, as to_mapping echoes it, is not set
                _require(got[by] == choice or value == default,
                         f"{name} is read only by {section}.{by} = {choice}, got {got[by]!r}")
                _require(not (required and got[by] == choice and value is None),
                         f"{section}.{by} = {choice} requires {name}")
            if isinstance(allowed, tuple):
                _require(value in allowed, f"{name} must be one of {allowed}, got {value!r}")
            elif allowed and value is not None:
                _require(RANGES[allowed](value), f"{name} must be {allowed}, got {value!r}")
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
    """The rules between values; SCHEMA holds each key's own."""
    p, g, a = cfg["problem"], cfg["graph"], cfg["algorithm"]
    if p["kind"] == "generate":  # a bundle's own arrays decide, once it is loaded
        _require(
            p["condition_number"] == 1.0 or min(p["m"], p["d"]) >= 2,
            f"problem.condition_number = {p['condition_number']} > 1 needs at least two singular "
            f"values, but min(problem.m, problem.d) = {min(p['m'], p['d'])}",
        )
        if g["topology"] == "barbell":
            check_barbell(g["cluster"], p["n"])
        check_map_domain(p["domain"], a["map"])
    _require(a["name"] != "ismd" or a["interaction_on"] == "x", "algorithm.interaction_on = z "
             "is not read by algorithm.name = ismd, which couples on z")
    _require(a["dual"] != "dual_hessian" or a["name"] == "epismd",
             f"algorithm.dual = dual_hessian needs algorithm.name = epismd, got {a['name']!r}")


def load_config(path: Path | str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keep keys case-sensitive so typos are not masked
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read_string(path.read_text())
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    raw = {section: dict(parser.items(section)) for section in parser.sections()}
    return _build(raw)


"""Golden hashes of metrics.csv and golden manifest values for the shipped
configs.

Each case runs a shipped config, cut to a short horizon, through
``harness.cmd_run`` and compares the SHA-256 of the metrics file with a
hash recorded for artifact version 0.1.0. A change that alters any
diagnostic in any digit fails here; such a change must bump
``artifact_version`` and record new hashes. The manifest's ``constants``
and ``oracle`` blocks are compared, as parsed JSON, with values recorded
for the same version.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dismd import __version__, harness
from dismd.config import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (config stem, sigma override or None) -> sha256 of metrics.csv
GOLDEN = {
    ("barbell_epismd", None):
        "859608fb0f986cc3b9030a24eea842177e4b9d5c7723f03b4ab6208f01b4b047",
    ("problem_a_eismd", None):
        "c2dd3a59256c1c7dd34b3067fa7eb8ed15771ecffa1af66733351945f087ea2b",
    ("problem_a_ismd", None):
        "85e186da8e6ea856c35efa591b118ee43cad0442bed90cafff1e3ae28df42318",
    ("problem_b_simplex", None):
        "90cabf33e90f84e056f786120492c304133fab5da300d8de98b1acfec4bb94c5",
    ("problem_a_eismd", 0.1):
        "1ced9142a54fab10a0a6a020dc31454926c7a9e82bf25241d7d3472e01819946",
}


# (config stem, parameter path, value) -> sha256 of metrics.csv, for paths
# of the step kernel that no shipped config takes: the exact dynamics coupled
# on z, and noise on the plain and the preconditioned dynamics. Under the
# euclidean map x = z, so the z-coupled problem_a and barbell runs repeat the
# bytes of their x-coupled runs; the entropy map is where L z and L x differ.
GOLDEN_OVERRIDES = {
    ("problem_a_eismd", "algorithm.interaction_on", "z"):
        "c2dd3a59256c1c7dd34b3067fa7eb8ed15771ecffa1af66733351945f087ea2b",
    ("barbell_epismd", "algorithm.interaction_on", "z"):
        "859608fb0f986cc3b9030a24eea842177e4b9d5c7723f03b4ab6208f01b4b047",
    ("problem_b_simplex", "algorithm.interaction_on", "z"):
        "f961cec983a95964d9f62291f4a865c3d164b3d43619798c3c16dbba78cd72a4",
    ("problem_a_ismd", "hyperparams.sigma", 0.1):
        "31a4922d955a24d9c47ccfc2bc2487a9be7a893d4fff78abfd774f1cea11978c",
    ("barbell_epismd", "hyperparams.sigma", 0.1):
        "8f2b0bfa60f3d9837ade18e7cd2cf81421e1458a10c568155ee15ae8dde4b4fc",
}


def _metrics_digest(out_dir, stem: str, overrides: dict) -> str:
    """SHA-256 of metrics.csv of a shipped config cut to 2,000 epochs."""
    assert __version__ == "0.1.0", "a new artifact version needs new golden hashes"
    cfg = load_config(CONFIGS / f"{stem}.ini")
    cfg.set("hyperparams", "epochs", 2000)
    cfg.set("hyperparams", "metrics_every", 10)
    for path, value in overrides.items():
        cfg.set(*path.split("."), value)
    metrics_path, _ = harness.cmd_run(cfg, out_dir)
    return hashlib.sha256(metrics_path.read_bytes()).hexdigest()


def test_golden_cases_cover_every_shipped_config():
    assert {stem for stem, _ in GOLDEN} == {p.stem for p in CONFIGS.glob("*.ini")}


@pytest.mark.parametrize("stem, sigma", list(GOLDEN), ids=lambda v: str(v))
def test_metrics_csv_matches_golden_hash(tmp_path, stem, sigma):
    overrides = {} if sigma is None else {"hyperparams.sigma": sigma}
    assert _metrics_digest(tmp_path, stem, overrides) == GOLDEN[(stem, sigma)]


@pytest.mark.parametrize("stem, path, value", list(GOLDEN_OVERRIDES), ids=lambda v: str(v))
def test_metrics_csv_with_override_matches_golden_hash(tmp_path, stem, path, value):
    digest = _metrics_digest(tmp_path, stem, {path: value})
    assert digest == GOLDEN_OVERRIDES[(stem, path, value)]


# manifest values of the shipped configs that are common to both problem_a runs
_PROBLEM_A_MANIFEST = {
    "constants": {
        "kappa_n": 1.3333333333333333,
        "kappa_beta": 1.7777777777777777,
        "mu_f": 0.0026666666666666445,
        "l_f": 0.6000000000000004,
        "mu_phi": 1.0,
        "l_phi": 1.0,
        "mu_psi": 1.0,
        "l_psi": 1.0,
        "alpha_phi": 0.6000000000000004,
        "mu_hat": 1.0,
        "c": 3.591111111111111,
        "kappa_g_estimate": 0.0,
        "predicted_rate": 0.0,
    },
    "oracle": {
        "f_star": 81.75140676342525,
        "kkt_residual": 5.477538562093762e-15,
        "x_star_norm": 5.081608347665381,
        "lambda_star_norm": 13.645331872262195,
        "interior": True,
    },
}

# config stem -> {"constants": ..., "oracle": ...} blocks of manifest.json
GOLDEN_MANIFEST = {
    "barbell_epismd": {
        "constants": {
            "kappa_n": 1.1169270197860708,
            "kappa_beta": 1.2475259675281933,
            "mu_f": 0.002666666666666625,
            "l_f": 0.600000000000001,
            "mu_phi": 1.0,
            "l_phi": 1.0,
            "mu_psi": 0.0004363760545945212,
            "l_psi": 376.1372077560064,
            "alpha_phi": 0.600000000000001,
            "mu_hat": 0.0004363760545945212,
            "c": 5774.841281675105,
            "kappa_g_estimate": 0.0,
            "predicted_rate": 0.0,
        },
        "oracle": {
            "f_star": 72.80220394509897,
            "kkt_residual": 1.157968282693053e-14,
            "x_star_norm": 3.301289736954625,
            "lambda_star_norm": 24.99997767915695,
            "interior": True,
        },
    },
    "problem_a_eismd": _PROBLEM_A_MANIFEST,
    "problem_a_ismd": _PROBLEM_A_MANIFEST,
    "problem_b_simplex": {
        "constants": {
            "kappa_n": 1.3333333333333333,
            "kappa_beta": 1.7777777777777777,
            "mu_f": 0.0026666666666666,
            "l_f": 0.6000000000000009,
            "mu_phi": 1.0,
            "l_phi": None,
            "mu_psi": 1.0,
            "l_psi": 1.0,
            "alpha_phi": None,
            "mu_hat": 1.0,
            "c": 3.591111111111111,
            "kappa_g_estimate": None,
            "predicted_rate": None,
        },
        "oracle": {
            "f_star": 8.011873825910737e-16,
            "kkt_residual": 3.569794735777329e-08,
            "x_star_norm": 0.4140144015344825,
            "lambda_star_norm": 5.9585941307904774e-08,
            "interior": True,
        },
    },
}


def test_golden_manifest_covers_every_shipped_config():
    assert set(GOLDEN_MANIFEST) == {p.stem for p in CONFIGS.glob("*.ini")}


@pytest.mark.parametrize("stem", sorted(GOLDEN_MANIFEST))
def test_manifest_constants_and_oracle_match_golden(tmp_path, stem):
    assert __version__ == "0.1.0", "a new artifact version needs new golden values"
    cfg = load_config(CONFIGS / f"{stem}.ini")
    cfg.set("hyperparams", "epochs", 2000)
    cfg.set("hyperparams", "metrics_every", 10)
    _, manifest_path = harness.cmd_run(cfg, tmp_path)
    manifest = json.loads(manifest_path.read_text())
    assert {k: manifest[k] for k in ("constants", "oracle")} == GOLDEN_MANIFEST[stem]

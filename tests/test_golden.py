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

import numpy as np
import pytest

from dismd import __version__, harness
from dismd.config import load_config
from dismd.graphs import Topology, build_graph, metropolis_weights
from dismd.mirror_maps import EntropyMap
from dismd.objectives import DistributedProblem, GeneratorConfig, QuadraticBlock, generate_problem
from dismd.oracle import solve_simplex

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


# Golden outputs of the simplex oracle and of the entropy map's softmax,
# recorded for artifact version 0.1.0. The oracle runs ~5e4 mirror descent
# iterations, so a change in the last bit of any one of them shows here.

def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _simplex_case(seed):
    """problem_b_simplex's generator config with the given problem seed, or
    the d = 2 vertex-optimum instance (x* = (1, 0)) for seed None."""
    if seed is None:
        blocks = [QuadraticBlock(q=np.eye(2), b=np.array([2.0, -1.0]))]
        return (
            DistributedProblem(blocks=blocks, domain="simplex", d=2, n=1, m=2),
            metropolis_weights((), 1),
        )
    gen = GeneratorConfig(
        seed=seed, d=10, m=10, n=10, condition_number=15.0,
        shared_minimizer=True, domain="simplex",
    )
    return generate_problem(gen), build_graph(Topology("cyclic", 10))


# problem seed (None: vertex optimum) ->
#     (sha256 of x_star, f_star, kkt_residual, sha256 of lambda_star or None)
GOLDEN_SIMPLEX_ORACLE = {
    9: (
        "513eed31af0bc670de9f0bace92f43779af7fb21174afaf4570b66c3c9ed2257",
        8.011873825910737e-16,
        3.569794735777329e-08,
        "050505a28c77adc87ef964148b7d86c4ab4e49e48f4303be4da6b82d2759c3e9",
    ),
    10: (
        "376c0baa3699e63f6a556683ff49006a99c39eabd0fa5fe2f9b9785ae28e1c77",
        1.0908426086351801e-16,
        1.4283852659262991e-08,
        "e32bd481b5846b9ac0d6003c0abafea2a30e733038553655a9b071997778e644",
    ),
    12: (
        "c3177b411c9001258c574ec1e3bb4cc3538daef2b72e6cf4e440de530b7a73f6",
        1.5706542190904346e-16,
        1.5678317657336072e-08,
        "788a62329798892664e1acf8e60828cd25db7cf21a1e42d4e4f2d44b884487bb",
    ),
    15: (
        "907d39ed9c41ec3928737a72db748ec8c37bfdb015937734ce5ffd33bc5b209d",
        1.239521821685829e-16,
        1.4577808100241229e-08,
        "64cc315b1e0593d3605bfdf6a1b422e1414764fe1fcec2f46d3db6489f9cca65",
    ),
    20: (
        "ff8351f33496ef0d280c2a8c94505e32e2a527bbb25daf43202bc49c89565193",
        8.341096576520234e-18,
        2.3542764723827327e-09,
        "ebbc8cf47e4c4cafba6816d50e4d7b8199369b7c3d7b09ec0d982ccef5e51c4d",
    ),
    None: (
        "529bb591c8191528fd5cc1bf7f6e2d1becdb752345bd2d7ce30c14b7351369ab",
        1.0000000000623799,
        0.0,
        None,
    ),
}


@pytest.mark.parametrize("seed", list(GOLDEN_SIMPLEX_ORACLE), ids=str)
def test_simplex_oracle_matches_golden(seed):
    assert __version__ == "0.1.0", "a new artifact version needs new golden values"
    opt = solve_simplex(*_simplex_case(seed))
    lam = None if opt.lambda_star is None else _sha(opt.lambda_star)
    got = (_sha(opt.x_star), opt.f_star, opt.kkt_residual, lam)
    assert got == GOLDEN_SIMPLEX_ORACLE[seed]


def _softmax_inputs() -> dict[str, np.ndarray]:
    # the extreme rows hold shifts of +-700 and -1e3, so entries underflow to
    # subnormals and to 0, and one row is constant
    rng = np.random.default_rng(20260)
    extremes = np.array([
        [700.0, -700.0, 0.0, 1.0, -1e3],
        [-1e3, -1e3, -1e3, -1e3, -1e3],
        [700.0, 699.0, -700.0, -1e3, 0.5],
        [-700.0, -1e3, -699.5, 3.0, -717.0],
    ])
    return {
        "vector": 4.0 * rng.standard_normal(13),
        "rows_10x10": 6.0 * rng.standard_normal((10, 10)),
        "extremes": extremes,
        "broadcast": np.broadcast_to(rng.standard_normal(7), (5, 7)),
    }


# input name -> sha256 of EntropyMap.backward(input)
GOLDEN_SOFTMAX = {
    "vector": "f78364b7e962a3bcc7929e0ccf195450cf382631472e56eeb2abf7971278ccf1",
    "rows_10x10": "1f7d52f723497372c2ca33cc25ca1c4c41ae0086e610f49938ef23abec14bf0b",
    "extremes": "a561fd9c97a03e02c55af39cb622ce3666263cee2cfe445b1a4e2a009ca06ef9",
    "broadcast": "24d0422645b6c115337dae6adbe41138a78638829dd4d24ad03fcee51135015b",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SOFTMAX))
def test_entropy_backward_matches_golden(name):
    z = _softmax_inputs()[name]
    out = EntropyMap(z.shape[-1]).backward(z)
    assert out.shape == z.shape and out.dtype == np.float64
    assert _sha(out) == GOLDEN_SOFTMAX[name]

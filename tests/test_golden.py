"""Golden hashes of metrics.csv and golden manifest values for the shipped
configs.

Each case runs a shipped config, cut to a short horizon, through
``harness.cmd_run`` and compares the SHA-256 of the metrics file with a
hash recorded for artifact version 0.7.0, whose x*-centred V1 changed V1,
bregman_to_opt and V of every euclidean case in their last bits; the two
simplex hashes are those of 0.6.0, since the entropy map keeps its KL form
of V1 and every other column kept its bits. A change that
alters any diagnostic in any digit fails here; such a change must bump
``artifact_version`` and record new hashes. The manifest's ``constants``
and ``oracle`` blocks are compared, as parsed JSON, with values recorded
for version 0.1.0; 0.3.0 changed the barbell's dual-map constants, and
0.4.0 the problem_b_simplex oracle block and the two constants every
manifest dropped; 0.5.0 dropped l_psi.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dismd import __version__, harness
from dismd.config import load_config
from dismd.dynamics import DivergenceError
from dismd.graphs import Topology, build_graph, metropolis_weights
from dismd.mirror_maps import EntropyMap
from dismd.objectives import (
    DistributedProblem,
    GeneratorConfig,
    generate_problem,
    load_problem_bundle,
    save_problem_bundle,
)
from dismd.oracle import solve_simplex
from test_kernel_reference import ref_solve_simplex, shipped_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (config stem, sigma override or None) -> sha256 of metrics.csv
GOLDEN = {
    ("barbell_epismd", None):
        "76f43f2c0082f876bf12ed258ea62848cf50ee75871968c03bb1c21a4aa8880e",
    ("problem_a_eismd", None):
        "ec694f5c77d0d467dd45ad776cde374360f677b435998a7d86021a4c449eae42",
    ("problem_a_ismd", None):
        "48ab7475844093b5dff5c14615a26c6389e17318ea27dc128ce3d81e3df1a444",
    ("problem_b_simplex", None):
        "7a5769d4440da1cce637927f0b18a10dc007073d52c3bbc01c0894574a2b9119",
    ("problem_a_eismd", 0.1):
        "620e6321979c3a20b82db31ce0eecbf73f3a30ae18cb584073c9f7edc6e4df5c",
}


# (config stem, parameter path, value) -> sha256 of metrics.csv, for paths
# of the step kernel that no shipped config takes: the exact dynamics coupled
# on z, and noise on the plain and the preconditioned dynamics. Under the
# euclidean map x = z, so the z-coupled problem_a and barbell runs repeat the
# bytes of their x-coupled runs; the entropy map is where L z and L x differ.
GOLDEN_OVERRIDES = {
    ("problem_a_eismd", "algorithm.interaction_on", "z"):
        "ec694f5c77d0d467dd45ad776cde374360f677b435998a7d86021a4c449eae42",
    ("barbell_epismd", "algorithm.interaction_on", "z"):
        "76f43f2c0082f876bf12ed258ea62848cf50ee75871968c03bb1c21a4aa8880e",
    ("problem_b_simplex", "algorithm.interaction_on", "z"):
        "7711d1e68760fef683fea3d75fad728df9ea91c64bad453af982a57e4d23a84c",
    ("problem_a_ismd", "hyperparams.sigma", 0.1):
        "2864fd1dd4a064c476da684f5987eaceea276ecf7f1de21ba556d9527d410977",
    ("barbell_epismd", "hyperparams.sigma", 0.1):
        "d417e60bf5d79fd69077b079f6d023fa48d5af9928b180b0c5585c82e24b1740",
}


def _metrics_digest(out_dir, stem: str, overrides: dict) -> str:
    """SHA-256 of metrics.csv of a shipped config cut to 2,000 epochs."""
    assert __version__ == "0.7.0", "a new artifact version needs new golden hashes"
    metrics_path, _ = harness.cmd_run(shipped_config(stem, overrides), out_dir)
    return hashlib.sha256(metrics_path.read_bytes()).hexdigest()


def test_pyproject_version_is_the_artifact_version():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = tomllib.loads((CONFIGS.parent / "pyproject.toml").read_text())
    assert pyproject["project"]["version"] == __version__


def test_readme_contract_names_the_artifact_version():
    readme = (CONFIGS.parent / "README.md").read_text()
    assert re.findall(r"\bnow\s+(\d+\.\d+\.\d+)", readme) == [__version__]


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


# (parameter path, values) -> {file under the sweep directory: sha256}, for
# sweeps of problem_a_eismd cut to 2,000 epochs. The sigma sweep mixes a
# noise-free value with noisy ones; under eta = 1e5 the run diverges at step
# 54, inside its first block of snapshots, while its neighbours complete.
GOLDEN_SWEEPS = {
    ("hyperparams.sigma", ("0", "0.05", "0.1")): {
        "sigma_0/metrics.csv":
            "ec694f5c77d0d467dd45ad776cde374360f677b435998a7d86021a4c449eae42",
        "sigma_0.05/metrics.csv":
            "474f884a62d6900ccaecb1eb1dd75ecf41b32400b299393dbfeb5e15c723d02f",
        "sigma_0.1/metrics.csv":
            "792fbb180d5ccc1aa543e9c7ec923fe23e105b807ba1afe36e26db24acf8502c",
        "summary.csv":
            "81ed5ef9541f7879168c5843ecb8cac5b331cd35911231f73d33bd3d150c966d",
    },
    ("hyperparams.eta", ("1", "1e5", "3")): {
        "eta_1/metrics.csv":
            "ec694f5c77d0d467dd45ad776cde374360f677b435998a7d86021a4c449eae42",
        "eta_1e5/metrics.csv":
            "e0af552a8a721a1dd8c00b2e734291bf72d06099e7b870f44259cb3f801ca78d",
        "eta_3/metrics.csv":
            "dc6aa90669c43c03403a3c939e0709f4574a573478d9295a95f7eb70a87ee3f0",
        "summary.csv":
            "cc5d1261c6e0cb38bbfd1a5fe1af8adfedcdf46800d59a7f0647da71ef7cff8a",
    },
}


@pytest.mark.parametrize("param, values", list(GOLDEN_SWEEPS), ids=lambda v: str(v))
def test_sweep_csv_files_match_golden_hashes(tmp_path, param, values):
    assert __version__ == "0.7.0", "a new artifact version needs new golden hashes"
    cfg = shipped_config("problem_a_eismd", {})
    diverged = None
    try:
        harness.cmd_sweep(cfg, param, list(values), tmp_path)
    except DivergenceError as exc:
        diverged = (exc.run, exc.step, exc.array, exc.particle, exc.coordinate)
    assert diverged == (None if "1e5" not in values else ("eta_1e5", 54, "z", 0, 9))
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.rglob("*.csv")}
    assert got == GOLDEN_SWEEPS[(param, values)]


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
        "alpha_phi": 0.6000000000000004,
        "mu_hat": 1.0,
        "c": 3.591111111111111,
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
            "mu_psi": 0.0004363760545945213,
            "alpha_phi": 0.600000000000001,
            "mu_hat": 0.0004363760545945213,
            "c": 5774.841281675103,
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
            "alpha_phi": None,
            "mu_hat": 1.0,
            "c": 3.591111111111111,
        },
        "oracle": {
            "f_star": 1.599405825593224e-32,
            "kkt_residual": 9.495442626628047e-17,
            "x_star_norm": 0.4140144102032607,
            "lambda_star_norm": 3.4372915488639444e-16,
            "interior": True,
        },
    },
}


def test_golden_manifest_covers_every_shipped_config():
    assert set(GOLDEN_MANIFEST) == {p.stem for p in CONFIGS.glob("*.ini")}


@pytest.mark.parametrize("stem", sorted(GOLDEN_MANIFEST))
def test_manifest_constants_and_oracle_match_golden(tmp_path, stem):
    assert __version__ == "0.7.0", "a new artifact version needs new golden values"
    _, manifest_path = harness.cmd_run(shipped_config(stem, {}), tmp_path)
    manifest = json.loads(manifest_path.read_text())
    assert {k: manifest[k] for k in ("constants", "oracle")} == GOLDEN_MANIFEST[stem]


# Golden outputs of the simplex oracle and of the entropy map's softmax.
# The exact active-set oracle's values were recorded for artifact version
# 0.4.0; on the problem_b_simplex instances its x* lies within 4e-16 of the
# shared minimizer. The mirror descent reference of versions 0.1.0 to 0.3.0
# (tests/test_kernel_reference.py) still matches its recorded values: it runs
# ~5e4 iterations, so a change in the last bit of any one of them shows.
# The softmax values are those of version 0.1.0.

def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _simplex_case(seed):
    """problem_b_simplex's generator config with the given problem seed, or
    the d = 2 vertex-optimum instance (x* = (1, 0)) for seed None."""
    if seed is None:
        return (
            DistributedProblem(q=np.eye(2)[None], b=np.array([[2.0, -1.0]]), domain="simplex"),
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
        "30c6bdf695afed780fd290e3bca2c1c9c2945ec9f54ce1f68d6c65eca9a1bb81",
        1.599405825593224e-32,
        9.495442626628047e-17,
        "1a99655c6ea426a3e3a7f5d15222cab44c4340bc96caa25521c9c7bfb3688afb",
    ),
    10: (
        "81f8a10b5600af0e4dce24118932502a257091ad62e2337b14d2b983cf839311",
        3.1646588383176575e-32,
        8.308097099822346e-17,
        "009a75e72a500af077472c43723728b83cf3d4ca908ff1ea0823617ace6236c9",
    ),
    12: (
        "d7cd5159810f871720e0dc138d64fbb493076a147cc823e7bf2992811d4a2b6e",
        8.352037825869258e-32,
        2.220446049250313e-16,
        "afec42e860c06eca0c0a4f9ecd388092c827a6d11f36283b095493c8da38e673",
    ),
    15: (
        "211b0200289786431d8d89568cbedbde1ad4ac269bfd74439feaa4a0e9d870eb",
        2.6196973062877434e-32,
        2.220446049250313e-16,
        "6bd7695e310ea1458ac1363c92f10f3a47c519e3cdb103be00786510f3238df3",
    ),
    20: (
        "fcba928e0ec62dbec43b38e3558373a62dcbf0675c4f0ca6a2debb526cc5913e",
        4.972543876753793e-32,
        1.3877787807814457e-16,
        "9ffcfc307bcaca8e8b73f868bb62804d5bee6f424c9a037be444e04ea4a023d0",
    ),
    None: (
        "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65",
        1.0,
        0.0,
        None,
    ),
}

# the same cases for the mirror descent reference
GOLDEN_REFERENCE_SIMPLEX_ORACLE = {
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


def _oracle_digest(opt) -> tuple:
    lam = None if opt.lambda_star is None else _sha(opt.lambda_star)
    return (_sha(opt.x_star), opt.f_star, opt.kkt_residual, lam)


@pytest.mark.parametrize("seed", list(GOLDEN_SIMPLEX_ORACLE), ids=str)
def test_exact_simplex_oracle_matches_golden(seed):
    assert __version__ == "0.7.0", "a new artifact version needs new golden values"
    assert _oracle_digest(solve_simplex(*_simplex_case(seed))) == GOLDEN_SIMPLEX_ORACLE[seed]


@pytest.mark.parametrize("seed", list(GOLDEN_REFERENCE_SIMPLEX_ORACLE), ids=str)
def test_simplex_oracle_matches_golden(seed):
    got = _oracle_digest(ref_solve_simplex(*_simplex_case(seed)))
    assert got == GOLDEN_REFERENCE_SIMPLEX_ORACLE[seed]


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


# The problem's identity, recorded for artifact version 0.3.0: the hash of
# the arrays it is built from and the bytes of its bundle. A change to how
# the problem is generated, stored or written shows here before any run does.

# config stem -> content_hash() of the problem it builds
GOLDEN_PROBLEM_HASH = {
    "barbell_epismd":
        "ee7f4934a5af5d6d7a23c4c45226d5682ec8da0db19bfcc1303894650a5009ca",
    "problem_a_eismd":
        "13bb540e8b68fe5b15d5994725248b5dd1b3a859e9e3b71a70b718ad610564d5",
    "problem_a_ismd":
        "13bb540e8b68fe5b15d5994725248b5dd1b3a859e9e3b71a70b718ad610564d5",
    "problem_b_simplex":
        "5e263e3c1e1a67452cf289025cc716031cbc98863d2c0c18770fbe1ec20fcb52",
}

# config stem -> {file name: sha256} of every file save_problem_bundle writes;
# problem_b_simplex's bundle carries a minimizer
GOLDEN_BUNDLE_FILES = {
    "problem_a_eismd": {
        "b_000.csv": "21a00d1941c3e8f4b071a500e884157876c1c126b7475d5b0b87f49c454b51b4",
        "b_001.csv": "6d3ed6f647748dbc53cb0534e609fffaa20db96245f169b5ac6d9ea7f3cc580e",
        "b_002.csv": "2b9335605a36b818a12f5902c33d5ff21f5400995e122a9a95c24f53b11c0758",
        "b_003.csv": "af5f2cb8c3a4e5db8ebd784cf089fd910b7eb8efab0af4cfb7d49aa837e4b2d6",
        "b_004.csv": "6d2b239c89fd90320b11b7f7dc1d9262d39ed590a5c62f42e2ab4cea736b47b5",
        "b_005.csv": "60067baa0a64bd92241120dcf786d51ba1743f8d66958e6a94593a3f11c1ce42",
        "b_006.csv": "12b05c89c204b0d50be880fd3919cce4c8c20a3bf1cfa14d88214b4fcd5a0492",
        "b_007.csv": "9cbd9fc04f6d64ac0373aab8c7522cb0d1f77bcbfc640ca18c8fd99363656f20",
        "b_008.csv": "938ca0454c3e6f82bae4ef395673781f7ec7bf024a015212811aa4cba96b3fe6",
        "b_009.csv": "966f0212507177e70caf37694995d5dcb93fdcebaa69ed39acb54c73904bbe7c",
        "manifest.json": "779f36c3269dcf2e5f0743e298ade9e2538f93cf3ed5608f3af58b1a21dad20d",
        "q_000.csv": "decd023f8968c7ef03eff04c454fbcb6d6fabc178b3ef9bd799c365cb1e13252",
        "q_001.csv": "677c50cdf8ef754b22d3a94ceb824b4745e09447e9b7f85117e400bc54891a9f",
        "q_002.csv": "e74aa04274390b70ba2c51ff0fbe9d8c116cbfcf3fb303d6cf3100865053ae79",
        "q_003.csv": "468e96d42ad5d4b706bd420568a50354f61190017fba062698eeab5ed86b521d",
        "q_004.csv": "9376fb0381c2673e5a3933a4b6b6e7642b5e5a105abc83521c7afc791edf8b62",
        "q_005.csv": "d802a976e17ecb901b5bfac3d8f2303af325a985f01f701636f2b8ccae92ec54",
        "q_006.csv": "9f13183ce3e6bc3338da3dd88e022937a2b42fb374ee02bc1e68b22052d0eacd",
        "q_007.csv": "56e25556b3b20ce2d25a158ae9fc485283f3624064720843a6b0cad013354015",
        "q_008.csv": "fa4b46ae88fda678a16cab0b9bee4a5c2848a18ce0dab8f430db1c8d87d0d5e4",
        "q_009.csv": "0d87b4ca238513b01504c065f34f540f7a0e3cf8a8e154997e5af2fb3771ef9f",
    },
    "problem_b_simplex": {
        "b_000.csv": "1064b04dda986dc56575b46ee7216453bda46674272afbaedeea74b64b5c3e43",
        "b_001.csv": "8ec5558f15fa3cd3ecf5ad4cfbf573bb5d485871f67a6a5632e28f2071e05c82",
        "b_002.csv": "fc3489fab87ab553e446b3b575203dca0af645b104a59647f28782cf7f827870",
        "b_003.csv": "0cc30a7e6f61597a41b423323901b9ae1e95f1fc736a5a5148269828ca4fc16f",
        "b_004.csv": "64036b81b31a60ce683c3b30ddb945d138c7092bfdfd9174a24bbf64af5ff847",
        "b_005.csv": "4bbab34c686375b82734616549f615db117c0e8594dfc7577668495ff2a149e1",
        "b_006.csv": "1060c2965005a04471fbc0bd5bf9119d33ba0caca54b4788a3e4a60e2471a9c7",
        "b_007.csv": "a3a746a3e353230ea6369b88e9fbf3116eb7ff0575adfececd8010e3ca3247dd",
        "b_008.csv": "610b0affac57f0afa8b80d1ac15e127ff47dc77a37a9089c33dbfb2be96dc5fe",
        "b_009.csv": "7f15fa7a8313efceb4fc20341a3ab14f0cfe933624cb25aa7f78b1b6296053ba",
        "manifest.json": "20a5561e563c776b79b4d5257a6cbad6a65dee11b2f362142b565b84d52582e1",
        "minimizer.csv": "49598dc8f75fcd814b82a14bb576ed072c3e8857add722a69b6977db630ce88e",
        "q_000.csv": "2adfa21fb8879e428d82c842d33af324dd05d1272968a015bce06eed342d8f09",
        "q_001.csv": "a1d4a19301c4729ccc82026afa6365f85de32d59f6ed76958f54f73bb864db1f",
        "q_002.csv": "b96a08b0dbb4aaf16a57a4ab2910e4ac1d6f2e34fc2ded22cca230c7febe67c7",
        "q_003.csv": "8f71258591f3ce5bee9619ec77877997e9cfb8f3d255231034298c3a06d9cd0b",
        "q_004.csv": "36731fcbd65a5b6a93f306349c583f2b843e07942a0e377ab16e869e214a17bc",
        "q_005.csv": "812cc1ba8305ef6c3919dfebcb3d6aade4ae033ed07168bc2ff69ef6f5e6bc43",
        "q_006.csv": "81a9be294b1a8e5ac13dfa395885f77dc51f447d3a8ceed05625a0d47ca59bcf",
        "q_007.csv": "88e150289001ad3e1ad2d4eaa6ea6e506e03db20bb95ac0610743261b9c65a21",
        "q_008.csv": "ffe562421774e6c3ed18913909c1bbf4a1c45c11b66d7866e649528ab200b6be",
        "q_009.csv": "67a1d1ba8fd633b1aa5a7179f397fb4d8e999a16ccad99964f9850d6544e039a",
    },
}


def test_golden_problem_hashes_cover_every_shipped_config():
    assert set(GOLDEN_PROBLEM_HASH) == {p.stem for p in CONFIGS.glob("*.ini")}


@pytest.mark.parametrize("stem", sorted(GOLDEN_PROBLEM_HASH))
def test_problem_content_hash_matches_golden(stem):
    problem = harness.build_problem(load_config(CONFIGS / f"{stem}.ini"))
    assert problem.content_hash() == GOLDEN_PROBLEM_HASH[stem]


@pytest.mark.parametrize("stem", sorted(GOLDEN_BUNDLE_FILES))
def test_problem_bundle_files_match_golden(tmp_path, stem):
    problem = harness.build_problem(load_config(CONFIGS / f"{stem}.ini"))
    save_problem_bundle(problem, tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == GOLDEN_BUNDLE_FILES[stem]
    assert load_problem_bundle(tmp_path).content_hash() == GOLDEN_PROBLEM_HASH[stem]

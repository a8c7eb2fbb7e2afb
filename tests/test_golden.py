"""Golden hashes of metrics.csv for the shipped configs.

Each case runs a shipped config, cut to a short horizon, through
``harness.cmd_run`` and compares the SHA-256 of the metrics file with a
hash recorded for artifact version 0.1.0. A change that alters any
diagnostic in any digit fails here; such a change must bump
``artifact_version`` and record new hashes.
"""

import hashlib
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


def test_golden_cases_cover_every_shipped_config():
    assert {stem for stem, _ in GOLDEN} == {p.stem for p in CONFIGS.glob("*.ini")}


@pytest.mark.parametrize("stem, sigma", list(GOLDEN), ids=lambda v: str(v))
def test_metrics_csv_matches_golden_hash(tmp_path, stem, sigma):
    assert __version__ == "0.1.0", "a new artifact version needs new golden hashes"
    cfg = load_config(CONFIGS / f"{stem}.ini")
    cfg.set("hyperparams", "epochs", 2000)
    cfg.set("hyperparams", "metrics_every", 10)
    if sigma is not None:
        cfg.set("hyperparams", "sigma", sigma)
    metrics_path, _ = harness.cmd_run(cfg, tmp_path)
    digest = hashlib.sha256(metrics_path.read_bytes()).hexdigest()
    assert digest == GOLDEN[(stem, sigma)]

"""Output checks for one command of a workload.

A command's outputs pass when the exit code is 0, every CSV has the exact
header, the expected step sequence and only finite numbers, every manifest's
oracle certificate is within the oracle's tolerance, and every run ends
with ``kkt_consensus`` inside its workload's stated range. These checks hold
for any artifact version and seed.

The final rows are also compared, to a relative tolerance, against a
reference stored per artifact version and seed in ``references.json``; an
unknown version or seed skips that comparison and says so in the status.
Byte identity of each CSV against the stored SHA-256 is counted, not
required, so a versioned rounding change still passes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

REFERENCES = Path(__file__).with_name("references.json")

# The metrics.csv column contract of the README.
CSV_COLUMNS = (
    "step", "t", "loss_mean", "loss_best", "loss_worst", "consensus_spread",
    "kkt_primal", "kkt_consensus", "V", "V1", "V2", "V3", "bregman_to_opt",
)
KKT_COLUMN = CSV_COLUMNS.index("kkt_consensus")
# The oracle's documented certificate tolerances.
KKT_TOL_UNCONSTRAINED = 1e-8  # times (1 + ||x*||)
KKT_TOL_SIMPLEX = 1e-6
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12
# rate_fit needs at least this many records.
MIN_RATE_RECORDS = 10


@dataclass
class Outcome:
    """What one command produced; ``problems`` is empty when it passed."""

    problems: list[str] = field(default_factory=list)
    final_rows: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    sha256: dict[str, str] = field(default_factory=dict)
    csv_bytes: int = 0
    artifact_version: str | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def expected_steps(epochs: int, metrics_every: int) -> list[int]:
    steps = list(range(0, epochs + 1, metrics_every))
    if steps[-1] != epochs:
        steps.append(epochs)
    return steps


def _floats(fields: list[str], where: str, problems: list[str]) -> list[float] | None:
    try:
        values = [float(v) for v in fields]
    except ValueError:
        problems.append(f"{where}: non-numeric field")
        return None
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{where}: non-finite value")
        return None
    return values


def _read_rows(rel: str, text: str, header: str, n_fields: int, out: Outcome) -> list[list[str]]:
    lines = text.split("\n")
    if lines[-1] != "":
        out.problems.append(f"{rel}: no trailing newline")
    lines = lines[:-1]
    if not lines or lines[0] != header:
        out.problems.append(f"{rel}: header differs from the column contract")
        return []
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != n_fields:
            out.problems.append(f"{rel} row {i + 1}: {len(row)} fields, expected {n_fields}")
            return []
    return rows


def _check_records(rows, name, steps, out: Outcome) -> list[float] | None:
    """Rows of one run's records: exact step sequence, all finite."""
    if len(rows) != len(steps):
        out.problems.append(f"{name}: {len(rows)} records, expected {len(steps)}")
        return None
    last = None
    for i, (row, step) in enumerate(zip(rows, steps)):
        values = _floats(row, f"{name} record {i}", out.problems)
        if values is None:
            return None
        if values[0] != step:
            out.problems.append(f"{name} record {i}: step {values[0]:g}, expected {step}")
            return None
        last = values
    return last


def check_outputs(workload: Workload, out_dir: Path, epochs: int, returncode: int,
                  stderr: str = "") -> Outcome:
    """Version-independent checks of one command's output directory."""
    out = Outcome()
    if returncode != 0:
        out.problems.append(f"exit code {returncode}: {stderr.strip()[-300:]}")
        return out
    steps = expected_steps(epochs, workload.metrics_every)
    header = ",".join(CSV_COLUMNS)
    for rel, labels in workload.csv_files().items():
        path = out_dir / rel
        if not path.is_file():
            out.problems.append(f"{rel}: missing")
            continue
        data = path.read_bytes()
        out.sha256[rel] = hashlib.sha256(data).hexdigest()
        out.csv_bytes += len(data)
        text = data.decode()
        finals = out.final_rows.setdefault(rel, {})
        if rel == "summary.csv":
            _check_summary(workload, text, epochs, out, finals)
            continue
        if workload.command == "compare":
            rows = _read_rows(rel, text, "run," + header, len(CSV_COLUMNS) + 1, out)
            for k, label in enumerate(labels):
                block = rows[k * len(steps):(k + 1) * len(steps)]
                if any(r[0] != label for r in block):
                    out.problems.append(f"{rel}: records of {label} out of place")
                    break
                last = _check_records([r[1:] for r in block], f"{rel}[{label}]", steps, out)
                if last is not None:
                    finals[label] = last
            if len(rows) != len(labels) * len(steps) and rows:
                out.problems.append(f"{rel}: {len(rows)} rows, expected {len(labels) * len(steps)}")
        else:
            rows = _read_rows(rel, text, header, len(CSV_COLUMNS), out)
            last = _check_records(rows, rel, steps, out)
            if last is not None:
                finals[labels[0]] = last
    if epochs == workload.epochs:
        for key, value in final_kkt(workload, out).items():
            low, high = workload.kkt_ranges[key]
            if not low <= value < high:
                out.problems.append(
                    f"{key}: final kkt_consensus {value:g} outside [{low:g}, {high:g})")
    _check_manifests(workload, out_dir, len(steps), out)
    return out


def final_kkt(workload: Workload, out: Outcome) -> dict[str, float]:
    """Final kkt_consensus of each run, keyed as ``Workload.kkt_ranges``."""
    if workload.command == "sweep":
        # summary.csv rows start with the run seed
        return {value: row[1 + KKT_COLUMN]
                for value, row in out.final_rows.get("summary.csv", {}).items()}
    return {label: row[KKT_COLUMN]
            for finals in out.final_rows.values() for label, row in finals.items()}


def _check_summary(workload, text, epochs, out: Outcome, finals) -> None:
    header = "value,seed," + ",".join(CSV_COLUMNS) + ",rate_r,rate_r_squared"
    rows = _read_rows("summary.csv", text, header, len(CSV_COLUMNS) + 4, out)
    if len(rows) != len(workload.sweep_values):
        out.problems.append(f"summary.csv: {len(rows)} rows, expected {len(workload.sweep_values)}")
        return
    key = workload.sweep_param.split(".", 1)[1]
    fit = len(expected_steps(epochs, workload.metrics_every)) >= MIN_RATE_RECORDS
    for row, value in zip(rows, workload.sweep_values):
        if row[0] != value:
            out.problems.append(f"summary.csv: row for {row[0]}, expected {value}")
            return
        checked = row[1:] if fit else row[1:-2]
        values = _floats(checked, f"summary.csv[{value}]", out.problems)
        if values is None:
            return
        run_final = out.final_rows.get(f"{key}_{value}/metrics.csv", {}).get(workload.runs[0].label)
        if run_final is not None and values[1:1 + len(CSV_COLUMNS)] != run_final:
            out.problems.append(f"summary.csv[{value}]: differs from that run's final record")
        finals[value] = values


def _check_manifests(workload, out_dir, n_records, out: Outcome) -> None:
    simplex = workload.runs[0].sections["problem"]["domain"] == "simplex"
    for rel in workload.manifests():
        path = out_dir / rel
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            out.problems.append(f"{rel}: unreadable ({exc})")
            continue
        per_run = data.values() if workload.command == "compare" else [data]
        for manifest in per_run:
            try:
                out.artifact_version = manifest["artifact_version"]
                residual, x_norm = manifest["oracle"]["kkt_residual"], manifest["oracle"]["x_star_norm"]
                records = manifest["records"]
            except (KeyError, TypeError) as exc:
                out.problems.append(f"{rel}: manifest lacks {exc}")
                continue
            tol = KKT_TOL_SIMPLEX if simplex else KKT_TOL_UNCONSTRAINED * (1 + x_norm)
            if not residual <= tol:
                out.problems.append(f"{rel}: oracle kkt_residual {residual:g} above {tol:g}")
            if records != n_records:
                out.problems.append(f"{rel}: manifest counts {records} records, expected {n_records}")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


def compare_reference(references: dict, workload: str, seed: int, out: Outcome) -> tuple[str, int]:
    """Check final rows against the stored reference.

    Returns (status, number of byte-identical CSVs); a mismatch is added to
    ``out.problems``.
    """
    by_seed = references.get(out.artifact_version, {}).get(workload)
    if by_seed is None:
        return "unknown-version", 0
    ref = by_seed.get(str(seed))
    if ref is None:
        return "unknown-seed", 0
    identical = 0
    for rel, entry in ref.items():
        identical += out.sha256.get(rel) == entry["sha256"]
        actual = out.final_rows.get(rel, {})
        for key, expected in entry["final"].items():
            got = actual.get(key)
            if got is None or len(got) != len(expected) or not all(
                math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL)
                for a, b in zip(got, expected)
            ):
                out.problems.append(f"{rel}[{key}]: final row differs from the stored reference")
    return "checked", identical

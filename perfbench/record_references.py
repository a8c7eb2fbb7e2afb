"""Store reference outputs for the benchmark's output check.

    python3 perfbench/record_references.py

Runs every workload's command once per seed in SEEDS at its full horizon,
two commands at a time, applies the version-independent checks, and stores
each CSV's SHA-256 and final rows in references.json under the artifact
version the outputs report. Entries of other versions are kept. Prints, per
final row with a stated kkt_consensus range, the smallest and largest value
seen, to show the margins inside that range.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import check
from run import WORK, Inputs, run_child
from workloads import WORKLOADS

SEEDS = range(32)


def dump(references: dict) -> str:
    """JSON with one line per (version, workload, seed) entry."""
    versions = []
    for version, by_workload in sorted(references.items()):
        workloads = []
        for name, by_seed in sorted(by_workload.items()):
            seeds = ",\n".join(
                f"   {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}"
                for seed, entry in sorted(by_seed.items(), key=lambda item: int(item[0]))
            )
            workloads.append(f"  {json.dumps(name)}: {{\n{seeds}\n  }}")
        versions.append(f" {json.dumps(version)}: {{\n" + ",\n".join(workloads) + "\n }")
    return "{\n" + ",\n".join(versions) + "\n}\n"


def record(name: str, seed: int) -> check.Outcome:
    workload = WORKLOADS[name]
    work = WORK / f"reference-{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = Inputs(workload, seed, workload.epochs, work / "full")
        child = run_child(inputs.argv(work / "out"), work / "stderr.txt")
        return check.check_outputs(workload, work / "out", workload.epochs, child.code,
                                   child.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    jobs = [(name, seed) for seed in SEEDS for name in WORKLOADS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(lambda job: record(*job), jobs))
    references = check.load_references()
    seen: dict[tuple[str, str], list[float]] = {}
    for (name, seed), outcome in zip(jobs, outcomes):
        if not outcome.ok:
            print(f"{name} seed {seed}: {outcome.problems}", file=sys.stderr)
            return 1
        entry = references.setdefault(outcome.artifact_version, {}).setdefault(name, {})
        entry[str(seed)] = {
            rel: {"sha256": outcome.sha256[rel], "final": finals}
            for rel, finals in outcome.final_rows.items()
        }
        for key, value in check.final_kkt(WORKLOADS[name], outcome).items():
            seen.setdefault((name, key), []).append(value)
    check.REFERENCES.write_text(dump(references))
    for (name, key), values in sorted(seen.items()):
        low, high = WORKLOADS[name].kkt_ranges[key]
        print(f"{name} {key}: final kkt_consensus {min(values):.3g} to {max(values):.3g}, "
              f"range [{low:g}, {high:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

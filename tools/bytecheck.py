"""Check that the working tree writes the bytes a git revision writes.

    python3 tools/bytecheck.py --against <rev> [--keep DIR]

Run from anywhere inside a dismd checkout. The revision's files are taken
with ``git archive`` into a temporary directory; nothing is added to the
repository. Each side then runs the same list of ``python -m dismd``
commands with its own ``src/`` and its own ``configs/``, in a work
directory of its own, with every path relative to it:

- the four benchmark workload commands (``perfbench/workloads.py``) at
  their full horizons, their inputs written once from the working tree's
  ``perfbench/``;
- ``run`` on each shipped config, and ``compare`` of the three desk
  configs;
- three ``problem_a_eismd`` sweeps: ``epsilon`` over ``0.5,1,2``, ``dt``
  over ``0.005,0.01,2`` and ``eta`` over ``1,1e5``, the last two ending in a
  divergence (exit 2); each is a batched parameter, so its values share one
  set-up;
- two ``barbell_epismd`` sweeps: ``graph.beta`` over ``0.5,1``, which
  prepares each value, and ``hyperparams.sigma`` over ``0.05,0.1``, the
  preconditioned dynamics' noise in a batch of replicas;

each at seeds 0 and 5, and then ``graph-info --out``, ``problem-gen`` and
``oracle`` on each shipped config, so every subcommand is on the list: 40
commands. Every output file is compared byte for byte, and so are each
command's exit code, stdout and stderr, except that a ``manifest.json`` is
compared as JSON without the keys in ``VOLATILE``, which hold timings. Each
difference is printed; the exit status is 1 if there is any, 0 if none.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Manifest keys whose values are measured, not computed; dropped at any depth.
VOLATILE = ("timings", "wall_clock_seconds", "steps_per_second", "record_share")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEEDS = (0, 5)
SHIPPED = ("problem_a_eismd", "problem_a_ismd", "barbell_epismd", "problem_b_simplex")
DESK = SHIPPED[:3]
SWEEPS = {  # name -> (config stem, parameter, values)
    "sweep-epsilon": ("problem_a_eismd", "hyperparams.epsilon", "0.5,1,2"),
    "sweep-dt": ("problem_a_eismd", "hyperparams.dt", "0.005,0.01,2"),
    "sweep-eta": ("problem_a_eismd", "hyperparams.eta", "1,1e5"),
    "sweep-beta": ("barbell_epismd", "graph.beta", "0.5,1"),
    "sweep-sigma": ("barbell_epismd", "hyperparams.sigma", "0.05,0.1"),
}


def commands(inputs: Path) -> dict[str, list[str]]:
    """Name -> arguments after ``python -m dismd``, paths relative to a work
    directory that holds ``configs/``; workload configs come from ``inputs``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run as perfbench
    finally:
        sys.path.pop(0)
    cmds = {}
    for seed in SEEDS:
        for name, workload in perfbench.WORKLOADS.items():
            made = perfbench.Inputs(workload, seed, workload.epochs, inputs / f"{name}-{seed}")
            cmds[f"{name}-{seed}"] = made.argv(Path("out"))
        seeded = {f"run-{stem}-{seed}": ["run", "--config", f"configs/{stem}.ini"]
                  for stem in SHIPPED}
        desk = [arg for stem in DESK for arg in ("--config", f"configs/{stem}.ini")]
        seeded[f"compare-desk-{seed}"] = ["compare", *desk]
        for name, (stem, param, values) in SWEEPS.items():
            seeded[f"{name}-{seed}"] = ["sweep", "--config", f"configs/{stem}.ini",
                                        "--param", param, "--values", values]
        cmds.update({name: [*argv, "--seed", str(seed), "--out", "out"]
                     for name, argv in seeded.items()})
    for stem in SHIPPED:
        cmds[f"graph-info-{stem}"] = ["graph-info", "--config", f"configs/{stem}.ini",
                                      "--out", "out"]
        cmds[f"problem-gen-{stem}"] = ["problem-gen", "--config", f"configs/{stem}.ini",
                                       "--out", "out"]
        cmds[f"oracle-{stem}"] = ["oracle", "--config", f"configs/{stem}.ini"]
    return cmds


def run_side(tree: Path, work: Path, cmds: dict[str, list[str]]) -> None:
    """Run every command with ``tree``'s sources and configs; command ``name``
    runs in ``work/name``, which then holds its outputs under ``out/`` and its
    ``exit``, ``stdout`` and ``stderr``."""
    env = dict(os.environ, **BLAS_PIN, PYTHONPATH=str(tree / "src"))
    for name, argv in cmds.items():
        where = work / name
        shutil.copytree(tree / "configs", where / "configs")
        proc = subprocess.run([sys.executable, "-m", "dismd", *argv], cwd=where, env=env,
                              capture_output=True, timeout=600)
        shutil.rmtree(where / "configs")
        (where / "exit").write_text(f"{proc.returncode}\n")
        (where / "stdout").write_bytes(proc.stdout)
        (where / "stderr").write_bytes(proc.stderr)
        print(f"{tree.name}: {name} exit {proc.returncode}", file=sys.stderr)


def _without_volatile(value):
    if isinstance(value, dict):
        return {k: _without_volatile(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, list):
        return [_without_volatile(v) for v in value]
    return value


def differences(a: Path, b: Path) -> list[str]:
    """One line per file under ``a`` or ``b`` that is missing from the other
    or differs from it: in its bytes, or, for a ``manifest.json``, in its
    JSON without the ``VOLATILE`` keys."""
    files = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()}
    found = []
    for rel in sorted(files):
        left, right = a / rel, b / rel
        if not (left.is_file() and right.is_file()):
            found.append(f"{rel}: only in {a if left.is_file() else b}")
            continue
        x, y = left.read_bytes(), right.read_bytes()
        if rel.name == "manifest.json":
            try:
                same = _without_volatile(json.loads(x)) == _without_volatile(json.loads(y))
            except ValueError:
                same = x == y
            if not same:
                found.append(f"{rel}: manifests differ outside {', '.join(VOLATILE)}")
        elif x != y:
            at = next((i for i, (u, v) in enumerate(zip(x, y)) if u != v), min(len(x), len(y)))
            found.append(f"{rel}: first differs at byte {at}, line {x[:at].count(10) + 1} "
                         f"({len(x)} against {len(y)} bytes)")
    return found


def archive(rev: str, dest: Path) -> Path:
    """The files of ``rev`` extracted under ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as files:
        files.extractall(dest, filter="data")
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--keep", help="work directory to keep, in place of a temporary one")
    args = parser.parse_args(argv)
    work = Path(args.keep or tempfile.mkdtemp(prefix="bytecheck-"))
    try:
        cmds = commands(work / "inputs")
        sides = {"rev": archive(args.against, work / "tree-rev"), "working": ROOT}
        for side, tree in sides.items():
            run_side(tree, work / side, cmds)
        found = differences(work / "rev", work / "working")
        for line in found:
            print(line)
        print(f"{len(found)} differences over {len(cmds)} commands against {args.against}")
        return 1 if found else 0
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

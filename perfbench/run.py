"""dismd benchmark: drives the real CLI (``python -m dismd``) from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]

Run from the repository root, which must hold ``src/dismd``. With
``--trace 0`` each repetition is one child process, run one after another
(closed loop, one client), alternating the workload's command and the same
command with ``hyperparams.epochs = 0``; repetitions continue until
``--seconds`` have passed and each kind has at least three samples. The
metrics are the medians of the command's wall time and peak RSS and of the
zero-epoch command's wall time (the set-up). With ``--trace 1`` the command
runs in this process, once plain and once with spans around the calls into
each dismd module (spans.py), and the kernels are timed on a captured
mid-run state (kernels.py); the metrics are the per-layer numbers.

Every command's outputs are checked (check.py); ``failed`` counts commands
that exited non-zero or failed a check. A provenance line precedes the
result, which is the last line of standard output. ``--report`` runs every
workload in both modes, prints every metric with its unit, the error rate,
and whether the traced numbers confirm the expected interactions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# BLAS reads its thread count when numpy is first imported.
os.environ.update(BLAS_PIN)

import numpy as np  # noqa: E402

import check  # noqa: E402
import kernels  # noqa: E402
import spans  # noqa: E402
from workloads import SMOKE_EPOCHS, WORKLOADS, Workload  # noqa: E402

# Repetitions go on past --seconds only to reach MIN_SAMPLES of each kind,
# and none starts after OVERRUN x --seconds, so a slow host shortens the
# sample rather than stretching the run. A child is killed after
# CHILD_TIMEOUT_S: a 20-second run ends within 180 s even if every child hangs.
MIN_SAMPLES = 3
OVERRUN = 1.5
CHILD_TIMEOUT_S = 35


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


class Inputs:
    """Config files (and initial points) of one workload, seed and horizon."""

    def __init__(self, workload: Workload, seed: int, epochs: int, where: Path):
        where.mkdir(parents=True, exist_ok=True)
        x0 = None
        if workload.random_simplex_start and seed != 0:
            problem = workload.runs[0].sections["problem"]
            rows = np.random.default_rng(seed).dirichlet(np.ones(problem["d"]), size=problem["n"])
            x0 = where / "x0.csv"
            x0.write_text("".join(",".join(repr(float(v)) for v in r) + "\n" for r in rows))
        self.paths = []
        for label, text in workload.config_texts(seed, epochs, x0).items():
            path = where / f"{label}.ini"
            path.write_text(text)
            self.paths.append(path)
        self.workload = workload
        self.epochs = epochs

    def argv(self, out: Path) -> list[str]:
        return self.workload.argv(self.paths, out)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child(NamedTuple):
    """One finished ``python -m dismd`` process."""

    wall_s: float
    cpu_s: float   # user + system time, from wait4's rusage
    rss_mb: float  # max RSS
    code: int
    stderr: str


def run_child(argv: list[str], err_path: Path) -> Child:
    """Run ``python -m dismd argv`` and wait for it."""
    with open(err_path, "w+") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "dismd", *argv], cwd=ROOT,
                                env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, err.read())


class Ledger:
    """Counts commands attempted and failed; keeps the first problems seen."""

    def __init__(self, workload: Workload, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.references = check.load_references()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = "not-compared"
        self.artifact_version = None

    def record(self, outcome: check.Outcome, compare: bool) -> int:
        """Count one command; returns its number of byte-identical CSVs."""
        identical = 0
        if outcome.artifact_version is not None:
            self.artifact_version = outcome.artifact_version
        if compare and outcome.ok and not self.smoke:
            self.reference, identical = check.compare_reference(
                self.references, self.workload.name, self.seed, outcome)
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.problems.extend(outcome.problems[: 5 - len(self.problems)])
        return identical


def end_to_end(workload: Workload, seed: int, seconds: float, work: Path, smoke: bool):
    epochs = SMOKE_EPOCHS if smoke else workload.epochs
    kinds = {"full": Inputs(workload, seed, epochs, work / "full"),
             "setup": Inputs(workload, seed, 0, work / "setup")}
    ledger = Ledger(workload, seed, smoke)
    out, err = work / "out", work / "stderr.txt"
    # Untimed: compiles dismd's bytecode and pages in numpy.
    run_child(["--help"], err)
    walls = {"full": [], "setup": []}
    cpus = {"full": [], "setup": []}
    rss = []
    min_samples = 1 if smoke else MIN_SAMPLES
    started = time.perf_counter()

    def more() -> bool:
        elapsed, done = time.perf_counter() - started, len(walls["full"])
        return done == 0 or elapsed < seconds or (done < min_samples and elapsed < OVERRUN * seconds)

    while more():
        for kind, inputs in kinds.items():
            shutil.rmtree(out, ignore_errors=True)
            child = run_child(inputs.argv(out), err)
            outcome = check.check_outputs(workload, out, inputs.epochs, child.code, child.stderr)
            ledger.record(outcome, compare=kind == "full")
            walls[kind].append(child.wall_s)
            cpus[kind].append(child.cpu_s)
            if kind == "full":
                rss.append(child.rss_mb)
    metrics = {
        "wall_s": (statistics.median(walls["full"]), "s"),
        "setup_s": (statistics.median(walls["setup"]), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    details = {"samples": {"wall_s": len(walls["full"]), "setup_s": len(walls["setup"]),
                           "peak_rss_mb": len(rss)},
               # user + system time of the same children, beside the wall times
               "cpu_s": {"wall_s": statistics.median(cpus["full"]),
                         "setup_s": statistics.median(cpus["setup"])}}
    return metrics, details, ledger


def traced(workload: Workload, seed: int, work: Path, smoke: bool):
    sys.path.insert(0, str(SRC))
    import dismd
    from dismd import cli

    if Path(dismd.__file__).resolve().parent != SRC / "dismd":
        raise BenchError(f"imported dismd from {dismd.__file__}, not from {SRC}")
    epochs = SMOKE_EPOCHS if smoke else workload.epochs
    inputs = Inputs(workload, seed, epochs, work / "full")
    ledger = Ledger(workload, seed, smoke)

    def in_process(out: Path) -> tuple[float, check.Outcome]:
        started = time.perf_counter()
        code = cli.main(inputs.argv(out))
        wall = time.perf_counter() - started
        return wall, check.check_outputs(workload, out, epochs, code)

    plain_wall, outcome = in_process(work / "plain")
    ledger.record(outcome, compare=True)

    tracer = spans.Tracer(capture_step=epochs // 2)
    try:
        tracer.install()
        traced_wall, outcome = in_process(work / "traced")
    finally:
        tracer.uninstall()
    identical = ledger.record(outcome, compare=True)
    summary = tracer.summary(spans.child_cost_s())
    silent = sorted(name for name in workload.hits if summary[name]["calls"] == 0)
    if silent:
        raise BenchError(f"wrappers that should fire on {workload.name} did not: {silent}")
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{workload.name}.npz", summary)

    def total(name):
        return summary[name]["total_s"]

    steps = sum(summary[name]["calls"] for name in spans.STEP_SPANS)
    records = summary["MetricsRecorder.__call__"]["calls"]
    metrics = kernels.kernel_metrics(tracer.captured, seed)
    metrics.update({
        "dynamics.steps": (steps, "count"),
        "dynamics.run_self_us_per_step": (summary["dynamics.run"]["self_s"] / max(steps, 1) * 1e6, "us"),
        "dynamics.noise_calls": (summary["dynamics.NoiseStream.block"]["calls"], "count"),
        "diagnostics.record_calls": (records, "count"),
        "diagnostics.record_us": (total("MetricsRecorder.__call__") / max(records, 1) * 1e6, "us"),
        "diagnostics.record_share": (total("MetricsRecorder.__call__") / total("dynamics.run"), "ratio"),
        "diagnostics.kappa_g_s": (total("diagnostics.kappa_g_estimate"), "s"),
        "diagnostics.constants_s": (total("diagnostics.compute_constants"), "s"),
        "graphs.spectra_s": (total("harness.spectra"), "s"),
        "objectives.generate_s": (total("harness.generate_problem"), "s"),
        "oracle.solve_s": (total("oracle.solve"), "s"),
        "harness.prepare_s": (total("harness.prepare"), "s"),
        "harness.write_s": (summary["write_outer_s"], "s"),
        "harness.csv_bytes": (outcome.csv_bytes, "B"),
        "harness.csv_identical": (identical, "count"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    })
    details = {"samples": {"traced_runs": 1, "plain_runs": 1}, "spans": len(tracer.start),
               "synthetic": kernels.synthetic(summary)}
    return metrics, details, ledger


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(workload, seed, details, ledger) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        **details,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_PIN,
        "git_commit": _git_commit(),
        "artifact_version": ledger.artifact_version,
        "reference": ledger.reference,
        "problems": ledger.problems,
    }


def measure(args) -> int:
    if not (SRC / "dismd" / "__init__.py").is_file():
        print(f"error: {SRC / 'dismd'} is missing; run from a dismd checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            metrics, details, ledger = traced(workload, args.seed, work, args.smoke)
        else:
            metrics, details, ledger = end_to_end(workload, args.seed, args.seconds, work, args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"provenance": provenance(workload, args.seed, details, ledger)}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# Claims the traced numbers must confirm: (description, test over results).
CLAIMS = (
    ("dynamics.noise_calls is 0 on desk-compare",
     lambda r: r["desk-compare"][1]["dynamics.noise_calls"] == 0),
    ("setup_s is most of wall_s on setup-ladder40",
     lambda r: r["setup-ladder40"][0]["setup_s"] > 0.5 * r["setup-ladder40"][0]["wall_s"]),
    ("setup_s is a small share (< 0.2) of wall_s on desk-compare",
     lambda r: r["desk-compare"][0]["setup_s"] < 0.2 * r["desk-compare"][0]["wall_s"]),
    ("diagnostics.record_share is larger on noisy-sweep than on desk-compare",
     lambda r: r["noisy-sweep"][1]["diagnostics.record_share"]
     > r["desk-compare"][1]["diagnostics.record_share"]),
    ("oracle.solve_s is material (> 0.1 s, > 5% of setup_s) only on simplex-entropy",
     lambda r: all((name == "simplex-entropy") == (
         r[name][1]["oracle.solve_s"] > max(0.1, 0.05 * r[name][0]["setup_s"])) for name in r)),
)


def report(args) -> int:
    """Run every workload in both modes; print every metric and the claims."""
    results, ok = {}, True
    for name in WORKLOADS:
        values = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            *_, prov, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            synthetic = json.loads(prov)["provenance"].get("synthetic", [])
            ok &= result["correct"]
            print(f"\n{name}  trace={trace}  correct={result['correct']}  "
                  f"error_rate={result['failed'] / result['attempted']:g} "
                  f"({result['failed']}/{result['attempted']})")
            for metric, entry in result["metrics"].items():
                note = "  (synthetic: not called on this workload)" if metric in synthetic else ""
                print(f"  {metric:40s} {entry['value']:>16.6g} {entry['unit']}{note}")
            values.append({k: e["value"] for k, e in result["metrics"].items()})
        results[name] = values
    print()
    for text, test in CLAIMS:
        holds = test(results)
        ok &= holds
        print(f"{'PASS' if holds else 'FAIL'}  {text}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_EPOCHS}-epoch horizon and one sample of each kind")
    parser.add_argument("--report", action="store_true", help="run and print every workload")
    args = parser.parse_args(argv)
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

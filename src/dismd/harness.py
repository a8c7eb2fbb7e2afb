"""Experiment orchestration: wire config sections into problem, graph, maps
and oracle, run the dynamics, and emit metrics CSV plus a run manifest.

CSV numbers use the shortest round-trip decimal representation, and the
manifest echoes the fully resolved config, so identical (config, seed,
version) reproduce byte-identical outputs.

Each CSV is written while its runs integrate: the records of each snapshot
block are formatted and appended to ``<name>.tmp`` as they are taken, and
the file is renamed to its own name once its runs are done. A command keeps only what it still reads of a run's records (see
``RunLog``), so its memory does not grow with the record count.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, dynamics, oracle
from .config import ConfigError, RunConfig
from .diagnostics import MetricsRecorder, csv_header, rate_fit
from .graphs import (
    LaplacianSpectra,
    Topology,
    WeightedGraph,
    build_graph,
    spectra,
)
from .mirror_maps import IdentityDual, RegularizedDualHessian, make_mirror_map
from .objectives import (
    DistributedProblem,
    GeneratorConfig,
    generate_problem,
    load_matrix,
    load_problem_bundle,
)

SWEEPABLE = (
    "hyperparams.eta",
    "hyperparams.epsilon",
    "hyperparams.sigma",
    "hyperparams.dt",
    "hyperparams.epochs",
    "graph.p",
    "graph.beta",
    "problem.condition_number",
)
# The sweep parameters whose values run as the replicas of one batch: each
# replica has its own, while everything else in the config is shared.
BATCHED = ("hyperparams.eta", "hyperparams.epsilon", "hyperparams.sigma")

METRICS_FILE = "metrics.csv"
MANIFEST_FILE = "manifest.json"
# Snapshots a replica's recorder turns into records at once. The snapshot
# block of a small problem holds thousands (6,400 at n = 2, d = 1), whose
# records would be all of a short run's; 128, the largest block of the
# shipped problem shapes, bounds the records alive at once.
_RECORDS_PER_WRITE = 128


def build_problem(cfg: RunConfig) -> DistributedProblem:
    p = cfg["problem"]
    if p["kind"] == "bundle":
        problem = load_problem_bundle(p["bundle"])
    else:
        problem = generate_problem(
            GeneratorConfig(
                seed=p["seed"],
                d=p["d"],
                m=p["m"],
                n=p["n"],
                condition_number=p["condition_number"],
                shared_minimizer=p["shared_minimizer"],
                domain=p["domain"],
            )
        )
    entropy = cfg["algorithm"]["map"] == "entropy"
    if problem.domain == "simplex" and not entropy:
        raise ConfigError("simplex problems pair only with the entropy mirror map")
    if problem.domain != "simplex" and entropy:
        raise ConfigError("the entropy mirror map needs a simplex problem")
    return problem


def build_graph_and_spectra(cfg: RunConfig, n: int) -> tuple[WeightedGraph, LaplacianSpectra]:
    g = cfg["graph"]
    if g["topology"] == "matrix":
        graph = WeightedGraph.from_adjacency(load_matrix(g["weights"]))
        if graph.n != n:
            raise ConfigError(
                f"graph.weights has {graph.n} nodes but the problem has {n} particles"
            )
    else:
        if g["topology"] == "barbell" and n != 2 * g["cluster"]:
            # a generated problem's n is checked with the config; a bundle's only here
            raise ConfigError(
                f"graph.cluster = {g['cluster']} needs {2 * g['cluster']} particles "
                f"but the problem has {n}"
            )
        graph = build_graph(
            Topology(kind=g["topology"], n=n, p=g["p"], cluster=g["cluster"], seed=g["seed"])
        )
    return graph, spectra(graph, g["beta"])


def build_dual(cfg: RunConfig, graph: WeightedGraph, problem: DistributedProblem):
    a = cfg["algorithm"]
    if a["name"] != "epismd":
        return None
    if a["dual"] == "identity":
        return IdentityDual()
    dual_beta = a["dual_beta"] if a["dual_beta"] is not None else cfg["graph"]["beta"]
    return RegularizedDualHessian(spectra(graph, dual_beta), problem.hess_blocks())


def load_x0(cfg: RunConfig, problem: DistributedProblem) -> np.ndarray | None:
    path = cfg["algorithm"]["x0"]
    if path is None:
        return None
    rows = load_matrix(path)
    if rows.shape == (1, problem.d):
        rows = np.repeat(rows, problem.n, axis=0)
    if rows.shape != (problem.n, problem.d):
        raise ConfigError(
            f"algorithm.x0 must be ({problem.n}, {problem.d}) or a single row, got {rows.shape}"
        )
    if not np.all(np.isfinite(rows)):
        particle, coordinate = np.argwhere(~np.isfinite(rows))[0]
        raise ConfigError(
            f"algorithm.x0 must be finite, got {float(rows[particle, coordinate])!r} "
            f"at particle {particle}, coordinate {coordinate}"
        )
    if problem.domain == "simplex":
        if np.any(rows <= 0) or np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-8:
            raise ConfigError("algorithm.x0 rows must lie in the open simplex")
    return rows


@dataclass
class RunSetup:
    problem: DistributedProblem
    graph: WeightedGraph
    mmap: object
    dual: object | None
    opt: oracle.OptimalPair
    timings: dict[str, float]  # dual_s, oracle_s and constants_s, parts of prepare
    constants: diagnostics.ConvexityConstants
    recorder: MetricsRecorder


def _timed(fn, *args):
    """(fn(*args), seconds it took)."""
    started = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - started


def prepare(cfg: RunConfig) -> RunSetup:
    problem = build_problem(cfg)
    graph, spec = build_graph_and_spectra(cfg, problem.n)
    a = cfg["algorithm"]
    matrix = load_matrix(a["map_matrix"]) if a["map_matrix"] else None
    mmap = make_mirror_map(a["map"], problem.d, matrix)
    dual, dual_s = _timed(build_dual, cfg, graph, problem)
    opt, oracle_s = _timed(oracle.solve, problem, graph)
    constants, constants_s = _timed(diagnostics.compute_constants, problem, spec, mmap, dual)
    if mmap.kind != "entropy":
        # kappa_g is 0 by construction (see kappa_g_estimate); the call checks
        # that the conjugate map Hessian is nonsingular at the consensus
        # optimum, where every particle's block is the same, so one row decides
        diagnostics.kappa_g_estimate(mmap, opt.x_star[None, :])
    c = diagnostics.default_c(constants)
    recorder = MetricsRecorder(problem, graph, mmap, opt.x_star, opt.lambda_star, c, dual=dual)
    return RunSetup(
        problem=problem,
        graph=graph,
        mmap=mmap,
        dual=dual,
        opt=opt,
        timings={"dual_s": dual_s, "oracle_s": oracle_s, "constants_s": constants_s},
        constants=constants,
        recorder=recorder,
    )


def _shared(cfg: RunConfig) -> dict:
    """The config without the keys in which the replicas of a batch differ."""
    mapping = cfg.to_mapping()
    for path in (*BATCHED, "run.seed"):
        section, key = path.split(".")
        del mapping[section][key]
    return mapping


class CsvStream:
    """A CSV written as its runs go: the header and each appended block go
    to ``<name>.tmp``, which ``publish`` renames to the CSV's own name.
    Each append opens the file, writes one block and closes it, so no file
    stays open between blocks."""

    def __init__(self, path: Path, header: str):
        self.path = path
        self.tmp = path.with_name(path.name + ".tmp")
        # the directories this stream makes, deepest first, for discard
        self.made = []
        for directory in (path.parent, *path.parent.parents):
            if directory.exists():
                break
            self.made.append(directory)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.tmp.write_text(header + "\n")

    def append(self, text: str) -> None:
        with open(self.tmp, "a") as f:
            f.write(text)

    def publish(self) -> Path:
        os.replace(self.tmp, self.path)
        return self.path

    def discard(self) -> None:
        """Remove the unpublished file and the directories made for it."""
        if self.tmp.exists():
            self.tmp.unlink()
            for directory in self.made:
                directory.rmdir()


@contextmanager
def _discard_on_failure(streams: list[CsvStream]):
    """Discard every stream of ``streams`` not yet published if the block
    raises, so a failed command leaves no partial CSV."""
    try:
        yield
    except BaseException:
        for stream in streams:
            stream.discard()
        raise


class RunLog:
    """What a command keeps of one run's records as they stream into its
    CSV: their count, the last one and, with ``fit``, the t and V columns
    that ``rate_fit`` reads. Rows go to ``csv`` led by ``label`` when one is
    given; without a csv the records are only counted."""

    def __init__(self, csv: CsvStream | None = None, label: str | None = None,
                 fit: bool = False):
        self.csv, self.lead = csv, "" if label is None else f"{label},"
        self.count, self.last = 0, None
        self.t, self.V = (array("d"), array("d")) if fit else (None, None)

    def add(self, records: list[diagnostics.MetricsRecord]) -> None:
        if self.csv is not None:
            self.csv.append(records_to_csv(records, self.lead))
        self.count += len(records)
        self.last = records[-1]
        if self.t is not None:
            self.t.extend(r.t for r in records)
            self.V.extend(r.V for r in records)


def execute(cfgs: list[RunConfig], logs: list[RunLog] | None = None
            ) -> list[tuple[RunLog, dict, dynamics.DivergenceError | None]]:
    """Run configs that differ at most in eta, epsilon, sigma and the run
    seed as one batch, through one ``prepare``. Each run's records go to
    its entry of ``logs`` (by default logs that only count them) block by
    block, as they are taken. Returns (log, manifest mapping, divergence)
    per config, where a run that diverged has logged the records taken
    before the blow-up and holds its DivergenceError, whose ``records`` is
    empty, and any other run None. One config is a batch of one."""
    if any(_shared(cfg) != _shared(cfgs[0]) for cfg in cfgs[1:]):
        raise ValueError(
            f"configs of a batch may differ only in {', '.join(BATCHED)} and run.seed"
        )
    if logs is None:
        logs = [RunLog() for _ in cfgs]
    started = time.perf_counter()
    setup = prepare(cfgs[0])
    prepare_s = time.perf_counter() - started
    a = cfgs[0]["algorithm"]
    record_s = [0.0] * len(cfgs)

    def recorder(index, snaps):
        """Log the records of replica ``index``, the recorder timed into
        record_s[index]; returns none, so dynamics.run keeps none."""
        for start in range(0, len(snaps), _RECORDS_PER_WRITE):
            records, seconds = _timed(setup.recorder, snaps[start:start + _RECORDS_PER_WRITE])
            record_s[index] += seconds
            logs[index].add(records)
        return []

    started = time.perf_counter()
    outcomes = dynamics.run(
        a["name"],
        setup.problem,
        setup.mmap,
        setup.graph,
        [cfg.hyperparams() for cfg in cfgs],
        seed=[cfg["run"]["seed"] for cfg in cfgs],
        dual=setup.dual,
        interaction_on=a["interaction_on"],
        metrics_every=cfgs[0]["hyperparams"]["metrics_every"],
        recorder=[partial(recorder, index) for index in range(len(cfgs))],
        x0_rows=[load_x0(cfgs[0], setup.problem)] * len(cfgs),
    )
    integrate_s = time.perf_counter() - started
    results = []
    for cfg, log, outcome, seconds in zip(cfgs, logs, outcomes, record_s):
        divergence = outcome if isinstance(outcome, dynamics.DivergenceError) else None
        timings = {"prepare_s": prepare_s, **setup.timings, "integrate_s": integrate_s,
                   "record_s": seconds}
        manifest = build_manifest(cfg, setup, timings, log.count, divergence)
        results.append((log, manifest, divergence))
    return results


def _float_or_none(v) -> float | None:
    if v is None:
        return None
    v = float(v)
    return v if np.isfinite(v) else None


def build_manifest(
    cfg: RunConfig, setup: RunSetup, timings: dict, n_records: int, divergence
) -> dict:
    """Run manifest; ``timings`` holds prepare_s and integrate_s, the seconds
    spent in ``prepare`` and in ``dynamics.run``, the parts of prepare_s
    spent building the dual map (dual_s), in the oracle (oracle_s) and in
    the constants (constants_s), and the part of integrate_s spent in the
    recorder (record_s), timed per snapshot block; integrate_s also holds
    the writing of the records' CSV rows. In a batch, prepare_s,
    its parts and integrate_s are the batch's and record_s is the run's own.
    ``record_share`` is record_s / integrate_s. A diverged run gains a
    ``diverged`` block."""
    opt = setup.opt
    cst = setup.constants
    steps = cfg["hyperparams"]["epochs"] if divergence is None else divergence.step
    manifest = {
        "artifact_version": __version__,
        "config": cfg.to_mapping(),
        "problem_hash": setup.problem.content_hash(),
        "oracle": {
            "f_star": opt.f_star,
            "kkt_residual": opt.kkt_residual,
            "x_star_norm": float(np.linalg.norm(opt.x_star)),
            "lambda_star_norm": (
                float(np.linalg.norm(opt.lambda_star)) if opt.lambda_star is not None else None
            ),
            "interior": opt.lambda_star is not None,
        },
        "constants": {
            "kappa_n": cst.kappa_n,
            "kappa_beta": cst.kappa_beta,
            "mu_f": cst.mu_f,
            "l_f": cst.l_f,
            "mu_phi": cst.mu_phi,
            "l_phi": _float_or_none(cst.l_phi),
            "mu_psi": cst.mu_psi,
            "alpha_phi": _float_or_none(cst.alpha_phi),
            "mu_hat": cst.mu_hat,
            "c": setup.recorder.c,
        },
        "wall_clock_seconds": timings["integrate_s"],
        "timings": timings,
        "steps_per_second": steps / timings["integrate_s"] if steps else None,
        "record_share": timings["record_s"] / timings["integrate_s"],
        "records": n_records,
    }
    if divergence is not None:
        where = ("step", "array", "particle", "coordinate")
        manifest["diverged"] = {key: getattr(divergence, key) for key in where}
        manifest["diverged"]["value"] = _float_or_none(divergence.value)
    return manifest


def records_to_csv(records: list[diagnostics.MetricsRecord], lead: str = "") -> str:
    """The CSV rows of ``records``, each led by ``lead`` and ended by a newline."""
    return "".join(f"{lead}{rec.to_csv_row()}\n" for rec in records)


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def write_run_outputs(csv: CsvStream, manifest) -> tuple[Path, Path]:
    """Publish a run's streamed metrics CSV and write its manifest beside it."""
    manifest_path = csv.path.parent / MANIFEST_FILE
    metrics_path = csv.publish()
    _write_atomic(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return metrics_path, manifest_path


def _raise_first(divergences, written: list[Path]) -> None:
    """Raise the first divergence of (run label, divergence or None) pairs,
    labelled with its run and naming the files its command wrote."""
    for label, divergence in divergences:
        if divergence is not None:
            divergence.run, divergence.written = label, tuple(written)
            raise divergence


def cmd_run(cfg: RunConfig, out_dir: Path | str) -> tuple[Path, Path]:
    """Run one config and write its metrics CSV and manifest; a run that
    diverged writes both and then raises its DivergenceError."""
    csv = CsvStream(Path(out_dir) / METRICS_FILE, csv_header())
    with _discard_on_failure([csv]):
        [(_, manifest, divergence)] = execute([cfg], [RunLog(csv)])
        paths = write_run_outputs(csv, manifest)
    _raise_first([(None, divergence)], paths)
    return paths


def cmd_compare(configs: list[RunConfig], labels: list[str], out_dir: Path | str) -> Path:
    """Run several configs, in order, and emit one label-keyed CSV of
    aligned records.

    A run that diverges contributes the records taken before the blow-up,
    and its manifest entry says where it diverged; the other runs complete.
    Once both files are written, the first divergence is raised, labelled
    with its run."""
    if len(configs) < 2:
        raise ConfigError("compare needs at least two configs")
    if len(set(labels)) < len(labels):
        raise ConfigError(f"compare labels must be distinct, got {labels}")
    base = configs[0]["hyperparams"]
    for cfg in configs[1:]:
        h = cfg["hyperparams"]
        for key in ("dt", "epochs", "metrics_every"):
            if h[key] != base[key]:
                raise ConfigError(
                    f"compare configs must share hyperparams.{key} "
                    f"({h[key]} != {base[key]})"
                )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv = CsvStream(out / "compare.csv", "run," + csv_header())
    manifests = {}
    divergences = []
    with _discard_on_failure([csv]):
        for cfg, label in zip(configs, labels):
            [(_, manifests[label], divergence)] = execute([cfg], [RunLog(csv, label)])
            divergences.append((label, divergence))
        csv.publish()
    _write_atomic(out / MANIFEST_FILE, json.dumps(manifests, indent=2) + "\n")
    _raise_first(divergences, [out / "compare.csv", out / MANIFEST_FILE])
    return out / "compare.csv"


def cmd_sweep(cfg: RunConfig, param: str, raw_values: list[str], out_dir: Path | str) -> Path:
    """One independent seeded run per parameter value plus a summary CSV.

    Each raw value is converted and validated by the config schema, as a
    loaded value is, before any run starts. The values of a ``BATCHED``
    parameter run as one batch, the others one after another; either way
    value i runs with seed base + i, streams its own metrics CSV and writes
    the same bytes. A diverged value writes its run as ``cmd_run`` does and
    its last finite record as its summary row; once every file is written,
    the first divergence is raised."""
    if param not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter path {param!r}; choose from {SWEEPABLE}")
    if not raw_values:
        raise ConfigError("sweep needs at least one value")
    section, key = param.split(".", 1)
    base_seed = cfg["run"]["seed"]
    run_cfgs = []
    for index, raw in enumerate(raw_values):
        mapping = cfg.to_mapping()
        mapping[section][key] = raw
        mapping["run"]["seed"] = base_seed + index
        run_cfgs.append(RunConfig.from_mapping(mapping))
    values = [run_cfg[section][key] for run_cfg in run_cfgs]
    if len(set(values)) < len(values):
        raise ConfigError(f"sweep values must be distinct, got {','.join(raw_values)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_lines = ["value,seed," + csv_header() + ",rate_r,rate_r_squared"]
    divergences = []
    runs = list(zip(raw_values, run_cfgs))
    batches = [runs] if param in BATCHED else [[run] for run in runs]
    streams = []
    with _discard_on_failure(streams):
        for batch in batches:
            logs = []
            for raw, _ in batch:
                streams.append(CsvStream(out / f"{key}_{raw}" / METRICS_FILE, csv_header()))
                logs.append(RunLog(streams[-1], fit=True))
            results = execute([run_cfg for _, run_cfg in batch], logs)
            for (raw, run_cfg), (log, manifest, divergence) in zip(batch, results):
                write_run_outputs(log.csv, manifest)
                divergences.append((log.csv.path.parent.name, divergence))
                try:
                    fit = rate_fit(log.t, log.V, window=0.5)
                    r, r2 = fit.r, fit.r_squared
                except ValueError:
                    r, r2 = float("nan"), float("nan")
                summary_lines.append(
                    f"{raw},{run_cfg['run']['seed']},{log.last.to_csv_row()},{r!r},{r2!r}"
                )
    _write_atomic(out / "summary.csv", "\n".join(summary_lines) + "\n")
    _raise_first(divergences, [*(out / name for name, _ in divergences), out / "summary.csv"])
    return out / "summary.csv"


def graph_info_report(cfg: RunConfig) -> str:
    graph, spec = build_graph_and_spectra(cfg, build_problem(cfg).n)
    lines = [
        f"nodes: {graph.n}",
        f"edges: {len(graph.edges)}",
        f"laplacian eigenvalues: min {spec.eigenvalues[0]:.6g}, max {spec.eigenvalues[-1]:.6g}",
        f"algebraic connectivity: {spec.algebraic_connectivity:.6g}",
        f"kappa_n: {spec.kappa_n!r}",
        f"kappa_beta (beta={spec.beta!r}): {spec.kappa_beta!r}",
    ]
    if graph.n == 1:
        lines.append("warning: single-node graph is degenerate (kappa_n = 0)")
    return "\n".join(lines)


def export_graph_matrices(cfg: RunConfig, out_dir: Path | str) -> None:
    graph, _ = build_graph_and_spectra(cfg, build_problem(cfg).n)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, mat in (("adjacency.csv", graph.adjacency), ("laplacian.csv", graph.laplacian)):
        rows = "\n".join(",".join(repr(float(v)) for v in row) for row in mat)
        _write_atomic(out / name, rows + "\n")


def oracle_report(cfg: RunConfig) -> str:
    problem = build_problem(cfg)
    graph, _ = build_graph_and_spectra(cfg, problem.n)
    opt = oracle.solve(problem, graph)
    lines = [
        f"f_star: {opt.f_star!r}",
        f"kkt_residual: {opt.kkt_residual!r}",
        f"x_star: {','.join(repr(float(v)) for v in opt.x_star)}",
    ]
    if opt.lambda_star is not None:
        lines.append(f"lambda_star_norm: {float(np.linalg.norm(opt.lambda_star))!r}")
    else:
        lines.append("lambda_star_norm: none (boundary optimum)")
    return "\n".join(lines)

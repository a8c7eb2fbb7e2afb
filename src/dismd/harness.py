"""Experiment orchestration: wire config sections into problem, graph, maps
and oracle, run the dynamics, and emit metrics CSV plus a run manifest.

CSV numbers use the shortest round-trip decimal representation, and the
manifest echoes the fully resolved config, so identical (config, seed,
version) reproduce byte-identical outputs.
"""

from __future__ import annotations

import json
import os
import time
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


def execute(cfgs: list[RunConfig]) -> list[tuple[list, dict, dynamics.DivergenceError | None]]:
    """Run configs that differ at most in eta, epsilon, sigma and the run
    seed as one batch, through one ``prepare``; returns (records, manifest
    mapping, divergence) per config, where a run that diverged holds the
    records taken before the blow-up and its DivergenceError, and any other
    run None. One config is a batch of one."""
    if any(_shared(cfg) != _shared(cfgs[0]) for cfg in cfgs[1:]):
        raise ValueError(
            f"configs of a batch may differ only in {', '.join(BATCHED)} and run.seed"
        )
    started = time.perf_counter()
    setup = prepare(cfgs[0])
    prepare_s = time.perf_counter() - started
    a = cfgs[0]["algorithm"]
    record_s = [0.0] * len(cfgs)

    def recorder(index, snaps):
        """The records of replica ``index``, timed into record_s[index]."""
        records, seconds = _timed(setup.recorder, snaps)
        record_s[index] += seconds
        return records

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
    for cfg, outcome, seconds in zip(cfgs, outcomes, record_s):
        divergence = outcome if isinstance(outcome, dynamics.DivergenceError) else None
        records = outcome if divergence is None else divergence.records
        timings = {"prepare_s": prepare_s, **setup.timings, "integrate_s": integrate_s,
                   "record_s": seconds}
        manifest = build_manifest(cfg, setup, timings, len(records), divergence)
        results.append((records, manifest, divergence))
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
    recorder (record_s), timed per snapshot block. In a batch, prepare_s,
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


def records_to_csv(records: list[diagnostics.MetricsRecord]) -> str:
    lines = [csv_header()]
    lines.extend(rec.to_csv_row() for rec in records)
    return "\n".join(lines) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def write_run_outputs(out_dir: Path | str, records, manifest) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / METRICS_FILE
    manifest_path = out / MANIFEST_FILE
    _write_atomic(metrics_path, records_to_csv(records))
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
    [(records, manifest, divergence)] = execute([cfg])
    paths = write_run_outputs(out_dir, records, manifest)
    _raise_first([(None, divergence)], paths)
    return paths


def cmd_compare(configs: list[RunConfig], labels: list[str], out_dir: Path | str) -> Path:
    """Run several configs and emit one label-keyed CSV of aligned records.

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
    all_rows = []
    manifests = {}
    divergences = []
    for cfg, label in zip(configs, labels):
        [(records, manifests[label], divergence)] = execute([cfg])
        divergences.append((label, divergence))
        all_rows.extend(f"{label},{rec.to_csv_row()}" for rec in records)
    csv_text = "\n".join(["run," + csv_header(), *all_rows]) + "\n"
    _write_atomic(out / "compare.csv", csv_text)
    _write_atomic(out / MANIFEST_FILE, json.dumps(manifests, indent=2) + "\n")
    _raise_first(divergences, [out / "compare.csv", out / MANIFEST_FILE])
    return out / "compare.csv"


def cmd_sweep(cfg: RunConfig, param: str, raw_values: list[str], out_dir: Path | str) -> Path:
    """One independent seeded run per parameter value plus a summary CSV.

    Each raw value is converted and validated by the config schema, as a
    loaded value is, before any run starts. The values of a ``BATCHED``
    parameter run as one batch, the others one after another; either way
    value i runs with seed base + i and writes the same bytes. A diverged
    value writes its run as ``cmd_run`` does and its last finite record as
    its summary row; once every file is written, the first divergence is
    raised."""
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
    if param in BATCHED:
        results = execute(run_cfgs)
    else:
        results = (execute([run_cfg])[0] for run_cfg in run_cfgs)
    for raw, run_cfg, (records, manifest, divergence) in zip(raw_values, run_cfgs, results):
        run_dir = out / f"{key}_{raw}"
        write_run_outputs(run_dir, records, manifest)
        divergences.append((run_dir.name, divergence))
        try:
            fit = rate_fit([r.t for r in records], [r.V for r in records], window=0.5)
            r, r2 = fit.r, fit.r_squared
        except ValueError:
            r, r2 = float("nan"), float("nan")
        summary_lines.append(
            f"{raw},{run_cfg['run']['seed']},{records[-1].to_csv_row()},{r!r},{r2!r}"
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

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
    if problem.domain == "simplex":
        if np.any(rows <= 0) or np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-8:
            raise ConfigError("algorithm.x0 rows must lie in the open simplex")
    return rows


@dataclass
class RunSetup:
    problem: DistributedProblem
    graph: WeightedGraph
    spec: LaplacianSpectra
    mmap: object
    dual: object | None
    opt: oracle.OptimalPair
    oracle_s: float
    constants: diagnostics.ConvexityConstants
    c: float
    kappa_g: float | None
    predicted_rate: float | None
    recorder: MetricsRecorder


def prepare(cfg: RunConfig) -> RunSetup:
    problem = build_problem(cfg)
    graph, spec = build_graph_and_spectra(cfg, problem.n)
    a = cfg["algorithm"]
    matrix = load_matrix(a["map_matrix"]) if a["map_matrix"] else None
    mmap = make_mirror_map(a["map"], problem.d, matrix)
    dual = build_dual(cfg, graph, problem)
    started = time.perf_counter()
    opt = oracle.solve(problem, graph)
    oracle_s = time.perf_counter() - started
    constants = diagnostics.compute_constants(problem, spec, mmap, dual)
    c = diagnostics.default_c(constants)
    kappa_g = None
    rate = None
    if mmap.kind != "entropy":
        # kappa_g, and with it the predicted rate, is 0 by construction (see
        # kappa_g_estimate); the call still checks that the conjugate map
        # Hessian is nonsingular at the consensus optimum
        consensus_point = np.broadcast_to(opt.x_star, (problem.n, problem.d))
        kappa_g = diagnostics.kappa_g_estimate(problem, graph, mmap, [consensus_point])
        rate = diagnostics.predicted_rate(constants, c, kappa_g)
    recorder = MetricsRecorder(
        problem, graph, mmap, opt.x_star, opt.lambda_star, c, dual=dual
    )
    return RunSetup(
        problem=problem,
        graph=graph,
        spec=spec,
        mmap=mmap,
        dual=dual,
        opt=opt,
        oracle_s=oracle_s,
        constants=constants,
        c=c,
        kappa_g=kappa_g,
        predicted_rate=rate,
        recorder=recorder,
    )


def execute(cfg: RunConfig) -> tuple[list[diagnostics.MetricsRecord], dict]:
    """Run the configured experiment; returns (records, manifest mapping)."""
    started = time.perf_counter()
    setup = prepare(cfg)
    prepare_s = time.perf_counter() - started
    a = cfg["algorithm"]
    started = time.perf_counter()
    records = dynamics.run(
        a["name"],
        setup.problem,
        setup.mmap,
        setup.graph,
        cfg.hyperparams(),
        seed=cfg["run"]["seed"],
        dual=setup.dual,
        interaction_on=a["interaction_on"],
        metrics_every=cfg["hyperparams"]["metrics_every"],
        recorder=setup.recorder,
        x0_rows=load_x0(cfg, setup.problem),
    )
    timings = {
        "prepare_s": prepare_s,
        "oracle_s": setup.oracle_s,
        "integrate_s": time.perf_counter() - started,
    }
    manifest = build_manifest(cfg, setup, timings, len(records))
    return records, manifest


def _float_or_none(v) -> float | None:
    if v is None:
        return None
    v = float(v)
    return v if np.isfinite(v) else None


def build_manifest(cfg: RunConfig, setup: RunSetup, timings: dict, n_records: int) -> dict:
    """Run manifest; ``timings`` holds prepare_s (oracle_s included) and
    integrate_s, the seconds spent in ``prepare`` and in ``dynamics.run``."""
    opt = setup.opt
    cst = setup.constants
    epochs = cfg["hyperparams"]["epochs"]
    return {
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
            "l_psi": cst.l_psi,
            "alpha_phi": _float_or_none(cst.alpha_phi),
            "mu_hat": cst.mu_hat,
            "c": setup.c,
            "kappa_g_estimate": _float_or_none(setup.kappa_g),
            "predicted_rate": _float_or_none(setup.predicted_rate),
        },
        "wall_clock_seconds": timings["integrate_s"],
        "timings": timings,
        "steps_per_second": epochs / timings["integrate_s"] if epochs else None,
        "records": n_records,
    }


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


def cmd_run(cfg: RunConfig, out_dir: Path | str) -> tuple[Path, Path]:
    records, manifest = execute(cfg)
    return write_run_outputs(out_dir, records, manifest)


def cmd_compare(configs: list[RunConfig], labels: list[str], out_dir: Path | str) -> Path:
    """Run several configs and emit one label-keyed CSV of aligned records."""
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
    for cfg, label in zip(configs, labels):
        records, manifest = execute(cfg)
        manifests[label] = manifest
        all_rows.extend(f"{label},{rec.to_csv_row()}" for rec in records)
    csv_text = "run," + csv_header() + "\n" + "\n".join(all_rows) + "\n"
    _write_atomic(out / "compare.csv", csv_text)
    _write_atomic(out / MANIFEST_FILE, json.dumps(manifests, indent=2) + "\n")
    return out / "compare.csv"


def _parse_sweep_value(param: str, raw: str):
    if param == "hyperparams.epochs":
        return int(raw)
    return float(raw)


def cmd_sweep(cfg: RunConfig, param: str, raw_values: list[str], out_dir: Path | str) -> Path:
    """One independent seeded run per parameter value plus a summary CSV."""
    if param not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter path {param!r}; choose from {SWEEPABLE}")
    if not raw_values:
        raise ConfigError("sweep needs at least one value")
    values = [_parse_sweep_value(param, raw) for raw in raw_values]
    if len(set(values)) < len(values):
        raise ConfigError(f"sweep values must be distinct, got {','.join(raw_values)}")
    section, key = param.split(".", 1)
    base_seed = cfg["run"]["seed"]
    run_cfgs = []
    for index, value in enumerate(values):
        mapping = cfg.to_mapping()
        mapping[section][key] = value
        mapping["run"]["seed"] = base_seed + index
        # rebuilt through the loader, so every value is validated before any run
        run_cfgs.append(RunConfig.from_mapping(mapping))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_lines = [
        "value,seed," + csv_header() + ",rate_r,rate_r_squared"
    ]
    for index, (raw, run_cfg) in enumerate(zip(raw_values, run_cfgs)):
        records, manifest = execute(run_cfg)
        run_dir = out / f"{key}_{raw}"
        write_run_outputs(run_dir, records, manifest)
        ts = np.array([r.t for r in records])
        vs = np.array([r.V for r in records])
        try:
            fit = rate_fit(ts, vs, window=0.5)
            r, r2 = fit.r, fit.r_squared
        except ValueError:
            r, r2 = float("nan"), float("nan")
        summary_lines.append(
            f"{raw},{base_seed + index},{records[-1].to_csv_row()},{r!r},{r2!r}"
        )
    _write_atomic(out / "summary.csv", "\n".join(summary_lines) + "\n")
    return out / "summary.csv"


def graph_info_report(cfg: RunConfig) -> str:
    n = cfg["problem"]["n"]
    graph, spec = build_graph_and_spectra(cfg, n)
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
    graph, _ = build_graph_and_spectra(cfg, cfg["problem"]["n"])
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

"""Experiment orchestration: wire config sections into problem, graph, maps
and oracle, run the dynamics, and emit metrics CSV plus a run manifest.

CSV numbers use the shortest round-trip decimal representation, and the
manifest echoes the fully resolved config, so identical (config, seed,
version) reproduce byte-identical outputs.

Every output file is an ``OutputFile``, written through one open handle
to ``<name>.tmp``. A command opens all its files before its first run, so
a bad output path fails before anything integrates, and ``_write_atomic``
renames none until every one is written. Each run's ``RunLog`` appends the
CSV rows of each snapshot block as it is taken and keeps only what its
command still reads, so memory does not grow with the record count.
"""

from __future__ import annotations

import errno
import json
import os
import time
import warnings
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, dynamics, oracle
from .config import ConfigError, RunConfig, check_barbell, check_map_domain
from .diagnostics import MetricsRecorder, csv_header, rate_fit
from .graphs import Topology, WeightedGraph, build_graph, spectra
from .mirror_maps import IdentityDual, RegularizedDualHessian, make_mirror_map
from .objectives import DOMAINS, DistributedProblem, GeneratorConfig, generate_problem

# The sweep parameters whose values run as the replicas of one batch: each
# replica has its own, while everything else in the config is shared.
BATCHED = tuple(f"hyperparams.{key}" for key in dynamics.PER_REPLICA)
SWEEPABLE = (*BATCHED, "hyperparams.epochs", "graph.p", "graph.beta", "problem.condition_number")

METRICS_FILE = "metrics.csv"
MANIFEST_FILE = "manifest.json"  # a run's manifest, and a problem bundle's
BUNDLE_VERSION = 1


def build_problem(cfg: RunConfig) -> DistributedProblem:
    p = cfg["problem"]
    if p["kind"] == "bundle":
        problem = load_problem_bundle(p["bundle"])
    else:
        given = {f.name: p[f.name] for f in fields(GeneratorConfig)}
        problem = generate_problem(GeneratorConfig(**given))
    check_map_domain(problem.domain, cfg["algorithm"]["map"])
    return problem


def build_weighted_graph(cfg: RunConfig, n: int) -> WeightedGraph:
    """The config's graph on ``n`` particles; its spectra are the caller's to build."""
    g = cfg["graph"]
    if g["topology"] == "matrix":
        weights = load_matrix(g["weights"], "graph.weights", (n, n))
        graph = _led("graph.weights", WeightedGraph.from_adjacency, weights)
    else:
        if g["topology"] == "barbell":
            check_barbell(g["cluster"], n)
        graph = build_graph(
            Topology(kind=g["topology"], n=n, p=g["p"], cluster=g["cluster"], seed=g["seed"])
        )
    return graph


def build_dual(cfg: RunConfig, graph: WeightedGraph, problem: DistributedProblem):
    a = cfg["algorithm"]
    if a["name"] != "epismd":
        return None
    if a["dual"] == "identity":
        return IdentityDual()
    dual_beta = a["dual_beta"] if a["dual_beta"] is not None else cfg["graph"]["beta"]
    return RegularizedDualHessian(spectra(graph, dual_beta), problem)


def load_x0(cfg: RunConfig, problem: DistributedProblem, mmap) -> np.ndarray | None:
    path = cfg["algorithm"]["x0"]
    if path is None:
        return None
    rows = load_matrix(path, "algorithm.x0", axes=("particle", "coordinate"))
    if rows.shape == (1, problem.d):
        rows = np.repeat(rows, problem.n, axis=0)
    if rows.shape != (problem.n, problem.d):
        raise ConfigError(
            f"algorithm.x0 must be ({problem.n}, {problem.d}) or a single row, got {rows.shape}"
        )
    if problem.domain == "simplex":
        if np.any(rows <= 0) or np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-8:
            raise ConfigError("algorithm.x0 rows must lie in the open simplex")
    # the run's divergence guard would stop it at step 1
    beyond = dynamics._divergence(mmap.forward(rows)[None], 0, [])
    if beyond is not None:
        raise ConfigError(
            f"algorithm.x0 starts z beyond the divergence limit {dynamics._STATE_LIMIT:g}: "
            f"z = {beyond.value!r} at particle {beyond.particle}, coordinate {beyond.coordinate}"
        )
    return rows


@dataclass
class RunSetup:
    problem: DistributedProblem
    graph: WeightedGraph
    mmap: object
    dual: object | None
    opt: oracle.OptimalPair
    # prepare_s and its parts generate_s, spectra_s, dual_s, oracle_s and constants_s
    timings: dict[str, float]
    constants: diagnostics.ConvexityConstants
    recorder: MetricsRecorder
    x0: np.ndarray | None  # algorithm.x0's rows, None for the default start


def _timed(fn, *args):
    """(fn(*args), seconds it took)."""
    started = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - started


def prepare(cfg: RunConfig) -> RunSetup:
    """Everything a run of ``cfg`` needs before it integrates, its inputs
    loaded and checked."""
    started = time.perf_counter()
    problem, generate_s = _timed(build_problem, cfg)
    graph, graph_s = _timed(build_weighted_graph, cfg, problem.n)
    spec, spec_s = _timed(spectra, graph, cfg["graph"]["beta"])
    a, d, key = cfg["algorithm"], problem.d, "algorithm.map_matrix"
    matrix = load_matrix(a["map_matrix"], key, (d, d)) if a["map_matrix"] else None
    mmap = _led(key, make_mirror_map, a["map"], d, matrix)
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
    x0 = load_x0(cfg, problem, mmap)
    prepare_s = time.perf_counter() - started
    return RunSetup(
        problem=problem,
        graph=graph,
        mmap=mmap,
        dual=dual,
        opt=opt,
        timings={"prepare_s": prepare_s, "generate_s": generate_s, "spectra_s": graph_s + spec_s,
                 "dual_s": dual_s, "oracle_s": oracle_s, "constants_s": constants_s},
        constants=constants,
        recorder=recorder,
        x0=x0,
    )


def _led(where: str, fn, *args):
    """``fn(*args)``, a set-up failure raised as a ConfigError led by
    ``where``, which names the key, or the config among a command's others."""
    try:
        return fn(*args)
    except (ValueError, oracle.OracleError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _shared(cfg: RunConfig) -> dict:
    """The config without the keys in which the replicas of a batch differ."""
    mapping = cfg.to_mapping()
    for path in (*BATCHED, "run.seed"):
        section, key = path.split(".")
        del mapping[section][key]
    return mapping


class OutputFile:
    """A file written through ``<name>.tmp``, in the directories it makes:
    ``text`` first, then whatever runs ``write`` through the open handle,
    until ``publish`` closes it and renames the file to its own name."""

    def __init__(self, path: Path, text: str):
        if path.is_dir():  # os.replace would find it only after the command's work
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        self.path = path
        self.tmp = path.with_name(path.name + ".tmp")
        # the directories this file makes, deepest first, for discard
        self.made = [d for d in (path.parent, *path.parent.parents) if not d.exists()]
        path.parent.mkdir(parents=True, exist_ok=True)
        self.file = None  # until the tmp file opens, which can fail: too many files open, say
        with _discard_on_failure([self]):
            self.file = self.tmp.open("w")
            self.write(text)

    def write(self, text: str) -> None:
        self.file.write(text)

    def publish(self) -> None:
        self.file.close()
        os.replace(self.tmp, self.path)

    def discard(self) -> None:
        """Close and remove the unpublished file, opened or not, and the directories made for it."""
        if self.file is not None:
            self.file.close()
        if self.file is None or self.tmp.exists():
            self.tmp.unlink(missing_ok=True)
            for directory in self.made:
                directory.rmdir()


@contextmanager
def _discard_on_failure(files: list[OutputFile]):
    """Discard every file of ``files`` not yet published if the block
    raises, last first, so a failed command leaves no partial output and the
    directories a file made are empty when it removes them. An OSError in
    one discard stops no other; the block's own exception is raised, its
    ``kept`` listing the tmp files still on disk."""
    try:
        yield
    except BaseException as exc:
        for file in reversed(files):
            with suppress(OSError):
                file.discard()
        # an enclosing block may hold the same files, or others
        tmps = {*getattr(exc, "kept", ()), *(file.tmp for file in files)}
        exc.kept = sorted(tmp for tmp in tmps if tmp.exists())
        raise


class RunLog:
    """One run's recorder for ``dynamics.run``. Per snapshot block it times
    ``recorder`` into ``record_s``, then formatting and appending the rows,
    led by ``label`` when given, to ``csv`` into ``write_s``. It keeps the
    record count, the last record and, with ``fit``, the t and V columns
    that ``rate_fit`` reads; it returns no records, so the run keeps none."""

    def __init__(self, csv: OutputFile, recorder: MetricsRecorder, label: str | None = None,
                 fit: bool = False):
        self.csv, self.recorder, self.lead = csv, recorder, "" if label is None else f"{label},"
        self.count, self.last = 0, None
        self.record_s = self.write_s = 0.0
        self.t, self.V = (array("d"), array("d")) if fit else (None, None)

    def __call__(self, snaps: dynamics.ParticleSystem) -> tuple:
        started = time.perf_counter()
        records = self.recorder(snaps)
        recorded = time.perf_counter()
        self.csv.write(records_to_csv(records, self.lead))
        self.record_s += recorded - started
        self.write_s += time.perf_counter() - recorded
        self.count += len(records)
        self.last = records[-1]
        if self.t is not None:
            self.t.extend(r.t for r in records)
            self.V.extend(r.V for r in records)
        return ()


def execute(setup: RunSetup, cfgs: list[RunConfig], logs: list[RunLog]
            ) -> list[tuple[dict, dynamics.DivergenceError | None]]:
    """Integrate configs that differ at most in the ``BATCHED`` keys and the
    run seed as one batch, from ``setup``, the ``prepare`` of the first.
    Each run's snapshot blocks go to its entry of ``logs`` as they are
    taken. Returns (manifest mapping, divergence) per config, where a run
    that diverged has logged the records taken before the blow-up and holds
    its DivergenceError, whose ``records`` is empty, and any other run None.
    One config is a batch of one."""
    if any(_shared(cfg) != _shared(cfgs[0]) for cfg in cfgs[1:]):
        raise ValueError(
            f"configs of a batch may differ only in {', '.join(BATCHED)} and run.seed"
        )
    a = cfgs[0]["algorithm"]
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
        recorder=logs,
        x0_rows=[setup.x0] * len(cfgs),
    )
    integrate_s = time.perf_counter() - started
    results = []
    for cfg, log, outcome in zip(cfgs, logs, outcomes):
        divergence = outcome if isinstance(outcome, dynamics.DivergenceError) else None
        timings = {**setup.timings, "integrate_s": integrate_s, "record_s": log.record_s,
                   "write_s": log.write_s}
        results.append((build_manifest(cfg, setup, timings, log.count, divergence), divergence))
    return results


def _float_or_none(v: float) -> float | None:
    """``v``, or None, which JSON can hold, for a non-finite ``v``."""
    return v if np.isfinite(v) else None


def build_manifest(
    cfg: RunConfig, setup: RunSetup, timings: dict, n_records: int, divergence
) -> dict:
    """Run manifest; ``timings`` holds prepare_s and integrate_s, the seconds
    spent in ``prepare`` and in ``dynamics.run``; the parts of prepare_s
    spent on the problem (generate_s), the graph and its spectra
    (spectra_s), the dual map (dual_s), the oracle (oracle_s) and the
    constants (constants_s); and the parts of integrate_s spent in the
    recorder (record_s) and on the records' CSV rows (write_s), both timed
    per snapshot block. In a batch, prepare_s, its parts and integrate_s
    are the batch's and record_s and write_s the run's own. ``record_share``
    is record_s / integrate_s. A diverged run gains a ``diverged`` block."""
    opt, cst = setup.opt, setup.constants
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
            **{f.name: _float_or_none(getattr(cst, f.name)) for f in fields(cst)},
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


def _open(files: list[OutputFile], path: Path, text: str = "") -> OutputFile:
    """``OutputFile(path, text)``, added to ``files`` as soon as it is made."""
    files.append(OutputFile(path, text))
    return files[-1]


def _write_atomic(files: list[OutputFile], texts: dict[Path, str] | None = None) -> None:
    """Write each of ``texts`` to its path through its tmp file after the
    open ``files``, then publish all of them in order: none is renamed until
    every one is written. No failure leaves a tmp file behind."""
    with _discard_on_failure(files):
        for path, text in (texts or {}).items():
            _open(files, path, text).file.close()  # no handle held per bundle block
        for file in files:
            file.publish()


def _matrix_csv(arr: np.ndarray) -> str:
    """The rows of ``arr``, a vector as one row, in the shortest round-trip decimals."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in np.atleast_2d(arr))


def load_matrix(path: Path | str, key: str | None = None, shape: tuple | None = None,
                axes=("row", "column")) -> np.ndarray:
    """The matrix in the CSV file at ``path``, of ``shape`` if given: (rows, columns), or (k,) for
    a vector of k entries in one row or one column. A fault raises a ConfigError naming ``key`` and
    the file, or without a key a ValueError naming the file; ``axes`` place a non-finite entry."""
    error = ValueError if key is None else ConfigError
    where = path if key is None else f"{key} file {path}"
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # rejected below
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:  # ragged, not a number or not UTF-8; numpy's usecols hint dropped
        raise error(f"{where} is not a CSV of numbers: {str(exc).partition('; use')[0]}") from exc
    if rows.size == 0:
        raise error(f"{where} holds no entries")
    if shape is not None and rows.shape not in (shape, (1, *shape), (*shape, 1)):
        want = ("{}x{} matrix" if len(shape) == 2 else "{}-entry row or column").format(*shape)
        raise error(f"{where} must hold a {want}, got {rows.shape[0]}x{rows.shape[1]}")
    bad = np.argwhere(~np.isfinite(rows))
    if len(bad):
        i, j = bad[0]
        raise error(f"{key or path} must be finite, got {float(rows[i, j])!r} "
                    f"at {axes[0]} {i}, {axes[1]} {j}")
    return rows if shape is None else rows.reshape(shape)


def save_problem_bundle(problem: DistributedProblem, out_dir: Path | str) -> Path:
    """Write one CSV per matrix plus a manifest, last, so runs can be replayed."""
    out = Path(out_dir)
    texts, entries = {}, []
    for i, (q, b) in enumerate(zip(problem.q, problem.b)):
        qname, bname = f"q_{i:03d}.csv", f"b_{i:03d}.csv"
        texts[out / qname], texts[out / bname] = _matrix_csv(q), _matrix_csv(b)
        entries.append({"q": qname, "b": bname})
    manifest = {
        "bundle_version": BUNDLE_VERSION,
        "d": problem.d,
        "m": problem.m,
        "n": problem.n,
        "domain": problem.domain,
        "blocks": entries,
        "minimizer": None,
    }
    if problem.minimizer is not None:
        texts[out / "minimizer.csv"] = _matrix_csv(problem.minimizer)
        manifest["minimizer"] = "minimizer.csv"
    texts[out / MANIFEST_FILE] = json.dumps(manifest, indent=2) + "\n"
    _write_atomic([], texts)
    return out / MANIFEST_FILE


def load_problem_bundle(bundle_dir: Path | str) -> DistributedProblem:
    """The problem saved in ``bundle_dir``; a ValueError names a bad manifest or file."""
    root = Path(bundle_dir)
    path = root / MANIFEST_FILE
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"bundle manifest {path} is not JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"bundle manifest {path} must hold a JSON object, got {manifest!r}")
    missing = [key for key in ("n", "m", "d", "domain", "blocks") if key not in manifest]
    if missing:
        raise ValueError(f"bundle manifest {path} lacks {', '.join(missing)}")
    if manifest.get("bundle_version") != BUNDLE_VERSION:
        raise ValueError(f"bundle {root} has bundle_version {manifest.get('bundle_version')!r}, "
                         f"but this dismd reads bundle_version {BUNDLE_VERSION}")
    n, m, d, domain, blocks, name = map(manifest.get, ("n", "m", "d", "domain", "blocks",
                                                       "minimizer"))
    for key, size in (("n", n), ("m", m), ("d", d)):
        if type(size) is not int or size < 1:
            raise ValueError(f"bundle manifest {path} must give {key} as an integer >= 1, "
                             f"got {size!r}")
    if domain not in DOMAINS:
        raise ValueError(f"bundle manifest {path} must give domain as one of {DOMAINS}, "
                         f"got {domain!r}")
    if not (isinstance(blocks, list) and len(blocks) == n and all(
            isinstance(entry, dict) and all(isinstance(entry.get(f), str) for f in "qb")
            for entry in blocks)):
        raise ValueError(f"bundle manifest {path} must list n = {n} blocks naming q and b files")
    if not (name is None or isinstance(name, str)):
        raise ValueError(f"bundle manifest {path} must give minimizer as null or a file name, "
                         f"got {name!r}")
    q = np.stack([load_matrix(root / entry["q"], shape=(m, d)) for entry in blocks])
    b = np.stack([load_matrix(root / entry["b"], shape=(m,)) for entry in blocks])
    minimizer = load_matrix(root / name, shape=(d,)) if name else None
    return DistributedProblem(q=q, b=b, domain=domain, minimizer=minimizer)


def _open_run(files: list[OutputFile], out: Path) -> tuple[OutputFile, OutputFile]:
    """A run's metrics CSV, holding its header, and its empty manifest, in ``out``."""
    return _open(files, out / METRICS_FILE, csv_header() + "\n"), _open(files, out / MANIFEST_FILE)


def write_run_outputs(file: OutputFile, manifest) -> None:
    """Write a run's manifest, or a compare's manifests, into its open file."""
    file.write(json.dumps(manifest, indent=2) + "\n")


def _raise_first(divergences, written: list[Path]) -> None:
    """Raise the first divergence of (run label, divergence or None) pairs,
    labelled with its run and naming the files its command wrote."""
    for label, divergence in divergences:
        if divergence is not None:
            divergence.run, divergence.written = label, tuple(written)
            raise divergence


def cmd_run(cfg: RunConfig, out_dir: Path | str) -> tuple[Path, Path]:
    """Run one config and write its metrics CSV and manifest; a run that
    diverged writes both and then raises its DivergenceError. A set-up
    failure writes nothing."""
    setup, files = prepare(cfg), []
    with _discard_on_failure(files):
        csv, manifest = _open_run(files, Path(out_dir))
        [(mapping, divergence)] = execute(setup, [cfg], [RunLog(csv, setup.recorder)])
        write_run_outputs(manifest, mapping)
        _write_atomic(files)
    _raise_first([(None, divergence)], [csv.path, manifest.path])
    return csv.path, manifest.path


def cmd_compare(configs: list[RunConfig], labels: list[str], out_dir: Path | str) -> Path:
    """Run several configs, in order, and emit one label-keyed CSV of
    aligned records.

    Every config is set up before any runs; a set-up failure is a
    ConfigError naming the config's label, and writes nothing. A run that
    diverges contributes the records taken before the blow-up,
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
                raise ConfigError(f"compare configs must share hyperparams.{key} "
                                  f"({h[key]} != {base[key]})")
    setups = [_led(f"config {label}", prepare, cfg) for cfg, label in zip(configs, labels)]
    out, files, manifests, divergences = Path(out_dir), [], {}, []
    with _discard_on_failure(files):
        csv = _open(files, out / "compare.csv", "run," + csv_header() + "\n")
        manifest = _open(files, out / MANIFEST_FILE)
        for setup, cfg, label in zip(setups, configs, labels):
            [(manifests[label], divergence)] = execute(setup, [cfg],
                                                       [RunLog(csv, setup.recorder, label)])
            divergences.append((label, divergence))
        write_run_outputs(manifest, manifests)
        _write_atomic(files)
    _raise_first(divergences, [csv.path, manifest.path])
    return csv.path


def cmd_sweep(cfg: RunConfig, param: str, raw_values: list[str], out_dir: Path | str) -> Path:
    """One independent seeded run per parameter value plus a summary CSV.

    Each raw value is converted and validated by the config schema, as a
    loaded value is, and set up before any run starts; a set-up failure is
    a ConfigError naming the parameter and the value, and writes nothing.
    The values of a ``BATCHED`` parameter, a ``dynamics.PER_REPLICA`` key,
    run as one batch with one set-up, the other keys one run at a time;
    either way value i runs with seed base + i, streams its own metrics CSV
    and writes the same bytes. A diverged value writes its run as ``cmd_run``
    does and its last finite record as its summary row; once every file is
    written, the first divergence is raised."""
    if param not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter path {param!r}; choose from {SWEEPABLE}")
    if not raw_values:
        raise ConfigError("sweep needs at least one value")
    section, key = param.split(".", 1)
    base_seed = cfg["run"]["seed"]
    run_cfgs = [cfg.with_values({param: raw, "run.seed": base_seed + index})
                for index, raw in enumerate(raw_values)]
    values = [run_cfg[section][key] for run_cfg in run_cfgs]
    if len(set(values)) < len(values):
        raise ConfigError(f"sweep values must be distinct, got {','.join(raw_values)}")
    runs = list(zip(raw_values, run_cfgs))
    batches = [runs] if param in BATCHED else [[run] for run in runs]
    setups = [_led(f"{param} = {','.join(raw for raw, _ in batch)}", prepare, batch[0][1])
              for batch in batches]
    out, files, divergences = Path(out_dir), [], []
    with _discard_on_failure(files):
        opened = {raw: _open_run(files, out / f"{key}_{raw}") for raw in raw_values}
        summary = _open(files, out / "summary.csv",
                        "value,seed," + csv_header() + ",rate_r,rate_r_squared\n")
        for setup, batch in zip(setups, batches):
            logs = [RunLog(opened[raw][0], setup.recorder, fit=True) for raw, _ in batch]
            results = execute(setup, [run_cfg for _, run_cfg in batch], logs)
            for (raw, run_cfg), log, (mapping, divergence) in zip(batch, logs, results):
                write_run_outputs(opened[raw][1], mapping)
                divergences.append((log.csv.path.parent.name, divergence))
                try:
                    fit = rate_fit(log.t, log.V, window=0.5)
                    r, r2 = fit.r, fit.r_squared
                except ValueError:
                    r, r2 = float("nan"), float("nan")
                summary.write(f"{raw},{run_cfg['run']['seed']},{log.last.to_csv_row()},"
                              f"{r!r},{r2!r}\n")
        _write_atomic(files)
    _raise_first(divergences, [*(out / name for name, _ in divergences), summary.path])
    return summary.path


def graph_info_report(cfg: RunConfig, out_dir: Path | str | None = None) -> str:
    """The report of the graph's spectra; given ``out_dir``, the same graph's
    adjacency and Laplacian matrices are first written there, both or neither."""
    graph = build_weighted_graph(cfg, build_problem(cfg).n)
    spec = spectra(graph, cfg["graph"]["beta"])
    if out_dir is not None:
        out = Path(out_dir)
        _write_atomic([], {out / "adjacency.csv": _matrix_csv(graph.adjacency),
                           out / "laplacian.csv": _matrix_csv(graph.laplacian)})
    lines = [
        f"nodes: {graph.n}",
        f"edges: {len(graph.edges)}",
        f"laplacian eigenvalues: min {graph.eigenvalues[0]:.6g}, max {graph.eigenvalues[-1]:.6g}",
        f"algebraic connectivity: {spec.algebraic_connectivity:.6g}",
        f"kappa_n: {spec.kappa_n!r}",
        f"kappa_beta (beta={spec.beta!r}): {spec.kappa_beta!r}",
    ]
    if graph.n == 1:
        lines.append("warning: single-node graph is degenerate (kappa_n = 0)")
    return "\n".join(lines)


def oracle_report(cfg: RunConfig) -> str:
    problem = build_problem(cfg)
    opt = oracle.solve(problem, build_weighted_graph(cfg, problem.n))
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

"""The benchmark's workloads: which CLI command each runs, on which inputs.

Every input is made from the workload seed. Seed 0 reproduces the shipped
configs' instances and run seeds; seed s adds s to each run seed, so the
initial points (and, for the noisy sweep, the noise stream) change while the
problem instances and the amount of work stay fixed. The problem seeds are
never varied: the simplex oracle's iteration count depends on the instance
(0.1 s to 3 s over problem seeds 9..20), which would swamp the timing.

The entropy map always starts from a fixed point unless ``algorithm.x0`` is
given, so the simplex workload draws its initial rows from the seed (seed 0
keeps the shipped uniform start).

Horizons are shorter than the shipped 50 000 epochs so that one run of the
benchmark holds several repetitions of every command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

# Instances of the shipped configs (configs/*.ini), copied so that a later
# edit of those files does not silently change the benchmark's inputs.
PROBLEM_A = {
    "kind": "generate", "seed": 7, "d": 20, "m": 20, "n": 10,
    "condition_number": 15, "shared_minimizer": "false", "domain": "unconstrained",
}
PROBLEM_BARBELL = {
    "kind": "generate", "seed": 11, "d": 20, "m": 20, "n": 10,
    "condition_number": 15, "domain": "unconstrained",
}
PROBLEM_B = {
    "kind": "generate", "seed": 9, "d": 10, "m": 10, "n": 10,
    "condition_number": 15, "shared_minimizer": "true", "domain": "simplex",
}
CYCLIC = {"topology": "cyclic", "beta": 1.0}
BARBELL = {"topology": "barbell", "cluster": 5, "beta": 1.0}
DESK_HP = {"eta": 1.0, "epsilon": 1.0, "sigma": 0.0, "dt": 0.01}


@dataclass(frozen=True)
class RunSpec:
    """One config the command runs."""

    label: str
    sections: dict
    base_run_seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                    # dismd subcommand: run, compare or sweep
    runs: tuple[RunSpec, ...]
    epochs: int
    metrics_every: int
    sweep_param: str | None = None
    sweep_values: tuple[str, ...] = ()
    random_simplex_start: bool = False
    # [low, high) of each run's final kkt_consensus at the full horizon, for
    # any seed; keyed by run label, or by sweep value for a sweep.
    kkt_ranges: dict = field(default_factory=dict)
    # Span names (see spans.WRAPPERS) that the traced run must see fire.
    hits: frozenset = field(default_factory=frozenset)

    def config_texts(self, seed: int, epochs: int, x0_path: Path | None) -> dict[str, str]:
        """INI text per run label, for this seed and horizon."""
        texts = {}
        for spec in self.runs:
            sections = {k: dict(v) for k, v in spec.sections.items()}
            sections["hyperparams"].update(epochs=epochs, metrics_every=self.metrics_every)
            sections["run"] = {"seed": spec.base_run_seed + seed}
            if x0_path is not None:
                sections["algorithm"]["x0"] = str(x0_path)
            texts[spec.label] = _ini(sections)
        return texts

    def argv(self, config_paths: list[Path], out: Path) -> list[str]:
        """Arguments after ``python -m dismd``."""
        args = [self.command]
        for path in config_paths:
            args += ["--config", str(path)]
        if self.command == "sweep":
            args += ["--param", self.sweep_param, "--values", ",".join(self.sweep_values)]
        return args + ["--out", str(out), "--quiet"]

    def csv_files(self) -> dict[str, tuple[str, ...]]:
        """Relative CSV path -> run labels whose records it holds."""
        if self.command == "compare":
            return {"compare.csv": tuple(s.label for s in self.runs)}
        if self.command == "sweep":
            key = self.sweep_param.split(".", 1)[1]
            files = {f"{key}_{v}/metrics.csv": (self.runs[0].label,) for v in self.sweep_values}
            files["summary.csv"] = ()
            return files
        return {"metrics.csv": (self.runs[0].label,)}

    def manifests(self) -> list[str]:
        if self.command == "sweep":
            key = self.sweep_param.split(".", 1)[1]
            return [f"{key}_{v}/manifest.json" for v in self.sweep_values]
        return ["manifest.json"]


def _ini(sections: dict) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
        lines.append("")
    return "\n".join(lines)


def _spec(label, problem, graph, algorithm, hp, run_seed):
    return RunSpec(
        label=label,
        sections={"problem": problem, "graph": graph, "algorithm": algorithm,
                  "hyperparams": hp},
        base_run_seed=run_seed,
    )


COMMON_HITS = {
    "harness.execute", "harness.prepare", "harness.generate_problem", "harness.spectra",
    "oracle.solve", "diagnostics.compute_constants", "dynamics.run",
    "DistributedProblem.grads", "MetricsRecorder.__call__", "MetricsRecord.to_csv_row",
    "harness._write_atomic",
}

# The final kkt_consensus ranges. A deterministic exact run (sigma = 0,
# eismd or epismd) converges, so it only has a ceiling: 3x (ladder, 2.74 of
# an initial 38) to 60x (desk eismd) above the largest final value over
# reference seeds 0-31. ismd stalls at its bias floor and a noisy run at its
# noise floor; their ranges reach from half the smallest to twice the
# largest final value over those seeds (ismd 2.69 on every seed; noisy-sweep
# 0.35-0.44, 0.70-0.87 and 1.41-1.74 for the three sigmas).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-compare",
            why="the hot loop: all three step kernels on the desk instance, sigma=0, "
                "set-up under a tenth of the wall time and no noise drawn",
            command="compare",
            runs=(
                _spec("problem_a_eismd", PROBLEM_A, CYCLIC,
                      {"name": "eismd", "interaction_on": "x", "map": "euclidean"},
                      DESK_HP, 0),
                _spec("problem_a_ismd", PROBLEM_A, CYCLIC,
                      {"name": "ismd", "map": "euclidean"}, DESK_HP, 0),
                _spec("barbell_epismd", PROBLEM_BARBELL, BARBELL,
                      {"name": "epismd", "map": "euclidean", "dual": "dual_hessian",
                       "dual_beta": 0.01},
                      DESK_HP, 3),
            ),
            epochs=20_000,
            metrics_every=50,
            kkt_ranges={"problem_a_eismd": (0.0, 1e-3), "problem_a_ismd": (1.3, 5.4),
                        "barbell_epismd": (0.0, 1.0)},
            hits=frozenset(COMMON_HITS | {
                "dynamics.ismd_step", "dynamics.eismd_step", "dynamics.epismd_step",
                "EuclideanMap.backward", "RegularizedDualHessian.backward",
                "diagnostics.kappa_g_estimate", "harness.build_dual",
            }),
        ),
        Workload(
            name="noisy-sweep",
            why="sigma>0 sweep with a dense recorder: noise blocks, metrics recording, "
                "per-value CSV writing and rate_fit",
            command="sweep",
            runs=(
                _spec("problem_a_eismd", PROBLEM_A, CYCLIC,
                      {"name": "eismd", "interaction_on": "x", "map": "euclidean"},
                      DESK_HP, 0),
            ),
            epochs=10_000,
            metrics_every=10,
            sweep_param="hyperparams.sigma",
            sweep_values=("0.05", "0.1", "0.2"),
            kkt_ranges={"0.05": (0.17, 0.9), "0.1": (0.35, 1.8), "0.2": (0.7, 3.5)},
            hits=frozenset(COMMON_HITS | {
                "dynamics.eismd_step", "dynamics.NoiseStream.block", "EuclideanMap.backward",
                "harness.write_run_outputs", "harness.records_to_csv", "harness.rate_fit",
            }),
        ),
        Workload(
            name="setup-ladder40",
            why="set-up dominates: n=d=m=40 barbell with the dual-Hessian preconditioner, "
                "dense (n*d)^2 objects in kappa_g and the constants",
            command="run",
            runs=(
                _spec("ladder40_epismd",
                      dict(PROBLEM_BARBELL, d=40, m=40, n=40),
                      dict(BARBELL, cluster=20),
                      {"name": "epismd", "map": "euclidean", "dual": "dual_hessian",
                       "dual_beta": 0.01},
                      DESK_HP, 3),
            ),
            epochs=2_000,
            metrics_every=50,
            kkt_ranges={"ladder40_epismd": (0.0, 10.0)},
            hits=frozenset(COMMON_HITS | {
                "dynamics.epismd_step", "EuclideanMap.backward",
                "RegularizedDualHessian.backward", "diagnostics.kappa_g_estimate",
                "harness.build_dual", "harness.write_run_outputs", "harness.records_to_csv",
            }),
        ),
        Workload(
            name="simplex-entropy",
            why="the only entropy-map workload: softmax backward every step and the "
                "iterative simplex oracle in set-up",
            command="run",
            runs=(
                _spec("problem_b_simplex", PROBLEM_B, CYCLIC,
                      {"name": "eismd", "map": "entropy"},
                      {"eta": 30.0, "epsilon": 15.0, "sigma": 0.0, "dt": 0.02},
                      0),
            ),
            epochs=20_000,
            metrics_every=100,
            kkt_ranges={"problem_b_simplex": (0.0, 1e-2)},
            random_simplex_start=True,
            hits=frozenset(COMMON_HITS | {
                "dynamics.eismd_step", "EntropyMap.backward",
                "harness.write_run_outputs", "harness.records_to_csv",
            }),
        ),
    )
}

# Horizon of the --smoke mode: enough records for rate_fit, seconds in total.
SMOKE_EPOCHS = 200

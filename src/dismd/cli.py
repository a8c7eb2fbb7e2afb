"""Command line interface.

Subcommands and the options each reads:
  run, compare, sweep    --config (repeatable for compare), --seed, --out, --quiet;
                         sweep also --param and --values
  graph-info             --config, --out (also export the matrices), --quiet
  problem-gen            --config, --out, --quiet
  oracle                 --config
Exit codes: 0 ok, 1 usage, config or validation error, 2 numerical
divergence (after the command has written all its files), 3 I/O.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .config import ConfigError, RunConfig, load_config
from .dynamics import DivergenceError
from .oracle import OracleError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3

# the options subcommands share; each subcommand declares only those it reads
OPTIONS = {
    "config": {"required": True, "help": "config file"},
    "seed": {"type": int, "default": None, "help": "override run seed"},
    "out": {"default": None, "help": "output directory"},
    "quiet": {"action": "store_true", "help": "suppress progress output"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dismd",
        description="Distributed stochastic mirror descent simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, *options):
        p = sub.add_parser(name, help=help)
        for option in options:
            p.add_argument(f"--{option}", **OPTIONS[option])
        return p

    add("run", "run one experiment", "config", "seed", "out", "quiet")
    compare = add("compare", "run several configs, one aligned CSV", "seed", "out", "quiet")
    compare.add_argument("--config", action="append", required=True, dest="configs",
                         help="config file (repeatable)")
    sweep = add("sweep", "rerun one config across parameter values",
                "config", "seed", "out", "quiet")
    sweep.add_argument("--param", required=True, help="parameter path, e.g. hyperparams.sigma")
    sweep.add_argument("--values", required=True, help="comma-separated values")
    add("graph-info", "print graph spectra report", "config", "out", "quiet")
    add("problem-gen", "generate and save a problem bundle", "config", "out", "quiet")
    add("oracle", "solve the reference optimum and print it", "config")
    return parser


def _load(path: str, seed: int | None) -> RunConfig:
    cfg = load_config(path)
    return cfg if seed is None else cfg.with_values({"run.seed": seed})


def _out_dir(args, cfg: RunConfig | None = None) -> Path:
    if args.out is not None:
        return Path(args.out)
    if cfg is not None and cfg["run"]["out"]:
        return Path(cfg["run"]["out"])
    raise ConfigError("no output directory: set run.out in the config or pass --out")


def _dispatch(args) -> int:
    if args.command == "run":
        cfg = _load(args.config, args.seed)
        metrics_path, manifest_path = harness.cmd_run(cfg, _out_dir(args, cfg))
        if not args.quiet:
            print(f"wrote {metrics_path} and {manifest_path}")
        return EXIT_OK

    if args.command == "compare":
        configs, labels = [], []
        for path in args.configs:
            stem = label = Path(path).stem
            suffix = len(labels)
            while label in labels:  # x/a.ini and y/a.ini become a and a_1
                label = f"{stem}_{suffix}"
                suffix += 1
            if set(label) & set(',"\r\n'):  # it leads each unquoted compare.csv row
                raise ConfigError(f"config {path}: label {label!r} holds a comma, quote or newline")
            configs.append(_load(path, args.seed))
            labels.append(label)
        csv_path = harness.cmd_compare(configs, labels, _out_dir(args, configs[0]))
        if not args.quiet:
            print(f"wrote {csv_path}")
        return EXIT_OK

    if args.command == "sweep":
        cfg = _load(args.config, args.seed)
        values = [v.strip() for v in args.values.split(",") if v.strip()]
        summary = harness.cmd_sweep(cfg, args.param, values, _out_dir(args, cfg))
        if not args.quiet:
            print(f"wrote {summary}")
        return EXIT_OK

    if args.command == "graph-info":
        print(harness.graph_info_report(load_config(args.config), args.out))
        if args.out is not None and not args.quiet:
            print(f"wrote adjacency.csv and laplacian.csv to {args.out}")
        return EXIT_OK

    if args.command == "problem-gen":
        cfg = load_config(args.config)
        out = _out_dir(args, cfg)
        problem = harness.build_problem(cfg)
        manifest = harness.save_problem_bundle(problem, out)
        if not args.quiet:
            print(f"wrote problem bundle to {manifest.parent}")
        return EXIT_OK

    if args.command == "oracle":
        cfg = load_config(args.config)
        print(harness.oracle_report(cfg))
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or the usage and the error
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return _dispatch(args)
    except (ValueError, OracleError, DivergenceError, OSError) as exc:
        io = isinstance(exc, OSError)
        kept = getattr(exc, "kept", ())  # the tmp files a failed command could not remove
        tail = f"; could not remove {', '.join(map(str, kept))}" if kept else ""
        print(f"{'i/o error' if io else 'error'}: {exc}{tail}", file=sys.stderr)
        if isinstance(exc, DivergenceError):  # run, compare and sweep have written every file
            return EXIT_DIVERGED
        return EXIT_IO if io else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

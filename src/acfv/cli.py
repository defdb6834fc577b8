"""Command-line entry point.

Commands bind configuration files (a preset is a packaged one) to the study
drivers and, once the run has succeeded, write CSV artifacts and then a
run manifest into the output directory: a failed command writes nothing.
Exit codes: 0 success, 1 a check failed, 2 configuration error (also a
run too large for memory), 3 numerical failure.  The worker count for
Monte Carlo path blocks is taken from the ACFV_WORKERS environment
variable; everything else comes from the configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from .config import build_manifest, keys_read, load_config_file, preset_config
from .errors import ConfigError, NumericalFailure
from .experiments import (StudyConfig, convergence_study, expectation_study,
                          format_float, run_block, splitting_error_study,
                          write_error_csv, write_expectation_csv, write_fit_csv,
                          write_states_csv)
from .stochastic import load_increments

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

COMMANDS = ("table-repro", "simulate", "expectation", "convergence",
            "splitting-error", "validate")


def _workers() -> int:
    raw = os.environ.get("ACFV_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"ACFV_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError("ACFV_WORKERS must be >= 1")
    return workers


def _resolve_config(args) -> StudyConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        config = load_config_file(args.config, args.command)
    elif args.preset:
        config = preset_config(args.command, args.preset)
    else:
        raise ConfigError("a configuration is required (--config FILE or --preset NAME)")
    read = keys_read(args.command, config.path_file is not None)
    for key, option, value in (("seed", "--seed", args.seed), ("N_p", "--paths", args.paths)):
        if value is not None and key not in read:
            raise ConfigError(f"{args.command} does not read {key!r} ({option})")
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.paths is not None:
        config = replace(config, n_paths=args.paths)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    if os.path.exists(config.out_dir) and not os.path.isdir(config.out_dir):
        raise ConfigError(f"output directory {config.out_dir} exists and is not a directory")
    return config.validate()


def _prepare_out(command: str, config: StudyConfig, csvs: dict) -> list:
    """Write the CSVs (name -> path writer), then the manifest; return the CSV paths."""
    manifest = build_manifest(command, config)
    targets = [os.path.join(config.out_dir, name) for name in csvs]
    target = config.out_dir
    try:
        os.makedirs(target, exist_ok=True)
        for target, write in zip(targets, csvs.values()):
            write(target)
        target = os.path.join(config.out_dir, "manifest.txt")
        with open(target, "w", encoding="ascii") as fh:
            fh.write(manifest.text())
    except OSError as exc:
        what = "directory" if target == config.out_dir else "file"
        raise ConfigError(f"output {what} {target}: {exc.strerror}") from exc
    print(f"run {manifest.run_id} [{command}] -> {config.out_dir}")
    return targets


def cmd_table_repro(config: StudyConfig) -> int:
    from . import benchmark  # loaded only where it runs, as validation is

    if config.path_file is None:
        raise ConfigError("table-repro needs path_file (the injected driving increments)")
    report = benchmark.run_benchmark_tables(config.path_file)
    _prepare_out("table-repro", config, {
        f"{name}.csv": partial(write_states_csv, states=states, first_step=1)
        for name, states in report.tables.items()})
    for name, states in report.tables.items():
        print(name)
        for n, state in enumerate(states, start=1):
            print(f"  n={n}  " + "  ".join(f"{v: .8f}" for v in state))
    verdict = "PASS" if report.passed else "FAIL"
    print(f"max deviation from reference tables: {report.max_deviation:.3g} "
          f"(tolerance {benchmark.TABLE_TOLERANCE:g}) {verdict}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_simulate(config: StudyConfig) -> int:
    if len(config.amplitudes) != 1:
        raise ConfigError(f"simulate runs one amplitude, got 'a' = {config.amplitudes}")
    if config.path_file is not None:
        # The injected path replaces the one sampled from 'seed' on N_max steps.
        path = load_increments(config.path_file)[None]
        n_fine = path.shape[1]
        if config.n_fine not in (None, n_fine):
            raise ConfigError(f"'N_max' = {config.n_fine}, but path_file holds "
                              f"{n_fine} increments")
    else:
        path, n_fine = range(1), config.resolved_n_fine()
    n_steps = n_fine if config.n_steps is None else config.n_steps
    if n_fine % n_steps:
        raise ConfigError(f"N={n_steps} must divide the {n_fine} fine increments")
    # Path 0 runs as a one-row block.
    _, u0, runs = run_block(config, None, path, {n_steps: None}, config.variant)
    states = [u0] + [state[0].copy() for _, _, _, state in runs]
    target, = _prepare_out("simulate", config, {
        "trajectory.csv": partial(write_states_csv, states=states, first_step=0)})
    print(f"wrote {target} ({n_steps} steps, variant {config.variant}, "
          f"final mean {format_float(float(np.mean(states[-1])))})")
    return EXIT_OK


def cmd_expectation(config: StudyConfig) -> int:
    results = expectation_study(config, workers=_workers())
    target, = _prepare_out("expectation", config, {
        "expectation.csv": partial(write_expectation_csv, results=results)})
    for r in results:
        print(f"a={r.amplitude:g} n={r.checkpoint} E={r.mean:.8f} drift={r.drift:.8f}")
    print(f"wrote {target}")
    return EXIT_OK


def cmd_convergence(config: StudyConfig) -> int:
    n_fine = config.resolved_n_fine()
    if n_fine in config.n_steps_list:
        raise ConfigError(f"'N_list' holds N_max = {n_fine}, the reference run "
                          "every error is measured against")
    curves = convergence_study(config, workers=_workers())
    errors_target, fit_target = _prepare_out("convergence", config, {
        "error.csv": partial(write_error_csv, curves=curves),
        "fit.csv": partial(write_fit_csv, curves=curves)})
    for curve in curves:
        print(f"a={curve.amplitude:g}: order m = {curve.slope:.6f}")
    print(f"wrote {errors_target} and {fit_target}")
    return EXIT_OK


def cmd_splitting_error(config: StudyConfig) -> int:
    curve = splitting_error_study(config, workers=_workers())
    errors_target, fit_target = _prepare_out("splitting-error", config, {
        "splitting_error.csv": partial(write_error_csv, curves=[curve]),
        "splitting_error_fit.csv": partial(write_fit_csv, curves=[curve])})
    print(f"a={curve.amplitude:g}: gap slope m = {curve.slope:.6f}")
    print(f"wrote {errors_target} and {fit_target}")
    return EXIT_OK


def cmd_validate(seed: int) -> int:
    from . import validation

    if seed < 0:  # numpy's generators take nonnegative seeds only
        raise ConfigError(f"seed must be >= 0, got {seed}")
    checks = validation.run_all(seed=seed)
    for check in checks:
        print(check.line())
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acfv",
        description="Finite-volume lab for the constrained stochastic heat flow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        if name != "validate":
            cmd.add_argument("--config", help="flat key-value configuration file")
            cmd.add_argument("--preset", choices=("desk", "paper"),
                             help="built-in configuration: desk scale or full scale")
            cmd.add_argument("--out", help="output directory (overrides out_dir)")
            cmd.add_argument("--paths", type=int, help="path count override")
        cmd.add_argument("--seed", type=int, help="seed override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            seed = args.seed if args.seed is not None else 20252
            return cmd_validate(seed)
        config = _resolve_config(args)
        handler = {
            "table-repro": cmd_table_repro,
            "simulate": cmd_simulate,
            "expectation": cmd_expectation,
            "convergence": cmd_convergence,
            "splitting-error": cmd_splitting_error,
        }[args.command]
        return handler(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"configuration error: {args.command} does not fit in memory: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        detail = "" if exc.residual is None else f" (residual {exc.residual})"
        print(f"numerical failure: {exc}{detail}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Commands bind configuration files (or built-in presets) to the study
drivers and write CSV artifacts plus a run manifest into the output
directory.  Exit codes: 0 success, 1 a check failed, 2 configuration
error, 3 numerical failure.  The worker count for Monte Carlo path
blocks is taken from the ACFV_WORKERS environment variable; everything
else comes from the configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import benchmark, validation
from .assembly import assemble_mass, assemble_stiffness
from .config import build_manifest, key_of, load_config_file, preset_config
from .errors import ConfigError, NumericalFailure
from .experiments import (StudyConfig, convergence_study, expectation_study,
                          format_float, require_finite, splitting_error_study,
                          write_error_csv, write_expectation_csv, write_fit_csv)
from .linalg import ShiftedSolver
from .mesh import build_uniform_mesh, default_initial_state
from .scheme import SchemeParams, dump_trajectory_csv, run_trajectory, write_states_csv
from .stochastic import aggregate_increments, load_increments, sample_increment_block

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

COMMANDS = ("table-repro", "simulate", "expectation", "convergence",
            "splitting-error", "validate")

# StudyConfig fields each command does not read, with the value it runs
# with instead where that value is fixed (table-repro's benchmark
# scenario).  A field holding neither its default nor that value is
# rejected, so no key is silently ignored.  The Monte Carlo studies draw
# their own paths from (seed, path index), so they take no path_file.
_SCENARIO = {"cells_per_axis": benchmark.CELLS_PER_AXIS, "horizon": benchmark.HORIZON,
             "n_steps": len(benchmark.QUARTER_INCREMENTS),
             "n_fine": len(benchmark.QUARTER_INCREMENTS),
             "amplitudes": (benchmark.AMPLITUDE,), "epsilon": benchmark.EPS_SCHEDULE}
_UNREAD = {
    "table-repro": {**_SCENARIO, **dict.fromkeys(
        ("n_steps_list", "n_paths", "seed", "variant", "checkpoints", "half_width"))},
    "simulate": dict.fromkeys(("n_steps_list", "n_paths", "checkpoints")),
    "expectation": dict.fromkeys(("n_steps_list", "path_file")),
    "convergence": dict.fromkeys(("n_steps", "checkpoints", "path_file")),
    "splitting-error": dict.fromkeys(("n_steps", "checkpoints", "variant", "path_file")),
}


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
        config = load_config_file(args.config)
    elif args.preset:
        config = preset_config(args.command, args.preset)
    else:
        raise ConfigError("a configuration is required (--config FILE or --preset NAME)")
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.paths is not None:
        config = replace(config, n_paths=args.paths)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config.validate()


def _reject_unread(command: str, config: StudyConfig) -> None:
    """ConfigError naming the first key that ``command`` would not honour."""
    default = StudyConfig()
    for field, fixed in _UNREAD[command].items():
        value = getattr(config, field)
        if value != getattr(default, field) and value != fixed:
            scenario = "" if fixed is None else f": its benchmark scenario fixes {fixed}"
            raise ConfigError(f"{command} does not read {key_of(field)!r} = {value}{scenario}")


def _prepare_out(command: str, config: StudyConfig) -> str:
    manifest = build_manifest(command, config)
    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, "manifest.txt"), "w", encoding="ascii") as fh:
        fh.write(manifest.text())
    print(f"run {manifest.run_id} [{command}] -> {config.out_dir}")
    return config.out_dir


def cmd_table_repro(config: StudyConfig) -> int:
    path_file = config.path_file
    if path_file is None:
        raise ConfigError("table-repro needs path_file (the injected driving increments)")
    if not os.path.exists(path_file):
        raise ConfigError(f"path file not found: {path_file}")
    out_dir = _prepare_out("table-repro", config)
    report = benchmark.run_benchmark_tables(path_file)
    for name, states in report.tables.items():
        print(name)
        for n, state in enumerate(states, start=1):
            print(f"  n={n}  " + "  ".join(f"{v: .8f}" for v in state))
        write_states_csv(os.path.join(out_dir, f"{name}.csv"), states, first_step=1)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"max deviation from reference tables: {report.max_deviation:.3g} "
          f"(tolerance {benchmark.TABLE_TOLERANCE:g}) {verdict}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_simulate(config: StudyConfig) -> int:
    if len(config.amplitudes) != 1:
        raise ConfigError(f"simulate runs one amplitude, got 'a' = {config.amplitudes}")
    if config.path_file is not None:
        # The injected path replaces the one sampled from 'seed' on N_max steps.
        fine = load_increments(config.path_file)
        n_fine = fine.shape[0]
        if config.seed != StudyConfig().seed:
            raise ConfigError(f"simulate with path_file does not read 'seed' = {config.seed}")
        if config.n_fine not in (None, n_fine):
            raise ConfigError(f"'N_max' = {config.n_fine}, but path_file holds "
                              f"{n_fine} increments")
    else:
        n_fine = config.resolved_n_fine()
        fine = sample_increment_block(config.seed, [0], config.horizon, n_fine)[0]
    n_steps = config.n_steps or n_fine
    if n_fine % n_steps:
        raise ConfigError(f"N={n_steps} must divide the {n_fine} fine increments")
    out_dir = _prepare_out("simulate", config)
    params = SchemeParams(horizon=config.horizon, n_steps=n_steps,
                          epsilon=config.epsilon, amplitude=config.amplitudes[0],
                          variant=config.variant)
    mesh = build_uniform_mesh(config.cells_per_axis, config.half_width)
    u0 = default_initial_state(mesh)
    solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), params.tau)
    traj = run_trajectory(u0, aggregate_increments(fine, n_steps), params, solver,
                          keep_history=True)
    require_finite([traj.final], params.amplitude, n_steps)
    target = os.path.join(out_dir, "trajectory.csv")
    dump_trajectory_csv(traj, u0, target)
    print(f"wrote {target} ({n_steps} steps, variant {config.variant}, "
          f"final mean {format_float(float(np.mean(traj.final)))})")
    return EXIT_OK


def cmd_expectation(config: StudyConfig) -> int:
    out_dir = _prepare_out("expectation", config)
    results = expectation_study(config, workers=_workers())
    target = os.path.join(out_dir, "expectation.csv")
    write_expectation_csv(target, results)
    for r in results:
        print(f"a={r.amplitude:g} n={r.checkpoint} E={r.mean:.8f} drift={r.drift:.8f}")
    print(f"wrote {target}")
    return EXIT_OK


def cmd_convergence(config: StudyConfig) -> int:
    out_dir = _prepare_out("convergence", config)
    curves = convergence_study(config, workers=_workers())
    errors_target = os.path.join(out_dir, "error.csv")
    fit_target = os.path.join(out_dir, "fit.csv")
    write_error_csv(errors_target, curves)
    write_fit_csv(fit_target, curves)
    for curve in curves:
        print(f"a={curve.amplitude:g}: order m = {curve.slope:.6f}")
    print(f"wrote {errors_target} and {fit_target}")
    return EXIT_OK


def cmd_splitting_error(config: StudyConfig) -> int:
    out_dir = _prepare_out("splitting-error", config)
    curve = splitting_error_study(config, workers=_workers())
    errors_target = os.path.join(out_dir, "splitting_error.csv")
    fit_target = os.path.join(out_dir, "splitting_error_fit.csv")
    write_error_csv(errors_target, [curve])
    write_fit_csv(fit_target, [curve])
    print(f"a={curve.amplitude:g}: gap slope m = {curve.slope:.6f}")
    print(f"wrote {errors_target} and {fit_target}")
    return EXIT_OK


def cmd_validate(seed: int) -> int:
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
        cmd.add_argument("--config", help="flat key-value configuration file")
        cmd.add_argument("--preset", choices=("desk", "paper"),
                         help="built-in configuration: desk scale or full scale")
        cmd.add_argument("--out", help="output directory (overrides out_dir)")
        cmd.add_argument("--seed", type=int, help="seed override")
        cmd.add_argument("--paths", type=int, help="path count override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            seed = args.seed if args.seed is not None else 20252
            return cmd_validate(seed)
        config = _resolve_config(args)
        _reject_unread(args.command, config)
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
    except NumericalFailure as exc:
        detail = "" if exc.residual is None else f" (residual {exc.residual})"
        print(f"numerical failure: {exc}{detail}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""Child-process side of the benchmark; runs with the repository's src on PYTHONPATH.

    python3 bench/probe.py meta
        versions and the golden-table check, printed as one JSON line
    python3 bench/probe.py setup CONFIG
        set-up only: import acfv, load and validate the config, build the
        mesh and operators, one ShiftedSolver per distinct step size
    python3 bench/probe.py trace {full,pool} COMMAND CONFIG OUT RESULT SPANS
        one acfv CLI command in this process with spans recorded around each
        layer (full) or around the worker pool only (pool); per-layer
        metrics go to RESULT as JSON, the spans to SPANS
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
from pathlib import Path


def meta() -> int:
    import numpy
    import scipy
    from acfv import benchmark

    report = benchmark.run_benchmark_tables()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                      "scipy": scipy.__version__, "blas": blas,
                      "table_max_deviation": report.max_deviation,
                      "table_tolerance": benchmark.TABLE_TOLERANCE,
                      "tables_passed": bool(report.passed)}))
    return 0 if report.passed else 1


def setup(config_path: str) -> int:
    from acfv import (ShiftedSolver, assemble_mass, assemble_stiffness,
                      build_uniform_mesh, default_initial_state)
    from acfv.config import load_config_file

    config = load_config_file(config_path)
    mesh = build_uniform_mesh(config.cells_per_axis, config.half_width)
    default_initial_state(mesh)
    mass, stiffness = assemble_mass(mesh), assemble_stiffness(mesh)
    steps = {config.resolved_n_fine(), *config.n_steps_list}
    if config.n_steps:
        steps.add(config.n_steps)
    for n in sorted(steps):
        ShiftedSolver(mass, stiffness, config.horizon / n)
    return 0


def trace(mode: str, command: str, config_path: str, out: str, result: str, spans: str) -> int:
    from tracer import Tracer, analyse, install

    tracer = Tracer()
    install(tracer, pool_only=mode == "pool")
    from acfv import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = tracer.wrap("root.main", cli.main)([command, "--config", config_path, "--out", out])
    tracer.save(spans)
    summary = analyse(spans)
    summary["rc"] = rc
    summary["pool_starts"] = tracer.counts.get("experiments.pool_starts", 0)
    summary["bytes_written"] = sum(p.stat().st_size for p in Path(out).iterdir() if p.is_file())
    Path(result).write_text(json.dumps(summary), encoding="ascii")
    return rc


def main(argv) -> int:
    handlers = {"meta": meta, "setup": setup, "trace": trace}
    if not argv or argv[0] not in handlers:
        print(__doc__, file=sys.stderr)
        return 2
    return handlers[argv[0]](*argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

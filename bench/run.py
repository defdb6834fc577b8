"""Benchmark of the acfv Monte Carlo studies.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Each workload (see workloads.py) runs one acfv CLI command,
``python -m acfv.cli COMMAND --config CFG``, in a child process with the
repository's ``src`` on PYTHONPATH.  The config is generated from the seed;
the program sees nothing else of the benchmark.

--trace 0 measures from outside the program: set-up time (median of
several cold child processes that import acfv, load the config and build
mesh, operators and solvers), then one untimed warm-up run at smoke-test
size, then CLI runs for ``--seconds`` seconds.  It reports the medians of
wall time, path steps per second and peak RSS.

--trace 1 alternates plain and traced runs of the CLI at one worker for
``--seconds`` seconds.  A traced run records spans around the public
functions of each module (tracer.py) and gives the per-layer metrics, as
medians over the traced runs; the tracing overhead is the median ratio of
traced to plain wall time.  A multi-worker workload adds one run that only
counts pool starts and the time spent waiting on blocks; its CSVs must
equal, byte for byte, those of the 1-worker traced run.

Every run is checked: exit code 0, every CSV value finite, agreement with
bench/reference/ for the default seed, byte-identical CSVs across worker
counts (--trace 1), and once per invocation the golden tables of
acfv.benchmark.run_benchmark_tables().  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import output_problems
from workloads import DEFAULT_SEED, OUTPUTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".out"
REFERENCE = BENCH / "reference"

SETUP_REPEATS = 5
# Every invocation must end within 180 s; runs stop being started before this.
TIME_LIMIT_S = 170.0
# One BLAS thread per process, so workers x threads never exceeds nproc.  The
# studies' matrices are at most 256 wide, where a second thread gains little
# and makes the wall time depend on what else runs on the other core
# (run-to-run spread 0.14 with two threads against 0.07 with one, measured
# on a 2-core machine).
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "path_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "stochastic.sample_s": "s", "stochastic.sample_calls": "count",
    "stochastic.increments_per_s": "1/s", "stochastic.aggregate_s": "s",
    "stochastic.noise_s": "s", "stochastic.self_s": "s",
    "linalg.factor_calls": "count", "linalg.factor_s": "s",
    "linalg.solve_s": "s", "linalg.solve_calls": "count", "linalg.rows_per_solve": "rows",
    "linalg.solve_us.p50": "us", "linalg.solve_us.p99": "us",
    "linalg.solve_gflops_computed": "GFLOP/s", "linalg.solve_flop_per_byte_computed": "FLOP/B",
    "linalg.pcg_s": "s", "linalg.pcg_calls": "count", "linalg.spd_solves": "count",
    "linalg.self_s": "s",
    "constraint.resolvent_s": "s", "constraint.resolvent_us.p50": "us",
    "constraint.psi_s": "s", "constraint.self_s": "s",
    "scheme.splitting_step_us.p50": "us", "scheme.splitting_step_us.p99": "us",
    "scheme.self_s": "s", "scheme.coupled_step_us.p50": "us",
    "scheme.coupled_step_us.p99": "us", "scheme.coupled_calls": "count",
    "scheme.newton_iters_mean": "iters", "scheme.newton_iters_max": "iters",
    "scheme.newton_zero_iter_share": "ratio",
    "mesh.build_calls": "count", "assembly.calls": "count", "mesh.assembly_s": "s",
    "experiments.self_s": "s", "experiments.blocks": "count",
    "experiments.pool_starts": "count", "experiments.block_wait_s": "s",
    "experiments.study_s": "s",
    "cli.io_s": "s", "cli.bytes_written": "B",
    "trace.overhead_ratio": "ratio", "trace.uncovered_share": "ratio",
    "trace.root_s": "s", "trace.spans": "count",
}


def kill_group(pid: int) -> None:
    """Kill a child started as a process-group leader, with any workers it started."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def summary(values) -> str:
    """Median, quartiles and range; the highest percentile with at least ten
    samples beyond it once there are enough samples."""
    values = sorted(values)
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else values * 3
    text = (f"median {statistics.median(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"min {values[0]:.6g}  max {values[-1]:.6g}  n {n}")
    if n > 10:
        text += f"  p{100 * (n - 10) / n:.0f} {values[n - 11]:.6g}"
    else:
        text += "  tail n/a (needs 11 samples)"
    return text


@dataclass
class Child:
    wall_s: float
    rc: int
    peak_rss_mb: float
    out: str
    err: str


class Invocation:
    """One invocation: its workload, seed, work directory and check tally."""

    def __init__(self, workload, seed: int, tiny: bool):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.work = WORK / f"{workload.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "run.cfg"
        self.config.write_text(workload.config_text(seed, tiny), encoding="ascii")
        self.warm_config = self.work / "warm.cfg"
        self.warm_config.write_text(workload.config_text(seed, tiny=True), encoding="ascii")
        self.nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
        self.attempted = self.failed = 0
        self.problems = []
        self._runs = 0

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def env(self, workers: int) -> dict:
        env = dict(os.environ, ACFV_WORKERS=str(workers), TMPDIR=str(self.work))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
        return env

    def child(self, argv, workers: int) -> Child:
        """Run one child process to its end: wall time, exit code, peak RSS.

        The peak RSS is the largest over the child and the processes it
        waited for, as wait4 reports it.
        """
        out, err = self.work / "child.out", self.work / "child.err"
        with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env(workers),
                                    stdin=subprocess.DEVNULL, stdout=out_fh, stderr=err_fh,
                                    start_new_session=True)
            watchdog = threading.Timer(max(1.0, self.time_left()), kill_group, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                     out.read_text(errors="replace"), err.read_text(errors="replace"))

    def new_out(self) -> Path:
        self._runs += 1
        return self.work / f"out{self._runs}"

    def cli(self, workers: int, config: Path | None = None):
        out = self.new_out()
        run = self.child([sys.executable, "-m", "acfv.cli", self.workload.command,
                          "--config", str(config or self.config), "--out", str(out)], workers)
        return run, out

    def traced(self, mode: str, workers: int):
        out = self.new_out()
        result, spans = self.work / f"trace{self._runs}.json", self.work / f"trace{self._runs}.npz"
        run = self.child([sys.executable, str(BENCH / "probe.py"), "trace", mode,
                          self.workload.command, str(self.config), str(out),
                          str(result), str(spans)], workers)
        metrics = json.loads(result.read_text()) if result.is_file() else None
        return run, out, metrics, spans

    def check(self, label: str, run: Child, out: Path | None = None,
              same_as: Path | None = None, reference: bool = True) -> bool:
        """Record one attempted run; a run fails on any problem found."""
        problems = [] if run.rc == 0 else [f"exit code {run.rc}: {run.err.strip()[-300:]}"]
        names = OUTPUTS[self.workload.command]
        if out is not None and run.rc == 0:
            compare = reference and self.seed == DEFAULT_SEED and not self.tiny
            problems += output_problems(out, names,
                                        REFERENCE / self.workload.name if compare else None)
            if same_as is not None:
                problems += [f"{name}: differs from the 1-worker run" for name in names
                             if (out / name).read_bytes() != (same_as / name).read_bytes()]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems


def measure(job: Invocation, seconds: float):
    """End-to-end metrics, measured with tracing off."""
    workload = job.workload
    probe = [sys.executable, str(BENCH / "probe.py"), "setup", str(job.config)]
    setups = []
    for _ in range(SETUP_REPEATS):
        run = job.child(probe, 1)
        job.check("setup", run)
        setups.append(run.wall_s)
    # Warm-up, untimed: the same command at smoke-test size fills the file
    # cache and compiles bytecode, so the first timed run is not a cold one.
    warm, warm_out = job.cli(workload.workers, job.warm_config)
    job.check("warm-up", warm, warm_out, reference=False)

    runs, start = [], time.monotonic()
    while not runs or (time.monotonic() - start < seconds
                       and job.time_left() > 2 * runs[-1].wall_s + 5):
        run, out = job.cli(workload.workers)
        job.check("timed", run, out)
        runs.append(run)

    path_steps = workload.path_steps(job.seed, job.tiny)
    samples = {
        "wall_s": [r.wall_s for r in runs],
        "path_steps_per_s": [path_steps / r.wall_s for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
    }
    lines = [f"{name} [{END_TO_END[name]}]: {summary(values)}" for name, values in samples.items()]
    lines.append(f"path steps per run: {path_steps}")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, lines


def trace(job: Invocation, seconds: float):
    """Per-layer metrics from traced runs, with the tracing overhead."""
    workload = job.workload
    results, ratios, last_pair_s, start = [], [], 0.0, time.monotonic()
    while not results or (time.monotonic() - start < seconds
                          and job.time_left() > 2 * last_pair_s + 5):
        plain, plain_out = job.cli(1)
        job.check("plain", plain, plain_out)
        run, out, result, spans = job.traced("full", 1)
        if job.check("traced", run, out) and result is not None:
            results.append(result)
            ratios.append(run.wall_s / plain.wall_s)
            last_out, last_spans, last_pair_s = out, spans, plain.wall_s + run.wall_s
        elif not results:
            return None, ["no traced run succeeded"]

    metrics = {name: statistics.median(r["metrics"][name] for r in results)
               for name in results[0]["metrics"]}
    metrics["cli.bytes_written"] = statistics.median(r["bytes_written"] for r in results)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    metrics["experiments.pool_starts"] = 0
    metrics["experiments.block_wait_s"] = 0.0
    if workload.workers > 1:
        run, out, pool, _ = job.traced("pool", workload.workers)
        if job.check("pool", run, out, same_as=last_out) and pool is not None:
            metrics["experiments.pool_starts"] = pool["pool_starts"]
            metrics["experiments.block_wait_s"] = pool["block_wait_s"]

    layers = {lay: statistics.median(r["layers"][lay] for r in results)
              for lay in results[0]["layers"]}
    root = metrics["trace.root_s"]
    lines = [f"traced runs: {len(results)}; overhead (traced / plain wall): "
             + ", ".join(f"{r:.4f}" for r in ratios),
             f"layer self time within the CLI call ({root:.4f} s, study span "
             f"{metrics['experiments.study_s']:.4f} s):"]
    lines += [f"  {lay:<14} {t:10.4f} s  {t / root if root else 0.0:7.2%}"
              for lay, t in sorted(layers.items(), key=lambda kv: -kv[1])]
    keep = WORK / f"{workload.name}.spans.npz"
    shutil.copyfile(last_spans, keep)
    lines.append(f"spans of the last traced run: {keep.relative_to(ROOT)}")
    return metrics, lines


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def write_reference(workload) -> int:
    """Store the default seed's CSVs of this commit as the reference outputs."""
    job = Invocation(workload, DEFAULT_SEED, tiny=False)
    try:
        run, out = job.cli(1)
        if run.rc != 0:
            print(run.err, file=sys.stderr)
            return 1
        target = REFERENCE / workload.name
        target.mkdir(parents=True, exist_ok=True)
        for name in OUTPUTS[workload.command]:
            shutil.copyfile(out / name, target / name)
        print(f"wrote {target.relative_to(ROOT)}")
        return 0
    finally:
        shutil.rmtree(job.work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; skips the stored-reference comparison")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this commit's default-seed outputs and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "acfv" / "cli.py").is_file():
        print(f"no acfv sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.write_reference:
        return write_reference(workload)

    job = Invocation(workload, args.seed, args.tiny)
    try:
        load_before = os.getloadavg()
        meta_run = job.child([sys.executable, str(BENCH / "probe.py"), "meta"], 1)
        job.check("golden tables", meta_run)
        try:
            meta = json.loads(meta_run.out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            meta = {}
        if args.trace:
            metrics, lines = trace(job, args.seconds)
            units = PER_LAYER
        else:
            metrics, lines = measure(job, args.seconds)
            units = END_TO_END
        load_after = os.getloadavg()
    finally:
        shutil.rmtree(job.work, ignore_errors=True)

    print(f"workload {workload.name} ({workload.command}, {workload.workers} worker(s)), "
          f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}"
          + (", tiny sizes" if args.tiny else ""))
    print(f"machine: nproc {job.nproc}, python {meta.get('python')}, "
          f"numpy {meta.get('numpy')}, scipy {meta.get('scipy')}, blas {meta.get('blas')}")
    print(f"BLAS threads per process: {BLAS_THREADS}; workers x threads "
          f"{workload.workers * BLAS_THREADS} on {job.nproc} cores")
    print(f"git commit: {git_commit()}")
    print("load average before: " + " ".join(f"{x:.2f}" for x in load_before)
          + "; after: " + " ".join(f"{x:.2f}" for x in load_after))
    print(f"golden tables: max deviation {meta.get('table_max_deviation')} "
          f"(tolerance {meta.get('table_tolerance')})")
    for line in lines:
        print(line)
    print(f"runs checked: {job.attempted}, failed: {job.failed}, failed share "
          f"{job.failed / max(job.attempted, 1):.4f}")
    for problem in job.problems[:20]:
        print(f"  FAILED {problem}")
    correct = job.failed == 0 and metrics is not None
    result = {"correct": correct, "attempted": max(job.attempted, 1),
              "failed": job.failed,
              "metrics": {name: {"value": (metrics or {}).get(name, 0), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Monte Carlo studies: expectation drift, time-refinement error, method gap.

Three studies are provided.

* Expectation drift: Monte Carlo means of the solution at chosen
  checkpoints, compared with the (exactly conserved) initial mean.  The
  gap measures how hard the penalty has to push to keep values inside
  [0, 1].
* Time-refinement error: mean squared L2 distance at the final time
  between the run on the finest grid and the run on a coarser grid,
  both driven by the same Brownian path per sample.  The slope of the
  least-squares line through (log tau, log error), taken in closed form,
  gives the computational convergence order.
* Splitting-vs-coupled gap: the largest (over steps) expected maximum
  cell difference between the two-substep method and the fully implicit
  one on shared paths, as a function of the step size.

Paths are processed in fixed-size blocks so per-path work is batched
through the linear solver.  The path block is the unit of work, and one
block serves every amplitude: the block runner ``run_block`` factors one
solver per step count and streams the block through time in chunks of
CHUNK fine steps.  Each chunk is sampled once, summed into the coarse
increments of every step count (differences of the running path sum,
see ``stochastic.coarse_chunks``) and stepped at every amplitude and step
count on those shared paths, one stack per step count.  The
chunk and its coarse increments are buffers made once per block, so what
a block holds does not grow with the path length.
``simulate`` and the benchmark tables run their single path through the
same runner as a one-row block.  Only the steps a study
reads (convergence: the last, expectation: the checkpoints) leave its
step loop, and every number it reduces them to is checked to be finite.
The gap study reads no step: its coupled kernels step their splitting
twins beside them in the compiled rounds, which write each path's gap
after every step, so each chunk of a step count is one call that yields
nothing.  The block size is a constant, deliberately not
tied to the worker count: block results come back in path order and
are reduced in that order, so a study result is bit-identical no matter
how many workers computed it.  Worker pools operate on whole blocks, one
pool per study call (set workers > 1, or the ACFV_WORKERS environment
variable for the command-line tools).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble_mass, assemble_stiffness
from .errors import ConfigError, NumericalFailure
from .linalg import ShiftedSolver
from .mesh import build_uniform_mesh, default_initial_state
from .scheme import EpsilonSchedule, StepKernel, VARIANTS
from .stochastic import MAX_FINE_STEPS, coarse_chunks, increment_chunks
from .textio import text_stream

__all__ = [
    "StudyConfig",
    "ExpectationResult",
    "ErrorCurve",
    "expectation_study",
    "convergence_study",
    "splitting_error_study",
    "write_expectation_csv",
    "write_error_csv",
    "write_fit_csv",
    "write_states_csv",
    "format_float",
    "PATH_BLOCK",
    "CHUNK",
    "require_finite",
    "run_block",
]

# Paths per vectorized block.  Fixed (never derived from the worker
# count) so that results are reproducible across any parallel layout.
PATH_BLOCK = 256

# Fine steps per time chunk of a path block (1 MiB of increments for
# PATH_BLOCK paths).  Of 256, 512 and 1024 on a paper-ladder run, 512 peaks
# 0.3 MiB below 1024 and within 0.1 MiB of 256, with half 256's kernel
# calls.  Results do not depend on it.
CHUNK = 512


@dataclass(frozen=True)
class StudyConfig:
    """All parameters of a simulation study.

    ``n_fine`` is the finest step count; every entry of
    ``n_steps_list`` (and ``n_steps``, when set) must divide it, since
    coarse runs are driven by sums of the fine increments.
    """

    horizon: float = 1.0
    cells_per_axis: int = 4
    n_steps: int | None = None
    n_steps_list: tuple = ()
    n_fine: int | None = None
    n_paths: int = 1
    amplitudes: tuple = (1.0,)
    epsilon: EpsilonSchedule = field(
        default_factory=lambda: EpsilonSchedule.power(0.1, 0.4))
    seed: int = 0
    variant: str = "splitting"
    checkpoints: tuple = ()
    half_width: float = 1.0
    path_file: str | None = None
    out_dir: str = "out"

    def resolved_n_fine(self) -> int:
        if self.n_fine is not None:
            return self.n_fine
        if self.n_steps_list:
            return max(self.n_steps_list)
        if self.n_steps is not None:
            return self.n_steps
        raise ConfigError("no step counts given (need N, N_list or N_max)")

    def validate(self) -> "StudyConfig":
        # Each check is written so that NaN fails it.
        if not 0 < self.horizon < np.inf:
            raise ConfigError(f"'T' must be positive and finite, got {self.horizon}")
        if self.cells_per_axis < 1:
            raise ConfigError("L must be >= 1")
        if self.n_paths < 1:
            raise ConfigError("N_p must be >= 1")
        side = 2.0 * self.half_width / self.cells_per_axis
        if not (self.half_width > 0 and 0 < side * side < np.inf):
            raise ConfigError(f"'domain_half_width' must be positive and finite, with a "
                              f"positive and finite cell area (2w/L)^2, got {self.half_width}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if not 0 <= self.seed < 2 ** 64:  # a Philox key word
            raise ConfigError(f"seed must be an integer in 0..2^64 - 1, got {self.seed}")
        if not self.amplitudes or not all(0 <= a < np.inf for a in self.amplitudes):
            raise ConfigError(f"'a' must be nonempty, nonnegative and finite, "
                              f"got {self.amplitudes}")
        if self.n_steps is not None and self.n_steps < 1:
            raise ConfigError(f"'N' must be a positive step count, got {self.n_steps}")
        n_fine = self.resolved_n_fine()
        if not 1 <= n_fine <= MAX_FINE_STEPS:
            raise ConfigError(f"N_max must be in 1..{MAX_FINE_STEPS}, the longest path "
                              f"whose sums stay exact, got {n_fine}")
        for n in (n_fine, *self.n_steps_list, *(() if self.n_steps is None else (self.n_steps,))):
            if n < 1 or n_fine % n:
                raise ConfigError(f"step count {n} must divide N_max={n_fine}")
            try:  # tau = T/n and its eps, at N_max and at each step count
                if not self.horizon / n > 0:
                    raise ValueError("the step size T/N is 0")
                self.epsilon.value(self.horizon / n)
            except ValueError as exc:
                raise ConfigError(f"{exc} at N={n}") from exc
        for key, values, what in (("N_list", self.n_steps_list, "step count"),
                                  ("checkpoints", self.checkpoints, "checkpoint"),
                                  ("a", self.amplitudes, "amplitude")):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"'{key}' repeats {what} {format_float(value)}")
        if self.n_steps is not None:
            for n in self.checkpoints:
                if not 1 <= n <= self.n_steps:
                    raise ConfigError(f"checkpoint {n} outside 1..{self.n_steps}")
        return self


def require_finite(states, amplitude, n_steps, first_path=0):
    """Raise NumericalFailure unless every per-path row of ``states`` is finite.

    Row i belongs to path ``first_path + i``; the message names the
    amplitude, the step count and the first path with a non-finite value.
    A non-finite value never turns finite again in any step, so checking
    the final state covers the whole run.
    """
    states = np.asarray(states, dtype=float)
    bad = ~np.isfinite(states.reshape(len(states), -1)).all(axis=1)
    if bad.any():
        raise NumericalFailure(
            f"non-finite state at a={format_float(amplitude)}, N={n_steps}, "
            f"path {first_path + int(np.argmax(bad))}")


def _require_finite_results(what, amplitude, places, values):
    """Raise NumericalFailure at the first non-finite value, named by its place.

    Finite states can still reduce to a non-finite number (a squared
    error or a sum that overflows), so every reduced number is checked.
    """
    for place, value in zip(places, values):
        if not np.isfinite(value).all():
            raise NumericalFailure(
                f"non-finite {what} at a={format_float(amplitude)}, {place}")


def _map_blocks(fn, config: StudyConfig, args, workers):
    """[fn(config, *args, lo, hi) for each path block], in path order, from one pool.

    A fork pool starts all its workers at once, so it holds one per block at most.
    """
    blocks = [(lo, min(lo + PATH_BLOCK, config.n_paths))
              for lo in range(0, config.n_paths, PATH_BLOCK)]
    if workers <= 1 or len(blocks) <= 1:
        return [fn(config, *args, lo, hi) for lo, hi in blocks]
    from concurrent.futures import ProcessPoolExecutor  # 16 ms of imports, only for a pool

    with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        futures = [pool.submit(fn, config, *args, lo, hi) for lo, hi in blocks]
        return [future.result() for future in futures]


def run_block(config: StudyConfig, initial_state, paths, at, variant, gaps=None):
    """Run a block of paths at every amplitude and step count N of ``at``.

    ``paths`` is a range of path indices, whose fine increments are
    sampled from ``config.seed`` over ``config.resolved_n_fine()`` steps in
    chunks of CHUNK, or an array of fine increments with one row per path
    (path 0 first), run as one chunk; every N must divide the fine step
    count.  ``at[N]`` names the steps whose states the caller reads (None:
    every step).  The mesh, the start field and the operators are built
    once.  Returns the mesh, the start field and a generator over the
    runs: it builds one ShiftedSolver and one StepKernel of ``variant``
    per N, which steps the (A, p, d) stack of every amplitude (index k
    into ``config.amplitudes``) from the start field, broadcast into it by
    the kernel's first run.  Chunk by chunk, N by N (by decreasing N),
    the kernel of N takes the steps of N that end in the chunk and resumes
    from its own output in the next chunk.  The generator yields
    (k, N, n, state) after each named step n, a (p, d) view into the
    stack: steps come in order for each (k, N), and within a chunk all of
    one N's come before the next N's.  The views are kernel buffers (see
    ``StepKernel.run``); the last one yielded for a (k, N) stays valid, as
    no later step of that N overwrites it.  After the last chunk, each
    (k, N)'s final states are checked to be finite.  A non-finite default
    start field, or an M + tau A that does not factor, raises
    NumericalFailure before any step.

    ``gaps``, with ``variant`` "coupled", maps each N to an (A, p, N)
    array: the kernel of N then steps its splitting twin beside itself
    (see ``StepKernel``) and writes the gap of each path after each step
    into it; the twin's final states are checked to be finite too.
    """
    mesh = build_uniform_mesh(config.cells_per_axis, config.half_width)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        u0 = (default_initial_state(mesh) if initial_state is None
              else np.asarray(initial_state, dtype=float))
    if initial_state is None and not np.isfinite(u0).all():
        raise NumericalFailure(f"non-finite start field at domain_half_width="
                               f"{config.half_width:g}, L={config.cells_per_axis}")
    mass, stiffness = assemble_mass(mesh), assemble_stiffness(mesh)
    if isinstance(paths, range):
        lo, n_fine = paths.start, config.resolved_n_fine()
        chunks = increment_chunks(config.seed, paths, config.horizon, n_fine, CHUNK)
    else:
        paths = np.asarray(paths, dtype=float)
        lo, n_fine, chunks = 0, paths.shape[1], [paths]
    order = sorted(at, reverse=True)

    def runs():
        kernels = {}
        for n in order:
            try:
                solver = ShiftedSolver(mass, stiffness, config.horizon / n)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"M + tau A does not factor at tau="
                                       f"{config.horizon / n:g}, N={n}: {exc}") from exc
            kernels[n] = StepKernel(variant, config.amplitudes, config.epsilon, solver,
                                    len(paths), None if gaps is None else gaps[n])
        taken = dict.fromkeys(order, 0)
        for coarse in coarse_chunks(chunks, n_fine, order):
            for n, incs in coarse.items():
                kernel = kernels[n]
                for step, states in kernel.run(kernel.out if taken[n] else u0, incs, at[n],
                                               taken[n] + 1):
                    for k in range(len(config.amplitudes)):
                        yield k, n, step, states[k]
                taken[n] += incs.shape[1]
        for n_steps in at:
            kernel = kernels[n_steps]
            for k, amplitude in enumerate(config.amplitudes):
                require_finite(kernel.out[k] if kernel.twin is None
                               else np.hstack([kernel.twin[k], kernel.out[k]]),
                               amplitude, n_steps, lo)

    return mesh, u0, runs()


# ---------------------------------------------------------------------------
# Expectation drift
# ---------------------------------------------------------------------------

@dataclass
class ExpectationResult:
    """Monte Carlo expectation at one checkpoint for one amplitude."""

    amplitude: float
    checkpoint: int
    n_steps: int
    cell_means: np.ndarray
    mean: float
    initial_mean: float

    @property
    def drift(self) -> float:
        return abs(self.initial_mean - self.mean)


def _expectation_block(config: StudyConfig, lo, hi):
    """Initial mean, and per (amplitude, checkpoint) the cell sums over the block's paths."""
    cps = config.checkpoints or (config.n_steps,)
    _, u0, runs = run_block(config, None, range(lo, hi), {config.n_steps: cps}, config.variant)
    sums = {(k, n): state.sum(axis=0) for k, _, n, state in runs}
    return float(u0.mean()), np.array([[sums[k, n] for n in cps]
                                       for k in range(len(config.amplitudes))])


def expectation_study(config: StudyConfig, workers=1) -> list:
    """ExpectationResult for every (amplitude, checkpoint) pair of the config.

    Each amplitude runs one simulation sweep; all checkpoints are taken
    from it.  All amplitudes share the same driving paths, so drifts
    are directly comparable across amplitudes.  The cell means add the
    blocks' path sums in path order; the scalar mean is the plain average
    of the cell means, which on uniform meshes is the mass-weighted mean.
    """
    config.validate()
    if config.n_steps is None:
        raise ConfigError("expectation study needs a step count N")
    checkpoints = config.checkpoints or (config.n_steps,)
    parts = _map_blocks(_expectation_block, config, (), workers)
    initial_mean, sums = parts[0][0], sum(part_sums for _, part_sums in parts)
    results = []
    for amplitude, per_checkpoint in zip(config.amplitudes, sums / config.n_paths):
        for n, cell_means in zip(checkpoints, per_checkpoint):
            mean = float(cell_means.mean())
            _require_finite_results("mean E", amplitude, [f"N={config.n_steps}, n={n}"], [mean])
            results.append(ExpectationResult(
                amplitude=float(amplitude), checkpoint=int(n),
                n_steps=config.n_steps, cell_means=cell_means,
                mean=mean, initial_mean=initial_mean))
    return results


# ---------------------------------------------------------------------------
# Time-refinement error and convergence order
# ---------------------------------------------------------------------------

def _error_block(config: StudyConfig, n_list, initial_state, lo, hi):
    """Per amplitude, the per-path squared L2 gap between the N_max run and each N of ``n_list``."""
    n_fine = config.resolved_n_fine()
    # N_max runs once, also when n_list holds it (its error is then zero).
    mesh, _, runs = run_block(config, initial_state, range(lo, hi),
                              {n: (n,) for n in (n_fine, *n_list)}, config.variant)
    final = {(k, n_steps): state for k, n_steps, _, state in runs}
    errors = {}
    for (k, n_steps), state in final.items():
        diff = final[k, n_fine] - state
        # summed cell by cell in ascending order: the same bytes on every CPU
        errors[k, n_steps] = np.cumsum((diff * diff) * mesh.cell_measures, axis=1)[:, -1]
    return np.array([np.column_stack([errors[k, n] for n in n_list])
                     for k in range(len(config.amplitudes))])


def _mean_errors(config: StudyConfig, n_list, initial_state, workers=1):
    """Per amplitude, the mean over paths of each N's squared L2 gap to N_max."""
    parts = _map_blocks(_error_block, config, (tuple(n_list), initial_state), workers)
    errors = [np.vstack([part[k] for part in parts]).mean(axis=0)
              for k in range(len(config.amplitudes))]
    for amplitude, mean in zip(config.amplitudes, errors):
        _require_finite_results("error", amplitude, [f"N={n}" for n in n_list], mean)
    return errors


@dataclass
class ErrorCurve:
    """Error against time step, with its log-log regression line."""

    amplitude: float
    n_steps: tuple
    taus: np.ndarray
    errors: np.ndarray
    slope: float
    intercept: float


def _fit_loglog(taus, errors):
    """Least-squares slope and intercept of log E against log tau, in closed form.

    With x = log tau, y = log E and weights w_i = (x_i - mean x)/sum_j (x_j - mean x)^2,
    the slope is sum_i w_i (y_i - mean y) and the intercept mean y - slope mean x:
    elementwise numpy and sums, no BLAS or LAPACK call.
    """
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if taus.size < 2:
        raise ValueError("need at least two points to fit a convergence order")
    if np.any(taus <= 0) or np.any(errors <= 0):
        raise ValueError("convergence fit needs positive step sizes and errors")
    if (taus == taus[0]).all():  # np.unique would import numpy.ma, 15 ms
        raise ValueError("step sizes are degenerate (all equal)")
    x, y = np.log(taus), np.log(errors)
    centred = x - x.mean()
    slope = (centred / (centred * centred).sum() * (y - y.mean())).sum()
    return float(slope), float(y.mean() - slope * x.mean())


def _curve(config, amplitude, n_list, errors):
    errors = np.asarray(errors, dtype=float)
    for n, error in zip(n_list, errors):
        if not error > 0:
            raise NumericalFailure(f"error {format_float(error)} at a={format_float(amplitude)}, "
                                   f"N={n} is not positive, so it has no log-log fit")
    taus = np.array([config.horizon / n for n in n_list])
    slope, intercept = _fit_loglog(taus, errors)
    _require_finite_results("fit", amplitude, [f"N={min(n_list)}..{max(n_list)}"],
                            [(slope, intercept)])
    return ErrorCurve(amplitude=float(amplitude), n_steps=tuple(n_list),
                      taus=taus, errors=errors,
                      slope=slope, intercept=intercept)


def convergence_study(config: StudyConfig, initial_state=None, workers=1) -> list:
    """ErrorCurve per amplitude over the configured step counts."""
    config.validate()
    if len(config.n_steps_list) < 2:
        raise ConfigError("convergence study needs at least two entries in N_list")
    n_list = tuple(sorted(config.n_steps_list))
    errors = _mean_errors(config, n_list, initial_state, workers)
    return [_curve(config, amplitude, n_list, mean)
            for amplitude, mean in zip(config.amplitudes, errors)]


# ---------------------------------------------------------------------------
# Splitting-vs-coupled gap
# ---------------------------------------------------------------------------

def _splitting_gap_block(config: StudyConfig, n_list, initial_state, lo, hi):
    """Per-path maximum cell gap between the two methods after every step.

    The compiled rounds write the gaps as they step both methods, one call
    per chunk and step count; no step yields.
    """
    gaps = {n_steps: np.empty((1, hi - lo, n_steps)) for n_steps in n_list}
    _, _, runs = run_block(config, initial_state, range(lo, hi), dict.fromkeys(n_list, ()),
                           "coupled", gaps)
    for _ in runs:  # the final states' finite check
        pass
    return {n_steps: gap[0] for n_steps, gap in gaps.items()}


def splitting_error_study(config: StudyConfig, initial_state=None,
                          workers=1) -> ErrorCurve:
    """Gap between the coupled and the splitting method versus step size.

    For each step count the error is the largest, over steps, of the
    Monte Carlo mean of the maximum cell difference; both methods run
    on shared paths from the same initial state.  Requires a fixed
    regularization parameter, since the bound under test holds for
    fixed eps.

    ``initial_state`` overrides the default initial field.  The linear
    scaling of the gap shows cleanly when part of the state starts
    outside [0, 1], where the penalty is active at full strength; a
    state well inside [0, 1] only activates the penalty through noise
    excursions whose depth shrinks with the step size, which steepens
    the measured slope.
    """
    if config.epsilon.rule != "fixed":
        raise ConfigError("splitting-error study needs a fixed epsilon")
    if len(config.n_steps_list) < 2:
        raise ConfigError("splitting-error study needs at least two entries in N_list")
    config.validate()
    if len(config.amplitudes) != 1:
        raise ConfigError("the gap study runs one amplitude at a time")
    amplitude = config.amplitudes[0]
    n_list = tuple(sorted(config.n_steps_list))
    parts = _map_blocks(_splitting_gap_block, config, (n_list, initial_state), workers)
    errors = [float(np.vstack([part[n] for part in parts]).mean(axis=0).max())
              for n in n_list]
    _require_finite_results("gap", amplitude, [f"N={n}" for n in n_list], errors)
    return _curve(config, amplitude, n_list, errors)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def format_float(x) -> str:
    """Locale-independent decimal with 17 significant digits."""
    return format(float(x), ".17g")


def _write_rows(target, header, rows):
    with text_stream(target, "w") as out:
        out.write(header + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")


def write_expectation_csv(target, results) -> None:
    """Rows (a, n, N, E, absdiff) for a list of ExpectationResult."""
    _write_rows(target, "a,n,N,E,absdiff",
                [(format_float(r.amplitude), str(r.checkpoint), str(r.n_steps),
                  format_float(r.mean), format_float(r.drift)) for r in results])


def write_error_csv(target, curves) -> None:
    """Rows (a, N, tau, E) for a list of ErrorCurve."""
    rows = []
    for curve in curves:
        for n_steps, tau, err in zip(curve.n_steps, curve.taus, curve.errors):
            rows.append((format_float(curve.amplitude), str(n_steps),
                         format_float(tau), format_float(err)))
    _write_rows(target, "a,N,tau,E", rows)


def write_states_csv(target, states, first_step) -> None:
    """Rows (n, cell_index, value) of single-field states, from n = first_step."""
    _write_rows(target, "n,cell_index,value",
                [(str(n), str(k), format_float(value))
                 for n, state in enumerate(states, start=first_step)
                 for k, value in enumerate(state)])


def write_fit_csv(target, curves) -> None:
    """Rows (a, m, intercept) with the log-log regression per curve."""
    _write_rows(target, "a,m,intercept",
                [(format_float(c.amplitude), format_float(c.slope),
                  format_float(c.intercept)) for c in curves])

"""Monte Carlo studies: expectation drift, time-refinement error, method gap.

Three studies are provided.

* Expectation drift: Monte Carlo means of the solution at chosen
  checkpoints, compared with the (exactly conserved) initial mean.  The
  gap measures how hard the penalty has to push to keep values inside
  [0, 1].
* Time-refinement error: mean squared L2 distance at the final time
  between the run on the finest grid and the run on a coarser grid,
  both driven by the same Brownian path per sample.  A log-log fit of
  error against step size gives the computational convergence order.
* Splitting-vs-coupled gap: the largest (over steps) expected maximum
  cell difference between the two-substep method and the fully implicit
  one on shared paths, as a function of the step size.

Paths are processed in fixed-size blocks so per-path work is batched
through the linear solver.  One block runner sets up and steps a block
for every study; the studies differ only in how they reduce the
per-path states it yields.  The block size is a constant, deliberately
not tied to the worker count: per-path results land in arrays indexed
by path, and reductions run over those fixed arrays, so a study result
is bit-identical no matter how many workers computed it.  Worker pools
operate on whole blocks, one pool per study call (set workers > 1, or
the ACFV_WORKERS environment variable for the command-line tools).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import assemble_mass, assemble_stiffness
from .errors import ConfigError, NumericalFailure
from .linalg import ShiftedSolver
from .mesh import build_uniform_mesh, default_initial_state
from .scheme import EpsilonSchedule, SchemeParams, StepKernel, VARIANTS
from .stochastic import aggregate_increments, sample_increment_block
from .textio import text_stream

__all__ = [
    "StudyConfig",
    "ExpectationResult",
    "ErrorCurve",
    "estimate_expectation",
    "expectation_study",
    "estimate_error",
    "convergence_study",
    "fit_convergence_order",
    "splitting_error_study",
    "splitting_gap_errors",
    "write_expectation_csv",
    "write_error_csv",
    "write_fit_csv",
    "format_float",
    "PATH_BLOCK",
    "require_finite",
]

# Paths per vectorized block.  Fixed (never derived from the worker
# count) so that results are reproducible across any parallel layout.
PATH_BLOCK = 256


@dataclass(frozen=True)
class StudyConfig:
    """All parameters of a simulation study.

    ``n_fine`` is the finest step count; every entry of
    ``n_steps_list`` (and ``n_steps``, when set) must divide it, since
    coarse runs are driven by aggregated fine increments.
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
        if self.horizon <= 0:
            raise ConfigError("T must be positive")
        if self.cells_per_axis < 1:
            raise ConfigError("L must be >= 1")
        if self.n_paths < 1:
            raise ConfigError("N_p must be >= 1")
        if self.half_width <= 0:
            raise ConfigError("domain_half_width must be positive")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if any(a < 0 for a in self.amplitudes) or not self.amplitudes:
            raise ConfigError("amplitudes must be nonnegative and nonempty")
        n_fine = self.resolved_n_fine()
        if n_fine < 1:
            raise ConfigError("N_max must be >= 1")
        for n in (*self.n_steps_list, *( (self.n_steps,) if self.n_steps else () )):
            if n < 1 or n_fine % n:
                raise ConfigError(f"step count {n} must divide N_max={n_fine}")
        if self.n_steps is not None:
            for n in self.checkpoints:
                if not 1 <= n <= self.n_steps:
                    raise ConfigError(f"checkpoint {n} outside 1..{self.n_steps}")
        try:
            self.epsilon.value(self.horizon / n_fine)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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


def _map_blocks(fn, config: StudyConfig, arg_sets, reduce, workers):
    """reduce([fn(config, *args, lo, hi) for each path block]) for each args.

    One worker pool serves all of ``arg_sets``; each entry's block results
    are reduced, in path order, and released as soon as they are all in.
    """
    blocks = [(lo, min(lo + PATH_BLOCK, config.n_paths))
              for lo in range(0, config.n_paths, PATH_BLOCK)]
    if workers <= 1 or len(arg_sets) * len(blocks) <= 1:
        return [reduce([fn(config, *args, lo, hi) for lo, hi in blocks])
                for args in arg_sets]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [[pool.submit(fn, config, *args, lo, hi) for lo, hi in blocks]
                   for args in arg_sets]
        return [reduce([f.result() for f in futures.pop(0)]) for _ in arg_sets]


def _run_block(config: StudyConfig, amplitude, initial_state, lo, hi, n_list, variants):
    """Set up paths lo..hi-1 once and step them at every step count of ``n_list``.

    The mesh, the start field and the operators are built, and the
    block's fine increments sampled, once.  Returns the mesh, the start
    field and a generator over the runs: for each N it builds one
    ShiftedSolver and one StepKernel per variant, steps every variant
    as its own (hi - lo, d) stack from the start, and yields
    (N, n, states) after step n, with one stack per variant in
    ``states``.  Each N ends with a finiteness check.
    The stacks in ``states`` are kernel buffers that the next step of
    the same N overwrites; a caller keeping one across steps copies it.
    """
    mesh = build_uniform_mesh(config.cells_per_axis, config.half_width)
    u0 = (default_initial_state(mesh) if initial_state is None
          else np.asarray(initial_state, dtype=float))
    mass, stiffness = assemble_mass(mesh), assemble_stiffness(mesh)
    n_fine = config.resolved_n_fine()
    fine = sample_increment_block(config.seed, range(lo, hi), config.horizon, n_fine)
    start = np.tile(u0, (hi - lo, 1))

    def runs():
        for n_steps in n_list:
            params = SchemeParams(horizon=config.horizon, n_steps=n_steps,
                                  epsilon=config.epsilon, amplitude=amplitude)
            solver = ShiftedSolver(mass, stiffness, params.tau)
            kernels = [StepKernel(variant, params, solver, start.shape)
                       for variant in variants]
            # The fine block drives N_max itself: a copy would double the
            # block's largest array.
            inc = fine if n_steps == n_fine else aggregate_increments(fine, n_steps)
            states = [start] * len(variants)
            for n in range(n_steps):
                states = [step(u, inc[:, n]) for step, u in zip(kernels, states)]
                yield n_steps, n + 1, states
            del inc  # freed before the next N aggregates its own
            require_finite(np.hstack(states), amplitude, n_steps, lo)

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


def _expectation_block(config: StudyConfig, amplitude, lo, hi):
    """Initial mean, and the per-path states at every checkpoint."""
    cps = config.checkpoints or (config.n_steps,)
    _, u0, runs = _run_block(config, amplitude, None, lo, hi,
                             (config.n_steps,), (config.variant,))
    return float(u0.mean()), {n: states[0].copy() for _, n, states in runs if n in cps}


def estimate_expectation(config: StudyConfig, checkpoint, amplitude,
                         workers=1) -> ExpectationResult:
    """Monte Carlo cell means at one checkpoint, plus the drift from the start.

    The scalar mean is the plain average of the per-cell means, the
    convention used throughout; on uniform meshes it coincides with the
    mass-weighted mean.
    """
    config = replace(config, amplitudes=(amplitude,), checkpoints=(int(checkpoint),))
    return expectation_study(config, workers)[0]


def expectation_study(config: StudyConfig, workers=1) -> list:
    """ExpectationResult for every (amplitude, checkpoint) pair of the config.

    Each amplitude runs one simulation sweep; all checkpoints are taken
    from it.  All amplitudes share the same driving paths, so drifts
    are directly comparable across amplitudes.
    """
    config.validate()
    if config.n_steps is None:
        raise ConfigError("expectation study needs a step count N")
    checkpoints = config.checkpoints or (config.n_steps,)

    def reduce(parts):
        return parts[0][0], [np.vstack([states[n] for _, states in parts]).mean(axis=0)
                             for n in checkpoints]

    per_amplitude = _map_blocks(_expectation_block, config,
                                [(a,) for a in config.amplitudes], reduce, workers)
    results = []
    for amplitude, (initial_mean, means) in zip(config.amplitudes, per_amplitude):
        for n, cell_means in zip(checkpoints, means):
            results.append(ExpectationResult(
                amplitude=float(amplitude), checkpoint=int(n),
                n_steps=config.n_steps, cell_means=cell_means,
                mean=float(cell_means.mean()), initial_mean=initial_mean))
    return results


# ---------------------------------------------------------------------------
# Time-refinement error and convergence order
# ---------------------------------------------------------------------------

def _error_block(config: StudyConfig, amplitude, n_list, initial_state, lo, hi):
    """Per-path squared L2 gap between the N_max run and each N of ``n_list``."""
    n_fine = config.resolved_n_fine()
    # N_max runs once, also when n_list holds it (its error is then zero).
    mesh, _, runs = _run_block(config, amplitude, initial_state, lo, hi,
                               tuple(dict.fromkeys((n_fine, *n_list))), (config.variant,))
    final = {n_steps: states[0] for n_steps, n, states in runs if n == n_steps}
    diffs = [final[n_fine] - final[n_steps] for n_steps in n_list]
    return np.column_stack([(diff * diff) @ mesh.cell_measures for diff in diffs])


def _mean_errors(config: StudyConfig, amplitudes, n_list, initial_state, workers=1):
    """Per amplitude, the mean over paths of each N's squared L2 gap to N_max."""
    return _map_blocks(_error_block, config,
                       [(a, tuple(n_list), initial_state) for a in amplitudes],
                       lambda parts: np.vstack(parts).mean(axis=0), workers)


def estimate_error(config: StudyConfig, n_steps, amplitude, initial_state=None,
                   workers=1) -> float:
    """Mean squared L2 gap between the finest run and the run at ``n_steps``.

    Both runs are driven by the same fine Brownian path per sample, the
    coarse one through increment aggregation; identical step counts
    therefore give exactly zero.  ``initial_state`` overrides the
    default initial field.
    """
    config.validate()
    n_fine = config.resolved_n_fine()
    if n_steps < 1 or n_fine % n_steps:
        raise ConfigError(f"step count {n_steps} must divide N_max={n_fine}")
    errors = _mean_errors(config, (amplitude,), [int(n_steps)], initial_state, workers)
    return float(errors[0][0])


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
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if taus.size < 2:
        raise ValueError("need at least two points to fit a convergence order")
    if np.any(taus <= 0) or np.any(errors <= 0):
        raise ValueError("convergence fit needs positive step sizes and errors")
    if np.unique(taus).size < 2:
        raise ValueError("step sizes are degenerate (all equal)")
    slope, intercept = np.polyfit(np.log(taus), np.log(errors), 1)
    return float(slope), float(intercept)


def fit_convergence_order(taus, errors) -> float:
    """Least-squares slope of log error against log step size."""
    return _fit_loglog(taus, errors)[0]


def _curve(config, amplitude, n_list, errors):
    taus = np.array([config.horizon / n for n in n_list])
    slope, intercept = _fit_loglog(taus, errors)
    return ErrorCurve(amplitude=float(amplitude), n_steps=tuple(n_list),
                      taus=taus, errors=np.asarray(errors, dtype=float),
                      slope=slope, intercept=intercept)


def convergence_study(config: StudyConfig, initial_state=None, workers=1) -> list:
    """ErrorCurve per amplitude over the configured step counts."""
    config.validate()
    if len(config.n_steps_list) < 2:
        raise ConfigError("convergence study needs at least two entries in N_list")
    n_list = tuple(sorted(config.n_steps_list))
    errors = _mean_errors(config, config.amplitudes, n_list, initial_state, workers)
    return [_curve(config, amplitude, n_list, mean)
            for amplitude, mean in zip(config.amplitudes, errors)]


# ---------------------------------------------------------------------------
# Splitting-vs-coupled gap
# ---------------------------------------------------------------------------

def _splitting_gap_block(config: StudyConfig, amplitude, n_list, initial_state, lo, hi):
    """Per-path maximum cell gap between the two methods after every step."""
    gaps = {n_steps: np.empty((hi - lo, n_steps)) for n_steps in n_list}
    _, _, runs = _run_block(config, amplitude, initial_state, lo, hi,
                            n_list, ("splitting", "coupled"))
    for n_steps, n, (u_split, u_coupled) in runs:
        gaps[n_steps][:, n - 1] = np.max(np.abs(u_coupled - u_split), axis=1)
    return gaps


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
    n_list, errors = splitting_gap_errors(config, initial_state, workers)
    return _curve(config, config.amplitudes[0], n_list, errors)


def splitting_gap_errors(config: StudyConfig, initial_state=None, workers=1):
    """The raw gap profile behind splitting_error_study.

    Returns (step counts, errors) without fitting anything, so
    degenerate profiles (all zeros, as with amplitude zero and a
    constant initial state) are observable.
    """
    config.validate()
    if not config.n_steps_list:
        raise ConfigError("gap profile needs step counts in N_list")
    if len(config.amplitudes) != 1:
        raise ConfigError("the gap study runs one amplitude at a time")
    amplitude = config.amplitudes[0]
    n_list = tuple(sorted(config.n_steps_list))
    [errors] = _map_blocks(
        _splitting_gap_block, config, [(amplitude, n_list, initial_state)],
        lambda parts: [float(np.vstack([part[n] for part in parts]).mean(axis=0).max())
                       for n in n_list], workers)
    return n_list, errors


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


def write_fit_csv(target, curves) -> None:
    """Rows (a, m, intercept) with the log-log regression per curve."""
    _write_rows(target, "a,m,intercept",
                [(format_float(c.amplitude), format_float(c.slope),
                  format_float(c.intercept)) for c in curves])

"""Time steppers for the constrained stochastic heat flow.

Three one-step maps share the signature (state, increment, params,
solver) -> state:

* ``splitting_step``: the two-substep method.  Substep one solves the
  linear heat system with the noise loaded on the right-hand side,
  substep two applies the closed-form resolvent of the penalty to each
  cell value.  This is the workhorse of all experiments.
* ``coupled_step``: the fully implicit step, where the heat part and
  the penalty are solved together by a semismooth Newton iteration.
  It serves as the reference the splitting method is measured against.
* ``heat_step``: substep one alone (no penalty), the plain stochastic
  heat flow.

States may be a single field of shape (d,) or a stack of per-path
fields of shape (p, d) with one increment per row.  Every step works on
the whole stack at once: the heat substep is one application of the
prefactored operator, and the coupled step runs its Newton iteration
on all rows together, freezing each row once it has converged.  All
three are ``StepKernel`` calls; a loop over many steps builds one kernel
and calls it per step, and the state a kernel returns is its own buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraint import psi_eps
from .errors import NumericalFailure
from .linalg import ShiftedSolver
from .textio import text_stream

__all__ = [
    "EpsilonSchedule",
    "SchemeParams",
    "splitting_step",
    "coupled_step",
    "heat_step",
    "StepKernel",
    "run_trajectory",
    "Trajectory",
    "dump_trajectory_csv",
    "write_states_csv",
]

VARIANTS = ("splitting", "coupled", "heat")

# Iteration cap and residual tolerance of the semismooth Newton loop in
# the coupled step; the residual is the infinity norm of the defining
# equation scaled by the smallest cell measure.
NEWTON_MAX_ITER = 100
NEWTON_TOL = 1e-11


@dataclass(frozen=True)
class EpsilonSchedule:
    """Regularization parameter as a function of the time step.

    Either a fixed value or a power law c * tau^p.  Since
    tau/eps^2 = tau^(1 - 2p)/c^2, exponents below 1/2 keep the time step
    asymptotically small against eps^2, the coupling regime in which the
    scheme is known to converge.
    """

    rule: str
    c: float
    p: float = 0.0

    def __post_init__(self):
        if self.rule not in ("fixed", "power"):
            raise ValueError(f"unknown epsilon rule {self.rule!r}")
        if not np.isfinite(self.c) or self.c <= 0:
            raise ValueError("epsilon coefficient must be positive and finite")

    @classmethod
    def fixed(cls, value: float) -> "EpsilonSchedule":
        return cls(rule="fixed", c=float(value))

    @classmethod
    def power(cls, c: float, p: float) -> "EpsilonSchedule":
        return cls(rule="power", c=float(c), p=float(p))

    def value(self, tau: float) -> float:
        eps = self.c if self.rule == "fixed" else self.c * tau ** self.p
        if eps <= 0 or not np.isfinite(eps):
            raise ValueError(f"epsilon schedule produced invalid value {eps}")
        return eps


@dataclass(frozen=True)
class SchemeParams:
    """Scheme parameters: horizon T, step count N, eps schedule, noise amplitude."""

    horizon: float
    n_steps: int
    epsilon: EpsilonSchedule
    amplitude: float
    variant: str = "splitting"

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if isinstance(self.epsilon, (int, float)):
            object.__setattr__(self, "epsilon", EpsilonSchedule.fixed(self.epsilon))

    @property
    def tau(self) -> float:
        return self.horizon / self.n_steps

    @property
    def eps(self) -> float:
        return self.epsilon.value(self.tau)


class StepKernel:
    """The one-step map of one variant, built once per (variant, params, solver, shape).

    It holds the step's scalars (a, tau, eps, kappa = eps/(eps + tau))
    and scratch buffers of the state shape, and advances a state with
    in-place ufuncs in the order of ``diffusion_g`` and ``resolvent``:
    w = u + ((a c)(1 - c)) dW, the heat propagator, then c + kappa (r - c),
    each c a clip to [0, 1].  So a step equals those formulas bit for bit.
    The returned state is a kernel buffer, valid until the next call
    overwrites it; a caller that keeps a state copies it.  A splitting
    step fed its own last output reuses the clip of that output for the
    noise term: clip(resolvent(r)) == clip(r) for every finite r.
    """

    def __init__(self, variant, params: SchemeParams, solver: ShiftedSolver, shape):
        self.variant = variant
        self.amplitude, self.tau, self.eps = params.amplitude, params.tau, params.eps
        self.kappa = self.eps / (self.eps + self.tau)
        self.solver = solver
        self._clip, self._noisy, self._tmp, self._out = (np.empty(shape) for _ in range(4))
        self._clip_is_current = False  # _clip holds clip(_out, 0, 1)

    def __call__(self, u_prev, d_w):
        u_prev = np.asarray(u_prev, dtype=float)
        d_w = np.asarray(d_w, dtype=float)
        if u_prev.ndim == 2 and d_w.ndim == 1:
            d_w = d_w[:, None]
        c, w, tmp, out = self._clip, self._noisy, self._tmp, self._out
        if not (self._clip_is_current and u_prev is out):
            u_prev.clip(0.0, 1.0, out=c)
        np.multiply(c, self.amplitude, out=w)
        np.subtract(1.0, c, out=tmp)
        w *= tmp
        w *= d_w
        w += u_prev
        self.solver.apply_markov(w, out=out)
        self._clip_is_current = self.variant == "splitting"
        if self.variant == "heat":
            return out
        out.clip(0.0, 1.0, out=c)
        np.subtract(out, c, out=tmp)
        tmp *= self.kappa
        np.add(c, tmp, out=out)
        if self.variant == "coupled":
            rhs = np.atleast_2d(self.solver.mass_diag * w)
            self._newton(out.reshape(-1, out.shape[-1]), rhs)
        return out

    def _newton(self, u, rhs):
        """Semismooth Newton for the coupled step, in place on the (k, d) stack u."""
        solver, tau, eps, mass = self.solver, self.tau, self.eps, self.solver.mass_diag
        tol = NEWTON_TOL * mass.min()
        rows = np.arange(u.shape[0])
        for _ in range(NEWTON_MAX_ITER):
            v = u[rows]
            residual = (solver.shifted @ v.T).T + tau * mass * psi_eps(v, eps) - rhs[rows]
            res_norm = np.max(np.abs(residual), axis=1)
            open_rows = ~(res_norm <= tol)
            if not open_rows.any():
                return
            rows, v, residual = rows[open_rows], v[open_rows], residual[open_rows]
            active = (v < 0.0) | (v > 1.0)
            u[rows] = v - solver.solve_with_diagonal((tau / eps) * mass * active, residual)
        raise NumericalFailure(
            f"semismooth Newton did not converge in {NEWTON_MAX_ITER} iterations",
            residual=float(np.max(res_norm[open_rows])))


def heat_step(u_prev, d_w, params: SchemeParams, solver: ShiftedSolver):
    """One step of the unconstrained stochastic heat flow."""
    return StepKernel("heat", params, solver, np.shape(u_prev))(u_prev, d_w)


def splitting_step(u_prev, d_w, params: SchemeParams, solver: ShiftedSolver):
    """Heat substep followed by the componentwise penalty resolvent."""
    return StepKernel("splitting", params, solver, np.shape(u_prev))(u_prev, d_w)


def coupled_step(u_prev, d_w, params: SchemeParams, solver: ShiftedSolver):
    """Fully implicit step: solve (M + tau A) u + tau M psi_eps(u) = M w.

    Solved by semismooth Newton with the active-set Jacobian
    M + tau A + (tau/eps) M D, where D marks the cells outside [0, 1].
    The splitting step provides the initial guess; when the penalty is
    inactive at the solution the guess already solves the equation and
    the loop exits without iterating.  The equation is strictly
    monotone, so the solution is unique.

    A stack of states is iterated together; a row leaves the iteration
    once its residual is within tolerance.  A row whose residual is not
    finite never counts as converged, so it ends in NumericalFailure.
    """
    return StepKernel("coupled", params, solver, np.shape(u_prev))(u_prev, d_w)


@dataclass
class Trajectory:
    """Result of a trajectory run.

    ``final`` is the state after the last step; ``states`` holds the
    full history (one entry per step, the initial state excluded) when
    it was requested, else None.
    """

    final: np.ndarray
    states: list | None = None


def run_trajectory(u0, increments, params: SchemeParams, solver: ShiftedSolver,
                   keep_history=False) -> Trajectory:
    """Iterate the selected step over a full increment sequence.

    ``increments`` has the step count on its last axis; a leading axis
    turns the run into a batch of paths evolved side by side (one
    increment row per path).  By default only the final state is
    retained.
    """
    u = np.array(u0, dtype=float)
    increments = np.asarray(increments, dtype=float)
    if increments.shape[-1] != params.n_steps:
        raise ValueError(
            f"expected {params.n_steps} increments, got {increments.shape[-1]}")
    step = StepKernel(params.variant, params, solver, u.shape)

    history = [] if keep_history else None
    for n in range(1, params.n_steps + 1):
        u = step(u, increments[..., n - 1])
        if keep_history:
            history.append(u.copy())
    return Trajectory(final=u, states=history)


def dump_trajectory_csv(trajectory: Trajectory, u0, target) -> None:
    """Write a full trajectory as CSV rows (n, cell_index, value).

    Step 0 is the initial state.  Requires a trajectory run with
    keep_history=True.
    """
    if trajectory.states is None:
        raise ValueError("trajectory was run without history")
    if trajectory.final.ndim != 1:
        raise ValueError("CSV dump covers single-path trajectories only")
    write_states_csv(target, [np.asarray(u0)] + trajectory.states, first_step=0)


def write_states_csv(target, states, first_step) -> None:
    """Write single-field states as CSV rows (n, cell_index, value) from n = first_step."""
    with text_stream(target, "w") as out:
        out.write("n,cell_index,value\n")
        for n, state in enumerate(states, start=first_step):
            for k, value in enumerate(state):
                out.write(f"{n},{k},{value:.17g}\n")

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
on all rows together, freezing each row once it has converged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraint import psi_eps, resolvent_field
from .errors import NumericalFailure
from .linalg import ShiftedSolver
from .stochastic import diffusion_g
from .textio import text_stream

__all__ = [
    "EpsilonSchedule",
    "SchemeParams",
    "splitting_step",
    "coupled_step",
    "heat_step",
    "run_trajectory",
    "Trajectory",
    "dump_trajectory_csv",
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


def _noisy_state(u_prev, d_w, amplitude):
    """w = u + g(u) dW, broadcasting one increment per stacked row."""
    u_prev = np.asarray(u_prev, dtype=float)
    d_w = np.asarray(d_w, dtype=float)
    if u_prev.ndim == 2 and d_w.ndim == 1:
        d_w = d_w[:, None]
    return u_prev + diffusion_g(u_prev, amplitude) * d_w


def heat_step(u_prev, d_w, params: SchemeParams, solver: ShiftedSolver):
    """One step of the unconstrained stochastic heat flow."""
    return solver.apply_markov(_noisy_state(u_prev, d_w, params.amplitude))


def splitting_step(u_prev, d_w, params: SchemeParams, solver: ShiftedSolver):
    """Heat substep followed by the componentwise penalty resolvent."""
    u_hat = heat_step(u_prev, d_w, params, solver)
    return resolvent_field(u_hat, params.tau, params.eps)


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
    u_prev = np.asarray(u_prev, dtype=float)
    tau, eps = params.tau, params.eps
    mass = solver.mass_diag
    rhs = np.atleast_2d(mass * _noisy_state(u_prev, d_w, params.amplitude))
    tol = NEWTON_TOL * solver.m_min

    u = np.atleast_2d(splitting_step(u_prev, d_w, params, solver))
    rows = np.arange(u.shape[0])
    for _ in range(NEWTON_MAX_ITER):
        v = u[rows]
        residual = (solver.shifted @ v.T).T + tau * mass * psi_eps(v, eps) - rhs[rows]
        res_norm = np.max(np.abs(residual), axis=1)
        open_rows = ~(res_norm <= tol)
        if not open_rows.any():
            return u.reshape(u_prev.shape)
        rows, v, residual = rows[open_rows], v[open_rows], residual[open_rows]
        active = (v < 0.0) | (v > 1.0)
        u[rows] = v - solver.solve_with_diagonal((tau / eps) * mass * active, residual)
    raise NumericalFailure(
        f"semismooth Newton did not converge in {NEWTON_MAX_ITER} iterations",
        residual=float(np.max(res_norm[open_rows])),
    )


_STEPS = {"splitting": splitting_step, "coupled": coupled_step, "heat": heat_step}


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
    step = _STEPS[params.variant]

    history = [] if keep_history else None
    for n in range(1, params.n_steps + 1):
        u = step(u, increments[..., n - 1], params, solver)
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
    with text_stream(target, "w") as out:
        out.write("n,cell_index,value\n")
        for n, state in enumerate([np.asarray(u0)] + trajectory.states):
            for k, value in enumerate(state):
                out.write(f"{n},{k},{value:.17g}\n")

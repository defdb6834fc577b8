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
on all rows together, freezing each row once it has converged.  Each
is a one-increment ``StepKernel.run``; a longer run is one such loop
that yields its buffer only after the steps its caller names.
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

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if isinstance(self.epsilon, (int, float)):
            object.__setattr__(self, "epsilon", EpsilonSchedule.fixed(self.epsilon))

    @property
    def tau(self) -> float:
        return self.horizon / self.n_steps

    @property
    def eps(self) -> float:
        return self.epsilon.value(self.tau)


class StepKernel:
    """The step map of one variant, built once per (variant, params, solver, shape).

    It holds the step's scalars (a, tau, eps, kappa = eps/(eps + tau))
    and scratch buffers of the state shape.  ``run`` steps with in-place
    ufuncs in the order of ``diffusion_g`` and ``resolvent``:
    w = u + ((a c)(1 - c)) dW, the heat propagator, then c + kappa (r - c),
    each c a clip to [0, 1], so every step equals those formulas bit for bit.
    """

    def __init__(self, variant, params: SchemeParams, solver: ShiftedSolver, shape):
        self.variant, self.solver = variant, solver
        self.amplitude, self.tau, self.eps = params.amplitude, params.tau, params.eps
        self.kappa = self.eps / (self.eps + self.tau)
        self._clip, self._noisy, self._tmp, self._out = (np.empty(shape) for _ in range(4))

    def __call__(self, u_prev, d_w):
        return next(self.run(u_prev, np.asarray(d_w, dtype=float)[..., None]))[1]

    def run(self, u0, increments, at=None):
        """Step u0 once per increment column; yield (n, state) after each step n in ``at``.

        ``increments`` has the step count on its last axis, one row per path
        of a (p, d) stack, and step n reads column n - 1 as a view; ``at``
        None yields every step.  The state is the kernel's output buffer,
        read-only to the caller and valid until the generator resumes (the
        last one until the kernel runs again).
        """
        variant, amplitude, kappa = self.variant, self.amplitude, self.kappa
        apply_markov = self.solver.apply_markov
        c, w, tmp, out = self._clip, self._noisy, self._tmp, self._out
        lo, hi = np.zeros(()), np.ones(())  # ndarray.clip is quicker with array bounds
        # carried: c == clip(u), left by a splitting step as clip(resolvent(r)) == clip(r)
        u, carried = np.asarray(u0, dtype=float), False
        for n, d_w in enumerate(np.asarray(increments, dtype=float).T[..., None], 1):
            if not carried:
                u.clip(lo, hi, out=c)
            np.multiply(c, amplitude, out=w)
            np.subtract(1.0, c, out=tmp)
            w *= tmp
            w *= d_w
            w += u
            apply_markov(w, out=out)
            if variant != "heat":
                out.clip(lo, hi, out=c)
                np.subtract(out, c, out=tmp)
                tmp *= kappa
                np.add(c, tmp, out=out)
                if variant == "coupled":
                    self._newton(out, w)
            u, carried = out, variant == "splitting"
            if at is None or n in at:
                yield n, out

    def _newton(self, out, w):
        """Semismooth Newton for the coupled step, in place on ``out``, from noisy state w."""
        solver, tau, eps, mass = self.solver, self.tau, self.eps, self.solver.mass_diag
        u, rhs = out.reshape(-1, out.shape[-1]), np.atleast_2d(mass * w)
        tol, rows = NEWTON_TOL * mass.min(), np.arange(len(u))
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


def write_states_csv(target, states, first_step) -> None:
    """Write single-field states as CSV rows (n, cell_index, value) from n = first_step."""
    with text_stream(target, "w") as out:
        out.write("n,cell_index,value\n")
        for n, state in enumerate(states, start=first_step):
            for k, value in enumerate(state):
                out.write(f"{n},{k},{value:.17g}\n")

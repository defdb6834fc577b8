"""Time steppers for the constrained stochastic heat flow.

``StepKernel`` is the one step map, built for one variant with a noise
amplitude, an eps schedule and a ``ShiftedSolver``, whose step size tau
it reads (eps = eps(tau)).  The variants:

* ``splitting``: the two-substep method.  Substep one solves the
  linear heat system with the noise loaded on the right-hand side,
  substep two applies the closed-form resolvent of the penalty to each
  cell value.  This is the workhorse of all experiments.
* ``coupled``: the fully implicit step, where the heat part and the
  penalty are solved together by a semismooth Newton iteration.  It
  serves as the reference the splitting method is measured against.
* ``heat``: substep one alone (no penalty), the plain stochastic heat
  flow.

States may be a single field of shape (d,) or a stack of per-path
fields of shape (p, d) with one increment per row, and every step moves
the whole stack through the prefactored operator at once.  Calling a
kernel takes one step; ``StepKernel.run`` steps a whole increment block
in one loop that yields its buffer only after the steps its caller names,
and a later call can resume from that buffer with the next block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraint import psi_eps
from .errors import NumericalFailure
from .linalg import ShiftedSolver

__all__ = ["EpsilonSchedule", "StepKernel"]

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


class StepKernel:
    """The step map of one variant, built once per (variant, a, eps schedule, solver, shape).

    It holds the step's scalars (a, tau = solver.tau, eps = epsilon(tau),
    kappa = eps/(eps + tau)) and scratch buffers of the state shape, and
    ``out``, the buffer holding the state after the last step taken.
    ``run`` steps with in-place ufuncs in the order of ``diffusion_g`` and
    ``resolvent``:
    w = u + ((a c)(1 - c)) dW, the heat propagator, then c + kappa (r - c),
    each c a clip to [0, 1], so every step equals those formulas bit for bit.
    """

    def __init__(self, variant, amplitude, epsilon: EpsilonSchedule, solver: ShiftedSolver,
                 shape):
        if amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        self.variant, self.solver = variant, solver
        self.amplitude, self.tau = amplitude, solver.tau
        self.eps = epsilon.value(self.tau)
        self.kappa = self.eps / (self.eps + self.tau)
        self._clip, self._noisy, self._tmp, self.out = (np.empty(shape) for _ in range(4))

    def __call__(self, u_prev, d_w):
        """One step with increment d_w (one per row of a stack) into the output buffer."""
        return next(self.run(u_prev, np.asarray(d_w, dtype=float)[..., None]))[1]

    def run(self, u0, increments, at=None, first=1):
        """Step u0 once per increment column; yield (n, state) after each step n in ``at``.

        ``increments`` has the step count on its last axis, one row per path
        of a (p, d) stack, and its columns are steps first, first + 1, ...
        read as views; ``at`` None yields every step.  The state is the
        kernel's output buffer ``out``, read-only to the caller and valid
        until the generator resumes (the last one until the kernel runs
        again).  ``run(kernel.out, more, at, first=n + 1)`` resumes a run
        after its step n, bit for bit as if it had not stopped.
        """
        variant, amplitude, kappa = self.variant, self.amplitude, self.kappa
        apply_markov = self.solver.apply_markov
        c, w, tmp, out = self._clip, self._noisy, self._tmp, self.out
        lo, hi = np.zeros(()), np.ones(())  # ndarray.clip is quicker with array bounds
        # carried: c == clip(u), left by a splitting step as clip(resolvent(r)) == clip(r);
        # a resumed run clips again, which gives the same c
        u, carried = np.asarray(u0, dtype=float), False
        for n, d_w in enumerate(np.asarray(increments, dtype=float).T[..., None], first):
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
        """Semismooth Newton for the coupled step, in place on ``out``, from noisy state w.

        It solves (M + tau A) u + tau M psi_eps(u) = M w, strictly monotone so
        uniquely solvable, with the active-set Jacobian M + tau A + (tau/eps) M D
        (D marks the cells outside [0, 1]) from the splitting step in ``out``,
        which already solves it where the penalty is inactive: no iteration.
        A row leaves the iteration once converged; a row whose residual is not
        finite never converges, so it ends in NumericalFailure.
        """
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

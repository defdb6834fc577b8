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

A run's state may be a single field of shape (d,) or a stack of per-path
fields of shape (p, d) with one increment per row.  One kernel steps the
runs of G step sizes (one solver each) at A amplitudes as one
(G, A, p, d) stack: the amplitudes share each increment, and in lockstep
rounds every step size takes its next step, so one pass of the ufuncs and
one batched product move all of them.  Calling a kernel takes one step;
``StepKernel.run`` steps a whole increment block in one loop that yields
only after the steps its caller names, and a later call can resume from
the kernel's buffer with the next block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .constraint import psi_eps
from .errors import NumericalFailure
from .linalg import DENSE_LIMIT, ShiftedSolver

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
    """The step map of one variant over a stack of runs: G step sizes by A amplitudes.

    Built once per (variant, amplitudes, eps schedule, solvers, shape).
    ``solver`` is one ShiftedSolver or a sequence of G, one per step size,
    and each run reads its own tau = solver.tau, eps = epsilon(tau) and
    kappa = eps/(eps + tau); ``amplitude`` is one noise amplitude or a
    sequence of A; ``shape`` is the state of one run, a field (d,) or a
    stack of paths (p, d).  The kernel keeps scratch buffers of the whole
    stack and ``out``, the states after the last step taken, of shape
    (G, A, *shape), with no G axis for one solver and no A axis for one
    amplitude: a single field is the 1 x 1 case.  Internally every buffer
    is (G, A, p, d) and the scalars are broadcast columns, amplitude
    (1, A, 1, 1) and kappa (G, 1, 1, 1).  ``run`` steps with in-place ufuncs
    in the order of ``diffusion_g`` and ``resolvent``:
    w = u + ((a c)(1 - c)) dW, the heat propagator, then c + kappa (r - c),
    each c a clip to [0, 1], so every run equals those formulas bit for bit,
    as if it were stepped alone.
    """

    def __init__(self, variant, amplitude, epsilon: EpsilonSchedule, solver, shape):
        amplitudes = np.asarray(amplitude, dtype=float)
        if not (amplitudes >= 0).all():
            raise ValueError("amplitude must be >= 0")
        self._grouped = not isinstance(solver, ShiftedSolver)
        solvers = tuple(solver) if self._grouped else (solver,)
        shape = tuple(np.atleast_1d(shape))
        self.variant, self.amplitude = variant, amplitude
        self._solvers, self._eps = solvers, [epsilon.value(s.tau) for s in solvers]
        self.tau = tuple(s.tau for s in solvers) if self._grouped else solver.tau
        self.eps = tuple(self._eps) if self._grouped else self._eps[0]
        stack = (len(solvers), amplitudes.size, int(np.prod(shape[:-1])), shape[-1])
        # A column of length one broadcasts quicker as a 0-d array, same bits.
        self._amplitude = amplitudes.reshape((1, -1, 1, 1) if amplitudes.size > 1 else ())
        self._kappa = np.reshape([eps / (eps + s.tau) for eps, s in zip(self._eps, solvers)],
                                 (-1, 1, 1, 1))
        # (G, 1, d, d); each slice keeps the layout of its solver's markov_t,
        # so the batched product is one gemm per (g, a) as in a lone run.
        self._markov = (np.stack([s.markov_t.T for s in solvers])[:, None].swapaxes(2, 3)
                        if stack[-1] <= DENSE_LIMIT else None)
        self._clip, self._noisy, self._tmp, self._out = (np.empty(stack) for _ in range(4))
        self.out = self._out.reshape((len(solvers),) * self._grouped + amplitudes.shape + shape)
        self._states = list(self.out) if self._grouped else [self.out]
        self._views = {}

    def __call__(self, u_prev, d_w):
        """One step with increment d_w (one per path row) into the output buffer ``out``."""
        for _ in self.run(u_prev, np.asarray(d_w, dtype=float)[..., None]):
            pass
        return self.out

    def run(self, u0, increments, at=None, first=1):
        """Step u0 once per increment column; yield after each step n in ``at``.

        With one solver, ``increments`` has the step count on its last axis,
        one row per path of a (p, d) stack, and its columns are steps first,
        first + 1, ... read as views; ``at`` None yields every step, and
        each yield is (n, out).  With G solvers, ``increments``, ``at`` and
        ``first`` hold one entry per solver (``at`` None: every step of
        each, ``first`` an int: the same for all), a group may have no
        steps, and each yield is (g, n, out[g]).  Every amplitude takes the
        same increments.  ``u0``, broadcast to ``out``, is copied into it
        unless it is ``out``.  A yielded state is read-only to the caller
        and valid until the generator resumes (the last one until the
        kernel runs again).  ``run(kernel.out, more, at, first=n + 1)``
        resumes a run after its step n, bit for bit as if it had not
        stopped.
        """
        if not self._grouped:
            return ((n, state) for _, n, state in
                    self._rounds(u0, (increments,), (at,), (first,)))
        groups = len(self._solvers)
        return self._rounds(u0, increments, (None,) * groups if at is None else at,
                            (first,) * groups if np.ndim(first) == 0 else first)

    def _rounds(self, u0, increments, at, first):
        """Step the groups in lockstep rounds, yielding (g, n, out[g]) after named steps.

        Round j advances every group with a j-th increment, each contiguous
        run of such groups in one pass of the ufuncs.  A group stepping in
        round j > 0 also stepped in round j - 1.
        """
        variant, amplitude, p = self.variant, self._amplitude, self._out.shape[2]
        if u0 is not self.out:
            np.copyto(self.out, u0)
        incs = [np.asarray(inc, dtype=float).reshape(p, np.shape(inc)[-1]) for inc in increments]
        counts = [inc.shape[1] for inc in incs]
        named = {}
        for g, (steps, k) in enumerate(zip(at, counts)):
            for j in range(k):
                if steps is None or first[g] + j in steps:
                    named.setdefault(j, []).append(g)
        # carried: c == clip(u), left by a splitting step as clip(resolvent(r)) == clip(r);
        # round 0 of a (resumed) run clips again, which gives the same c
        states, carried = self._states, variant == "splitting"
        zero, one = np.zeros(()), np.ones(())  # ndarray.clip is quicker with array bounds
        bounds = sorted({0, *counts})
        for lo, hi in zip(bounds, bounds[1:]):
            # Rounds lo..hi-1 step the same groups, each contiguous run of
            # them at once; d_w[j - lo, rank] is the (1, p, 1) increment of
            # the rank-th of them in round j (a view for a lone group).
            live = [g for g, k in enumerate(counts) if k > lo]
            d_w = (np.stack([incs[g].T[lo:hi] for g in live], axis=1) if len(live) > 1
                   else incs[live[0]].T[lo:hi, None])[:, :, None, :, None]
            runs = [(slice(run[0][0], run[-1][0] + 1),
                     self._run_buffers(run[0][1], run[-1][1] + 1))
                    for run in (list(r) for _, r in groupby(enumerate(live),
                                                             lambda t: t[1] - t[0]))]
            for j in range(lo, hi):
                for ranks, (c, w, tmp, out, kappa, markov, solves, newtons) in runs:
                    if not (carried and j):
                        out.clip(zero, one, out=c)
                    np.multiply(c, amplitude, out=w)
                    np.subtract(1.0, c, out=tmp)
                    w *= tmp
                    w *= d_w[j - lo, ranks]
                    w += out
                    if markov is not None:
                        np.matmul(w, markov, out=out)
                    else:
                        for solver, w_ga, out_ga in solves:
                            solver.apply_markov(w_ga, out=out_ga)
                    if variant != "heat":
                        out.clip(zero, one, out=c)
                        np.subtract(out, c, out=tmp)
                        tmp *= kappa
                        np.add(c, tmp, out=out)
                        if variant == "coupled":
                            for solver, eps, u_g, w_g in newtons:
                                _newton(solver, eps, u_g, w_g)
                for g in named.get(j, ()):
                    yield g, first[g] + j, states[g]

    def _run_buffers(self, g0, g1):
        """Views of the buffers of groups g0..g1-1, with their solves and Newton rows.

        Above the dense limit each (g, a) applies its banded factor to its
        own p rows: one solve over all A p rows was slower at d = 256, as
        its buffers outgrow the L2 cache.
        """
        if (g0, g1) not in self._views:
            d, groups = self._out.shape[-1], slice(g0, g1)
            kappa = self._kappa[groups] if g1 - g0 > 1 else self._kappa[g0].reshape(())
            markov = None if self._markov is None else self._markov[groups]
            solves = [(self._solvers[g], self._noisy[g, a], self._out[g, a])
                      for g in range(g0, g1) for a in range(self._out.shape[1])]
            newtons = [(self._solvers[g], self._eps[g], self._out[g].reshape(-1, d),
                        self._noisy[g].reshape(-1, d)) for g in range(g0, g1)]
            self._views[g0, g1] = (self._clip[groups], self._noisy[groups], self._tmp[groups],
                                   self._out[groups], kappa, markov, solves, newtons)
        return self._views[g0, g1]


def _newton(solver, eps, u, w):
    """Semismooth Newton for the coupled step, in place on the (k, d) rows u, from noisy rows w.

    It solves (M + tau A) u + tau M psi_eps(u) = M w, strictly monotone so
    uniquely solvable, with the active-set Jacobian M + tau A + (tau/eps) M D
    (D marks the cells outside [0, 1]) from the splitting step in u, which
    already solves it where the penalty is inactive: no iteration.  Rows are
    independent: a row leaves the iteration once converged, and a row whose
    residual is not finite never converges, so it ends in NumericalFailure.
    """
    tau, mass = solver.tau, solver.mass_diag
    rhs = mass * w
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

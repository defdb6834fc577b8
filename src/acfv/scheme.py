"""Time steppers for the constrained stochastic heat flow.

``StepKernel`` is the one step map, built for one variant with noise
amplitudes, an eps schedule and ``ShiftedSolver``s, whose step sizes tau
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

A kernel steps the runs of G step sizes (one solver each) at A amplitudes
as one (G, A, p, d) stack of p per-path fields of d cells, with one
increment per (step size, path): the amplitudes share each increment,
and in lockstep rounds every step size takes its next step.  A round is
two elementwise passes, compiled C loops (``passes.c``, built at the first
kernel into a per-user cache) or their numpy ufunc form, around one
batched product or banded solve.  Calling a kernel takes one step;
``StepKernel.run`` steps a whole increment block in one loop that yields
only after the steps its caller names, and a later call can resume from
the kernel's buffer with the next block.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
from dataclasses import dataclass
from functools import cache, partial
from itertools import groupby
from pathlib import Path

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

# The compiled passes: their source, shipped in the package, and the exact
# build flags (no fused multiply-add, no fast math, no host-specific code).
SOURCE = Path(__file__).with_name("passes.c")
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


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

    Built once per (variant, amplitudes, eps schedule, solvers, path count).
    ``solvers`` holds one ShiftedSolver per step size, and each run reads
    its own tau = solver.tau, eps = epsilon(tau) and kappa = eps/(eps + tau);
    ``amplitudes`` holds the A noise amplitudes; ``paths`` is the number p
    of fields per run, each of the solvers' d cells.  The kernel keeps
    scratch buffers and ``out``, the states after the last step taken, all
    of shape (G, A, p, d).  A round is the noise pass
    w = u + ((a c)(1 - c)) dW, the heat propagator, then the resolvent pass
    c + (r - c) kappa, each c a clip to [0, 1], in the order of
    ``diffusion_g`` and ``resolvent``; the passes are compiled C or numpy
    (see ``passes``), equal byte for byte, so every run equals those
    formulas bit for bit, as if it were stepped alone.
    """

    def __init__(self, variant, amplitudes, epsilon: EpsilonSchedule, solvers, paths):
        self._amplitude = np.array(amplitudes, dtype=float)
        if self._amplitude.ndim != 1 or not (self._amplitude >= 0).all():
            raise ValueError("amplitude must be >= 0")
        self._solvers = tuple(solvers)
        self.variant, self.amplitude = variant, tuple(self._amplitude.tolist())
        self.tau = tuple(s.tau for s in self._solvers)
        self.eps = tuple(epsilon.value(tau) for tau in self.tau)
        self._kappa = np.array([eps / (eps + tau) for eps, tau in zip(self.eps, self.tau)])
        d = self._solvers[0].n
        stack = (len(self._solvers), len(self._amplitude), paths, d)
        # (G, 1, d, d); each slice keeps the layout of its solver's markov_t,
        # so the batched product is one gemm per (g, a) as in a lone run.
        self._markov = (np.stack([s.markov_t.T for s in self._solvers])[:, None].swapaxes(2, 3)
                        if d <= DENSE_LIMIT else None)
        self._clip, self._noisy, self.out = (np.empty(stack) for _ in range(3))
        self._bind = passes()[0]
        self._views = {}

    def __call__(self, u_prev, d_w):
        """One step of every run, d_w one increment per (step size, path), into ``out``."""
        groups, _, p, _ = self.out.shape
        d_w = np.broadcast_to(np.asarray(d_w, dtype=float), (groups, p))
        for _ in self.run(u_prev, d_w[..., None]):
            pass
        return self.out

    def run(self, u0, increments, at=None, first=1):
        """Step u0 once per increment column; yield (g, n, out[g]) after each step n in ``at``.

        ``increments``, ``at`` and ``first`` hold one entry per step size g:
        its (p, k_g) increments, one row per path and steps first[g],
        first[g] + 1, ... as columns read in place (k_g may be 0), and the
        steps it names (None: every step).  ``at`` None names every step of
        each, and an int ``first`` is the same for all.  Every amplitude
        takes the same increments.  ``u0``, broadcast to ``out``, is copied
        into it unless it is ``out``.  A yielded state is read-only to the
        caller and valid until the generator resumes (the last one until
        the kernel runs again).  ``run(kernel.out, more, at, first=n + 1)``
        resumes a run after its step n, bit for bit as if it had not
        stopped.

        Rounds run in lockstep: round j advances every group with a j-th
        increment, each contiguous run of such groups in one call of each
        pass.  A group stepping in round j > 0 also stepped in round j - 1.
        """
        groups, _, p, _ = self.out.shape
        at = (None,) * groups if at is None else at
        first = (first,) * groups if np.ndim(first) == 0 else first
        if u0 is not self.out:
            np.copyto(self.out, u0)
        incs = [np.asarray(inc, dtype=float) for inc in increments]
        # the compiled noise pass reads p rows of each block through its strides
        if len(incs) != groups or any(inc.ndim != 2 or len(inc) != p for inc in incs):
            raise ValueError(f"increments must be {groups} blocks of {p} rows")
        counts = [inc.shape[1] for inc in incs]
        named = {}
        for g, (steps, k) in enumerate(zip(at, counts)):
            for j in range(k):
                if steps is None or first[g] + j in steps:
                    named.setdefault(j, []).append(g)
        # carried: c == clip(u), left by a splitting step as clip(resolvent(r)) == clip(r);
        # round 0 of a (resumed) run clips again, which gives the same c
        variant, states, carried = self.variant, self.out, self.variant == "splitting"
        bounds = sorted({0, *counts})
        for lo, hi in zip(bounds, bounds[1:]):
            # Rounds lo..hi-1 step the same groups, each contiguous run of
            # them at once; d_w[j - lo, rank] is the (p,) increment of the
            # rank-th of them in round j (a view for a lone group).
            live = [g for g, k in enumerate(counts) if k > lo]
            d_w = (np.stack([incs[g].T[lo:hi] for g in live], axis=1) if len(live) > 1
                   else incs[live[0]].T[lo:hi, None])
            runs = []
            for run in (list(r) for _, r in groupby(enumerate(live), lambda t: t[1] - t[0])):
                (r0, g0), (r1, g1) = run[0], run[-1]
                out, c, w, kappa, markov, solves, newtons = self._run_buffers(g0, g1 + 1)
                runs.append((*self._bind(out, c, w, self._amplitude, kappa, d_w[:, r0:r1 + 1]),
                             out, w, markov, solves, newtons))
            for j in range(lo, hi):
                for noise, resolvent, out, w, markov, solves, newtons in runs:
                    noise(j - lo, carried and j > 0)
                    if markov is not None:
                        np.matmul(w, markov, out=out)
                    else:
                        for solver, w_ga, out_ga in solves:
                            solver.apply_markov(w_ga, out=out_ga)
                    if variant != "heat":
                        resolvent()
                        for solver, eps, u_g, w_g in newtons:
                            _newton(solver, eps, u_g, w_g)
                for g in named.get(j, ()):
                    yield g, first[g] + j, states[g]

    def _run_buffers(self, g0, g1):
        """Views of groups g0..g1-1: out, clip, noisy, kappa, markov, solves and Newton rows.

        Above the dense limit each (g, a) applies its banded factor to its
        own p rows: one solve over all A p rows was slower at d = 256, as
        its buffers outgrow the L2 cache.  Only ``coupled`` has Newton rows.
        """
        if (g0, g1) not in self._views:
            d, groups = self.out.shape[-1], slice(g0, g1)
            markov = None if self._markov is None else self._markov[groups]
            solves = [(self._solvers[g], self._noisy[g, a], self.out[g, a])
                      for g in range(g0, g1) for a in range(self.out.shape[1])]
            newtons = [(self._solvers[g], self.eps[g], self.out[g].reshape(-1, d),
                        self._noisy[g].reshape(-1, d))
                       for g in range(g0, g1) if self.variant == "coupled"]
            self._views[g0, g1] = (self.out[groups], self._clip[groups], self._noisy[groups],
                                   self._kappa[groups], markov, solves, newtons)
        return self._views[g0, g1]


def _numpy_passes(u, c, w, amplitude, kappa, d_w):
    """The noise and resolvent passes of a run of G groups as ufuncs: fallback and oracle.

    ``u``, ``c`` and ``w`` are the run's (G, A, p, d) state, clip and noisy
    buffers, ``amplitude`` is (A,), ``kappa`` (G,) and ``d_w`` (rounds, G, p).
    Returns ``noise(j, carried)``, which sets c = clip(u) unless carried
    and w = (((c a)(1 - c)) dW) + u with round j's increments, and
    ``resolvent()``, which sets c = clip(u) and u = c + (u - c) kappa.
    """
    amplitude, kappa, d_w = amplitude[:, None, None], kappa[:, None, None, None], d_w[..., None]

    def noise(j, carried):
        if not carried:
            u.clip(0.0, 1.0, out=c)
        np.multiply(c, amplitude, out=w)
        np.multiply(w, 1.0 - c, out=w)
        np.multiply(w, d_w[j, :, None], out=w)
        np.add(w, u, out=w)

    def resolvent():
        u.clip(0.0, 1.0, out=c)
        np.subtract(u, c, out=u)
        np.multiply(u, kappa, out=u)
        np.add(c, u, out=u)

    return noise, resolvent


class _Run(ctypes.Structure):
    """A run's buffers, sizes and increment strides (in elements), as passes.c reads them."""

    _fields_ = ([(name, ctypes.c_void_p) for name in ("u", "c", "w", "amp", "kappa", "dw")]
                + [(name, ctypes.c_ssize_t) for name in
                   ("groups", "amps", "paths", "cells", "dw_j", "dw_g", "dw_p")])


def _compiled_passes(lib, u, c, w, amplitude, kappa, d_w):
    """``_numpy_passes`` as calls into the compiled library, its pointers bound once."""
    arrays = (u, c, w, amplitude, kappa, d_w)
    run = _Run(*(a.ctypes.data for a in arrays), *u.shape,
               *(s // d_w.itemsize for s in d_w.strides))
    run.arrays = arrays  # the buffers outlive every call through the pointers
    ref = ctypes.byref(run)
    return partial(lib.acfv_noise, ref), partial(lib.acfv_resolvent, ref)


def build_passes(cc, flags=FLAGS, source=SOURCE, directory=None) -> Path:
    """Path of ``source`` compiled by ``cc`` with ``flags``, built into ``directory`` unless there.

    ``directory`` defaults to ``$XDG_CACHE_HOME/acfv``, else ``~/.cache/acfv``.
    The library's name holds the sha256 of the source, the flags and
    ``cc --version``.  It is written under a name of its own process and
    then moved into place, so concurrent builders never load half a file.
    """
    if directory is None:
        directory = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "acfv"
    cc, directory = shlex.split(cc), Path(directory)
    version = subprocess.run([*cc, "--version"], capture_output=True, check=True).stdout
    key = hashlib.sha256(b"\0".join([Path(source).read_bytes(), " ".join(flags).encode(),
                                     version])).hexdigest()
    lib = directory / f"passes-{key[:16]}.so"
    if not lib.exists():
        directory.mkdir(parents=True, exist_ok=True)
        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        try:
            subprocess.run([*cc, *flags, "-o", str(tmp), str(source)], capture_output=True,
                           check=True)
            os.replace(tmp, lib)
        finally:
            tmp.unlink(missing_ok=True)
    return lib


@cache
def passes():
    """(bind, description) of the passes this process runs, loaded at the first call.

    The compiled passes, built by ``$CC`` (else ``cc``) into
    ``$XDG_CACHE_HOME/acfv`` (else ``~/.cache/acfv``); when there is no
    compiler, the build fails or the cache cannot be written, the numpy
    passes.
    """
    cc = os.environ.get("CC") or "cc"
    try:
        lib = ctypes.CDLL(str(build_passes(cc)))
    except (OSError, subprocess.SubprocessError):
        return _numpy_passes, "numpy"
    # No argtypes: a round passes a byref(_Run) and two Python ints, which
    # ctypes passes as the pointer and C ints the functions take; declaring
    # them converts every argument again, 1.2 us of a 6.4 us round on a
    # (1, 1, 128, 16) stack.
    lib.acfv_noise.restype = lib.acfv_resolvent.restype = None
    return partial(_compiled_passes, lib), f"compiled ({cc}, {' '.join(FLAGS)})"


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

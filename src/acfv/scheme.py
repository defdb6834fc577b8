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
and in lockstep rounds every step size takes its next step.  A round takes
each (step size, amplitude) tile of p x d cells in turn through three
stages: the noise term, the heat product and the resolvent.  The rounds
are compiled C (``passes.c``, built at the first kernel into a per-user
cache), which steps a dense splitting or heat run from one yield to the
next in one call, its product through numpy's own ``cblas_dgemm``; or
their numpy ufunc form.  A coupled run, whose Newton iteration runs in
Python, and a banded one, whose solves do, go round by round.  Calling a
kernel takes one step; ``StepKernel.run`` steps a whole increment block in
one loop that yields only after the steps its caller names, and a later
call can resume from the kernel's buffer with the next block.
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

# The stages of a round, as passes.c numbers them: the noise term, the heat
# product and the resolvent.
NOISE, PRODUCT, RESOLVENT = 1, 2, 4

# Names of cblas_dgemm with 64-bit integers in numpy's BLAS: the
# scipy-openblas of numpy 2 wheels, the openblas64_ of numpy 1 wheels.
DGEMM_SYMBOLS = ("scipy_cblas_dgemm64_", "cblas_dgemm64_")


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
    of fields per run, each of the solvers' d cells.  The kernel keeps a
    noisy buffer and ``out``, the states after the last step taken, both of
    shape (G, A, p, d).  A round takes each (g, a) tile through the noise
    term w = u + ((a c)(1 - c)) dW, the heat propagator, then the resolvent
    c + (r - c) kappa, each c a clip to [0, 1] of the tile's current state,
    in the order of ``diffusion_g`` and ``resolvent``; the rounds are
    compiled C or numpy (see ``passes``), equal byte for byte, so every run
    equals those formulas bit for bit, as if it were stepped alone.
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
        self._noisy, self.out = np.empty(stack), np.empty(stack)
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
        increment, each contiguous run of such groups at once, from one
        yield to the next in one call where the run allows (see
        ``_stepper``).  A group stepping in round j > 0 also stepped in
        round j - 1.
        """
        groups, _, p, _ = self.out.shape
        at = (None,) * groups if at is None else at
        first = (first,) * groups if np.ndim(first) == 0 else first
        if u0 is not self.out:
            np.copyto(self.out, u0)
        incs = [np.asarray(inc, dtype=float) for inc in increments]
        # the compiled rounds read p rows of each block through its strides
        if len(incs) != groups or any(inc.ndim != 2 or len(inc) != p for inc in incs):
            raise ValueError(f"increments must be {groups} blocks of {p} rows")
        counts = [inc.shape[1] for inc in incs]
        named = {}
        for g, (steps, k) in enumerate(zip(at, counts)):
            for j in range(k):
                if steps is None or first[g] + j in steps:
                    named.setdefault(j, []).append(g)
        states, bounds = self.out, sorted({0, *counts})
        for lo, hi in zip(bounds, bounds[1:]):
            # Rounds lo..hi-1 step the same groups, each contiguous run of
            # them at once; d_w[j - lo, rank] is the (p,) increment of the
            # rank-th of them in round j (a view for a lone group).
            live = [g for g, k in enumerate(counts) if k > lo]
            d_w = (np.stack([incs[g].T[lo:hi] for g in live], axis=1) if len(live) > 1
                   else incs[live[0]].T[lo:hi, None])
            steppers = []
            for run in (list(r) for _, r in groupby(enumerate(live), lambda t: t[1] - t[0])):
                (r0, g0), (r1, g1) = run[0], run[-1]
                steppers.append(self._stepper(g0, g1 + 1, d_w[:, r0:r1 + 1]))
            # each stretch of rounds up to a yield, one stepper call per run
            cuts = sorted({lo, hi, *(j + 1 for j in named if lo <= j < hi)})
            for j0, j1 in zip(cuts, cuts[1:]):
                for stepper in steppers:
                    stepper(j0 - lo, j1 - lo)
                for g in named.get(j1 - 1, ()):
                    yield g, first[g] + j1 - 1, states[g]

    def _stepper(self, g0, g1, d_w):
        """``step(j0, j1)``: rounds j0..j1-1 of groups g0..g1-1, d_w their (rounds, G, p) increments.

        A dense splitting or heat run takes them in one call of its passes.
        A coupled run goes round by round, its Newton iteration after each
        resolvent, and so does a banded run, its solves between the noise
        and the resolvent.
        """
        out, w, kappa, markov, solves, newtons = self._run_buffers(g0, g1)
        rounds = self._bind(out, w, self._amplitude, kappa, d_w, markov)
        resolve = 0 if self.variant == "heat" else RESOLVENT
        if markov is not None and not newtons:
            return partial(rounds, NOISE | PRODUCT | resolve)

        def step(j0, j1):
            for j in range(j0, j1):
                if markov is not None:
                    rounds(NOISE | PRODUCT | resolve, j, j + 1)
                else:
                    rounds(NOISE, j, j + 1)
                    for solver, w_ga, out_ga in solves:
                        solver.apply_markov(w_ga, out=out_ga)
                    if resolve:
                        rounds(resolve, j, j + 1)
                for solver, eps, u_g, w_g in newtons:
                    _newton(solver, eps, u_g, w_g)

        return step

    def _run_buffers(self, g0, g1):
        """Views of groups g0..g1-1: out, noisy, kappa, markov, solves and Newton rows.

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
            self._views[g0, g1] = (self.out[groups], self._noisy[groups], self._kappa[groups],
                                   markov, solves, newtons)
        return self._views[g0, g1]


def _numpy_passes(u, w, amplitude, kappa, d_w, markov):
    """A run's rounds as ufuncs and ``np.matmul``: the fallback and the oracle of passes.c.

    ``u`` and ``w`` are the run's (G, A, p, d) state and noisy buffers,
    ``amplitude`` is (A,), ``kappa`` (G,), ``d_w`` (rounds, G, p) and
    ``markov`` the (G, 1, d, d) propagators (None above the dense limit).
    Returns ``rounds(stages, j0, j1)``, which takes rounds j0..j1-1 through
    the stages named: NOISE sets w = (((c a)(1 - c)) dW) + u with round j's
    increments, PRODUCT u = w markov and RESOLVENT u = c + (u - c) kappa,
    each c = clip(u).  As in passes.c, a noise after a resolvent of the same
    call takes that resolvent's c, which gives the same w.
    """
    c, one_minus_c = np.empty_like(u), np.empty_like(u)
    zero, one = np.zeros(()), np.ones(())  # ufuncs are quicker with 0-d arrays than floats
    # one column per amplitude, step size and path; a lone column as 0-d
    amplitude = amplitude[:, None, None] if len(amplitude) > 1 else amplitude.reshape(())
    kappa = kappa[:, None, None, None] if len(kappa) > 1 else kappa.reshape(())
    d_w = d_w[:, :, None, :, None]

    def rounds(stages, j0, j1):
        for j in range(j0, j1):
            if stages & NOISE:
                if j == j0 or not stages & RESOLVENT:
                    u.clip(zero, one, out=c)
                np.multiply(c, amplitude, out=w)
                np.subtract(one, c, out=one_minus_c)
                np.multiply(w, one_minus_c, out=w)
                np.multiply(w, d_w[j], out=w)
                np.add(w, u, out=w)
            if stages & PRODUCT:
                np.matmul(w, markov, out=u)
            if stages & RESOLVENT:
                u.clip(zero, one, out=c)
                np.subtract(u, c, out=u)
                np.multiply(u, kappa, out=u)
                np.add(c, u, out=u)

    return rounds


class _Run(ctypes.Structure):
    """A run's buffers, BLAS call, sizes and increment strides (in elements), as passes.c reads them."""

    _fields_ = ([(name, ctypes.c_void_p)
                 for name in ("u", "w", "amp", "kappa", "dw", "markov", "gemm")]
                + [(name, ctypes.c_ssize_t) for name in
                   ("groups", "amps", "paths", "cells", "dw_j", "dw_g", "dw_p", "trans")])


def _compiled_passes(lib, gemm, u, w, amplitude, kappa, d_w, markov):
    """``_numpy_passes`` as calls into the compiled library, its pointers bound once.

    The product runs in C through ``gemm`` (numpy's own ``cblas_dgemm``)
    where np.matmul calls it as well: on a dense run with no dimension 1,
    for which np.matmul takes gemv or a loop of its own, and contiguous
    d x d propagators.  Elsewhere, or with ``gemm`` None, rounds with the
    product go one by one around np.matmul.
    """
    item, d = u.itemsize, u.shape[-1]
    direct = (gemm is not None and markov is not None and min(u.shape[-2:]) > 1
              and markov.strides[0] == d * d * item and {*markov.strides[2:]} == {item, d * item})
    arrays = (u, w, amplitude, kappa, d_w, markov)
    run = _Run(*(a.ctypes.data for a in arrays[:5]), markov.ctypes.data if direct else None,
               gemm if direct else None, *u.shape, *(s // item for s in d_w.strides),
               # np.matmul's choice: CblasNoTrans if each matrix's rows are contiguous
               111 if direct and markov.strides[-1] == item else 112)
    run.arrays = arrays  # the buffers outlive every call through the pointers
    rounds = partial(lib.acfv_rounds, ctypes.byref(run))
    if direct or markov is None:
        return rounds
    return partial(_matmul_rounds, rounds, u, w, markov)


def _matmul_rounds(rounds, u, w, markov, stages, j0, j1):
    """``rounds`` of stages j0..j1-1, one by one with PRODUCT as np.matmul between the others."""
    if not stages & PRODUCT:
        rounds(stages, j0, j1)
        return
    for j in range(j0, j1):
        rounds(stages & NOISE, j, j + 1)
        np.matmul(w, markov, out=u)
        if stages & RESOLVENT:
            rounds(RESOLVENT, j, j + 1)


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
    ``$XDG_CACHE_HOME/acfv`` (else ``~/.cache/acfv``), their product
    through numpy's own ``cblas_dgemm`` if one of ``DGEMM_SYMBOLS`` is
    found and a probe through it equals the numpy passes byte for byte;
    when there is no compiler, the build fails or the cache cannot be
    written, the numpy passes.
    """
    cc = os.environ.get("CC") or "cc"
    try:
        lib = ctypes.CDLL(str(build_passes(cc)))
    except (OSError, subprocess.SubprocessError):
        return _numpy_passes, "numpy"
    # No argtypes: a call passes a byref(_Run) and three Python ints, which
    # ctypes passes as the pointer and C ints the function takes; declaring
    # them converts every argument again, 1.2 us of a 6.4 us round on a
    # (1, 1, 128, 16) stack where rounds go one by one.
    lib.acfv_rounds.restype = None
    gemm, name = _numpy_dgemm()
    if gemm is None:
        how = "rounds one by one: no 64-bit cblas_dgemm in numpy"
    elif not _probe(partial(_compiled_passes, lib, gemm)):
        gemm, how = None, f"rounds one by one: {name} differs from np.matmul"
    else:
        how = f"rounds in one call through {name}"
    return partial(_compiled_passes, lib, gemm), f"compiled ({cc}, {' '.join(FLAGS)}); {how}"


def _numpy_dgemm():
    """(address, name) of the first of ``DGEMM_SYMBOLS`` numpy's matmul module reaches, or Nones."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    try:
        module = ctypes.CDLL(umath.__file__)
    except OSError:
        return None, None
    for name in DGEMM_SYMBOLS:
        if hasattr(module, name):
            return ctypes.cast(getattr(module, name), ctypes.c_void_p).value, name
    return None, None


def _probe(bind):
    """Whether two rounds of ``bind`` on a small random stack equal the numpy passes by bytes.

    The propagators are laid out both ways, rows or columns contiguous.
    """
    rng = np.random.default_rng(0)
    u = rng.uniform(-0.5, 1.5, (2, 2, 3, 5))
    markov = rng.standard_normal((2, 1, 5, 5))
    args = (np.array([0.5, 7.0]), np.array([0.25, 0.75]), rng.standard_normal((2, 2, 3)))
    states = []
    for layout in (markov, markov.swapaxes(2, 3)):
        for passes in (bind, _numpy_passes):
            state = u.copy()
            passes(state, np.empty_like(u), *args, layout)(NOISE | PRODUCT | RESOLVENT, 0, 2)
            states.append(state.tobytes())
    return states[0] == states[1] and states[2] == states[3]


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

"""Time steppers for the constrained stochastic heat flow.

``StepKernel`` is the one step map, built for one variant with noise
amplitudes, an eps schedule and a ``ShiftedSolver``, whose step size tau
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

A kernel steps the runs of one step size at A amplitudes as one (A, p, d)
stack of p per-path fields of d cells, with one increment per path that
the amplitudes share; each step size has a kernel of its own.  A round
takes each amplitude's tile of p x d cells in turn through three stages:
the noise term, the heat product and the resolvent.  The rounds are
compiled C (``passes.c``, built at the first kernel into a per-user
cache), which steps a dense splitting or heat run from one yield to the
next in one call, its product through numpy's own ``cblas_dgemm``; or
their numpy ufunc form.  Every other run goes round by round through one
loop, ``StepKernel._stepper``, with a coupled run's Newton iteration after
each resolvent.  Calling a kernel takes one step; ``StepKernel.run`` steps
a whole increment block in one loop that yields only after the steps its
caller names, and a later call can resume from the kernel's buffer with the
next block.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from .constraint import psi_eps
from .errors import NumericalFailure
from .linalg import DENSE_LIMIT, ShiftedSolver, numpy_symbol

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

# cblas_dgemm with 64-bit integers in numpy's BLAS (numpy 2's scipy-openblas).
DGEMM_SYMBOL = "scipy_cblas_dgemm64_"


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
    """The step map of one variant and one step size over a stack of runs, one per amplitude.

    Built once per (variant, amplitudes, eps schedule, solver, path count).
    The kernel reads tau = solver.tau, eps = epsilon(tau) and
    kappa = eps/(eps + tau) from its ShiftedSolver; ``amplitudes`` holds the
    A noise amplitudes; ``paths`` is the number p of fields per run, each
    of the solver's d cells.  The kernel keeps a noisy buffer and ``out``,
    the states after the last step taken, both of shape (A, p, d).  A round
    takes each amplitude's tile of p x d cells through the noise term
    w = u + ((a c)(1 - c)) dW, the heat propagator, then the resolvent
    c + (r - c) kappa, each c a clip to [0, 1] of the tile's current state,
    in the order of ``diffusion_g`` and ``resolvent``; the rounds are
    compiled C or numpy (see ``passes``), equal byte for byte, so every run
    equals those formulas bit for bit, as if it were stepped alone.
    """

    def __init__(self, variant, amplitudes, epsilon: EpsilonSchedule, solver, paths):
        self._amplitude = np.array(amplitudes, dtype=float)
        if self._amplitude.ndim != 1 or not (self._amplitude >= 0).all():
            raise ValueError("amplitude must be >= 0")
        self.variant, self.amplitude = variant, tuple(self._amplitude.tolist())
        self.tau, self.eps = solver.tau, epsilon.value(solver.tau)
        self._solver, self._kappa = solver, self.eps / (self.eps + self.tau)
        d, shape = solver.n, (len(self._amplitude), paths, solver.n)
        self._noisy, self.out = np.empty(shape), np.empty(shape)
        self._markov = solver.markov_t if d <= DENSE_LIMIT else None
        # numpy's dgemm is looked up and checked only where C may call it
        self._bind = (passes() if self._markov is not None and paths > 1 else passes(False))[0]
        # Above the dense limit each amplitude applies the banded factor to
        # its own p rows: one solve over all A p rows was slower at d = 256,
        # as its buffers outgrow the L2 cache.  A dense product is one
        # np.matmul over the stack: one call per amplitude was slower.  The
        # Newton rows are all A p.
        self._solves = list(zip(self._noisy, self.out))
        self._rows = self.out.reshape(-1, d), self._noisy.reshape(-1, d)

    def __call__(self, u_prev, d_w):
        """One step of every run, d_w one increment per path, into ``out``."""
        d_w = np.broadcast_to(np.asarray(d_w, dtype=float), self.out.shape[1:2])
        for _ in self.run(u_prev, d_w[:, None]):
            pass
        return self.out

    def run(self, u0, increments, at=None, first=1):
        """Step u0 once per increment column; yield (n, out) after each step n in ``at``.

        ``increments`` is a (p, k) block, one row per path and steps first,
        first + 1, ... as columns read in place (k may be 0); ``at`` names
        the steps to yield after (None: every step).  Every amplitude takes
        the same increments.  ``u0``, broadcast to ``out``, is copied into
        it unless it is ``out``.  A yielded state is read-only to the caller
        and valid until the generator resumes (the last one until the
        kernel runs again).  ``run(kernel.out, more, at, first=n + 1)``
        resumes a run after its step n, bit for bit as if it had not
        stopped.  The rounds from one yield to the next go in one call
        where the run allows (see ``_stepper``).
        """
        if u0 is not self.out:
            np.copyto(self.out, u0)
        increments = np.asarray(increments, dtype=float)
        # the compiled rounds read p rows of the block through its strides
        if increments.ndim != 2 or len(increments) != self.out.shape[1]:
            raise ValueError(f"increments must be a block of {self.out.shape[1]} rows")
        step, done = self._stepper(increments.T), 0
        for j in range(increments.shape[1]):
            if at is None or first + j in at:
                step(done, j + 1)
                done = j + 1
                yield first + j, self.out
        if done < increments.shape[1]:
            step(done, increments.shape[1])

    def _stepper(self, d_w):
        """``step(j0, j1)``: rounds j0..j1-1, d_w their (rounds, p) increments.

        Where the rounds take the product in C, a splitting or heat run
        takes them in one call.  Every other run goes through the one loop
        here, round by round: the noise, the product (in C, or in Python:
        np.matmul over the stack, or one banded solve per amplitude), the
        resolvent, and for a coupled run the Newton iteration.
        """
        rounds, product_in_c = self._bind(self.out, self._noisy, self._amplitude, self._kappa,
                                          d_w, self._markov)
        resolve = 0 if self.variant == "heat" else RESOLVENT
        coupled = self.variant == "coupled"
        if product_in_c and not coupled:
            return partial(rounds, NOISE | PRODUCT | resolve)

        def step(j0, j1):
            for j in range(j0, j1):
                if product_in_c:
                    rounds(NOISE | PRODUCT | resolve, j, j + 1)
                else:
                    rounds(NOISE, j, j + 1)
                    if self._markov is not None:
                        np.matmul(self._noisy, self._markov, out=self.out)
                    else:
                        for w_a, out_a in self._solves:
                            self._solver.apply_markov(w_a, out=out_a)
                    if resolve:
                        rounds(resolve, j, j + 1)
                if coupled:
                    _newton(self._solver, self.eps, *self._rows)

        return step


def _numpy_passes(u, w, amplitude, kappa, d_w):
    """A run's noise and resolvent stages as ufuncs: the fallback and the oracle of passes.c.

    ``u`` and ``w`` are the run's (A, p, d) state and noisy buffers,
    ``amplitude`` is (A,), ``kappa`` a float and ``d_w`` (rounds, p).
    Returns ``rounds(stages, j0, j1)``, which takes rounds j0..j1-1 through
    the stages named: NOISE sets w = (((c a)(1 - c)) dW) + u with round j's
    increments and RESOLVENT u = c + (u - c) kappa, each c = clip(u).  The
    product is the kernel's, between the two (see ``StepKernel._stepper``).
    """
    c, one_minus_c = np.empty_like(u), np.empty_like(u)
    zero, one = np.zeros(()), np.ones(())  # ufuncs are quicker with 0-d arrays than floats
    # one column per amplitude and path; a lone amplitude as 0-d
    amplitude = amplitude[:, None, None] if len(amplitude) > 1 else amplitude.reshape(())
    kappa, d_w = np.array(kappa), d_w[:, None, :, None]

    def rounds(stages, j0, j1):
        for j in range(j0, j1):
            if stages & NOISE:
                u.clip(zero, one, out=c)
                np.multiply(c, amplitude, out=w)
                np.subtract(one, c, out=one_minus_c)
                np.multiply(w, one_minus_c, out=w)
                np.multiply(w, d_w[j], out=w)
                np.add(w, u, out=w)
            if stages & RESOLVENT:
                u.clip(zero, one, out=c)
                np.subtract(u, c, out=u)
                np.multiply(u, kappa, out=u)
                np.add(c, u, out=u)

    return rounds


def _numpy_bind(u, w, amplitude, kappa, d_w, markov):
    """(rounds, False): the numpy passes bound to a run, whose product the kernel takes."""
    return _numpy_passes(u, w, amplitude, kappa, d_w), False


class _Run(ctypes.Structure):
    """A run as passes.c reads it: buffers, BLAS call, kappa, sizes, strides in elements."""

    _fields_ = ([(name, ctypes.c_void_p) for name in ("u", "w", "amp", "dw", "markov", "gemm")]
                + [("kappa", ctypes.c_double)]
                + [(name, ctypes.c_ssize_t) for name in ("amps", "paths", "cells", "dw_j", "dw_p")])


def _compiled_passes(lib, gemm, u, w, amplitude, kappa, d_w, markov):
    """(rounds, product_in_c): ``_numpy_passes`` as calls into the compiled library.

    The run's pointers are bound once.  The rounds take PRODUCT in C,
    through ``gemm`` (numpy's own ``cblas_dgemm``), where np.matmul calls
    it as well, with the propagator as it is: on a dense run with no
    dimension 1, for which np.matmul takes gemv or a loop of its own, and a
    C-contiguous propagator.  Elsewhere, or with ``gemm`` None, they take
    NOISE and RESOLVENT only, and the kernel's one loop the product.
    """
    direct = (gemm is not None and markov is not None and min(u.shape[-2:]) > 1
              and markov.flags.c_contiguous)
    arrays = (u, w, amplitude, d_w, markov)
    run = _Run(*(a.ctypes.data for a in arrays[:4]), markov.ctypes.data if direct else None,
               gemm if direct else None, kappa, *u.shape,
               *(s // u.itemsize for s in d_w.strides))
    run.arrays = arrays  # the buffers outlive every call through the pointers
    return partial(lib.acfv_rounds, ctypes.byref(run)), direct


def build_passes(cc, flags=FLAGS, source=SOURCE, directory=None) -> Path:
    """Path of ``source`` compiled by ``cc`` with ``flags`` and libm into ``directory``.

    Nothing is built when the library is there already.  ``directory``
    defaults to ``$XDG_CACHE_HOME/acfv``, else ``~/.cache/acfv``.  The
    library's name holds the sha256 of the source, the flags and
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
            subprocess.run([*cc, *flags, "-o", str(tmp), str(source), "-lm"],
                           capture_output=True, check=True)
            os.replace(tmp, lib)
        finally:
            tmp.unlink(missing_ok=True)
    return lib


@cache
def passes(blas=True):
    """(bind, description) of the passes this process runs, loaded at the first call.

    The compiled passes, built by ``$CC`` (else ``cc``) into
    ``$XDG_CACHE_HOME/acfv`` (else ``~/.cache/acfv``); when there is no
    compiler, the build fails or the cache cannot be written, the numpy
    passes.  With ``blas``, the product of the compiled passes runs through
    numpy's own ``cblas_dgemm`` if numpy exports ``DGEMM_SYMBOL`` and a
    probe through it equals the numpy passes byte for byte, and the
    description says so.  ``passes(False)`` neither looks the symbol up nor
    runs the probe, which sets up numpy's BLAS: a process whose runs never
    take the product in C (banded or one-path runs) does without it.  The
    library's other entries, ``acfv_ndtri`` and ``acfv_stencil``, serve
    ``stochastic`` and ``assembly`` through ``compiled_library``.
    """
    if blas:
        bind, described = passes(False)
        if bind is _numpy_bind:
            return bind, described
        lib = bind.args[0]
        gemm = _numpy_dgemm()
        if gemm is None:
            how = "rounds one by one: no 64-bit cblas_dgemm in numpy"
        elif not _probe(partial(_compiled_passes, lib, gemm)):
            gemm, how = None, f"rounds one by one: {DGEMM_SYMBOL} differs from np.matmul"
        else:
            how = f"rounds in one call through {DGEMM_SYMBOL}"
        return partial(_compiled_passes, lib, gemm), f"{described}; {how}"
    cc = os.environ.get("CC") or "cc"
    try:
        lib = ctypes.CDLL(str(build_passes(cc)))
    except (OSError, subprocess.SubprocessError):
        return _numpy_bind, "numpy"
    # No argtypes: a call passes a byref(_Run) and three Python ints, which
    # ctypes passes as the pointer and C ints the function takes; declaring
    # them converts every argument again, 1.2 us of a 6.4 us round on a
    # (1, 128, 16) stack where rounds go one by one.
    lib.acfv_rounds.restype = lib.acfv_ndtri.restype = lib.acfv_stencil.restype = None
    return partial(_compiled_passes, lib, None), f"compiled ({cc}, {' '.join(FLAGS)})"


def compiled_library():
    """The compiled passes.c of this process (see ``passes``), or None on the numpy passes."""
    bind = passes(False)[0]
    return None if bind is _numpy_bind else bind.args[0]


def _numpy_dgemm():
    """The address of ``DGEMM_SYMBOL`` in numpy's BLAS, or None where numpy does not export it."""
    gemm = numpy_symbol(DGEMM_SYMBOL)
    return None if gemm is None else ctypes.cast(gemm, ctypes.c_void_p).value


def _probe(bind):
    """Whether two rounds of ``bind`` in one call equal, by bytes, those of the numpy loop."""
    rng = np.random.default_rng(0)
    u = rng.uniform(-0.5, 1.5, (2, 3, 5))
    args = (np.array([0.5, 7.0]), 0.25, rng.standard_normal((2, 3)))
    markov = rng.standard_normal((5, 5))
    one_call, state, w = u.copy(), u.copy(), np.empty_like(u)
    bind(one_call, np.empty_like(u), *args, markov)[0](NOISE | PRODUCT | RESOLVENT, 0, 2)
    rounds = _numpy_passes(state, w, *args)
    for j in range(2):
        rounds(NOISE, j, j + 1)
        np.matmul(w, markov, out=state)
        rounds(RESOLVENT, j, j + 1)
    return one_call.tobytes() == state.tobytes()


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
        residual = solver.shifted.apply(v) + tau * mass * psi_eps(v, eps) - rhs[rows]
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

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
takes each amplitude's tile of p x d cells in turn through the noise term,
the heat product and (but in a heat run) the resolvent.  The rounds take
one of two routes, fixed when the kernel is built: compiled C
(``passes.c``, built at the first kernel into a per-user cache), whose
product calls numpy's own ``cblas_dgemm`` (dense, more than one path) or
``dpbtrs`` (banded); or their numpy form around ``np.matmul`` or
``ShiftedSolver.apply_markov``, everywhere else.  Either steps a splitting
or heat run from one yield to the next in one call; a coupled run goes
round by round, its Newton iteration after each.  ``StepKernel.run`` is
the one way to step a kernel: it steps a whole increment block in one loop
that yields only after the steps its caller names, and a later call can
resume from the kernel's buffer with the next block; one step is a (p, 1)
block.
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
from .linalg import DENSE_LIMIT, LAPACK_SYMBOLS, lapack, numpy_symbol

__all__ = ["EpsilonSchedule", "StepKernel", "band_product"]

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
    compiled C or numpy (see ``_bind``), equal byte for byte, so every run
    equals those formulas bit for bit, as if it were stepped alone.
    """

    def __init__(self, variant, amplitudes, epsilon: EpsilonSchedule, solver, paths):
        self._amplitude = np.array(amplitudes, dtype=float)
        if self._amplitude.ndim != 1 or not (self._amplitude >= 0).all():
            raise ValueError("amplitude must be >= 0")
        self.variant, self.amplitude = variant, tuple(self._amplitude.tolist())
        self.tau, self.eps = solver.tau, epsilon.value(solver.tau)
        self._solver = solver
        self._kappa = None if variant == "heat" else self.eps / (self.eps + self.tau)
        d, shape = solver.n, (len(self._amplitude), paths, solver.n)
        self._noisy, self.out = np.empty(shape), np.empty(shape)
        self._bind = _bind(solver, paths)
        self._rows = self.out.reshape(-1, d), self._noisy.reshape(-1, d)  # Newton's rows

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

        A splitting or heat run takes them in one call of its rounds; a
        coupled run round by round, its Newton iteration after each.
        """
        rounds = self._bind(self.out, self._noisy, self._amplitude, self._kappa, d_w)
        if self.variant != "coupled":
            return rounds

        def step(j0, j1):
            for j in range(j0, j1):
                rounds(j, j + 1)
                _newton(self._solver, self.eps, *self._rows)

        return step


def _bind(solver, paths):
    """The rounds ``bind(u, w, amplitude, kappa, d_w)`` of ``paths`` paths on ``solver``.

    Compiled where C can make the numpy passes' own BLAS call: dgemm on a
    dense run of more than one path and cell (else np.matmul takes gemv),
    if it passed the probe, or dpbtrs on a banded run whose factor came from
    numpy's LAPACK.  Everywhere else the numpy passes.
    """
    lib, dense = compiled_library(), solver.n <= DENSE_LIMIT
    if lib is not None and dense and min(paths, solver.n) > 1 and (gemm := _dgemm()):
        return partial(_compiled_passes, lib, solver.markov_t, None, gemm, None)
    if lib is not None and not dense and lapack().route != "scipy.linalg.lapack":
        return partial(_compiled_passes, lib, solver.band_factor,
                       np.ascontiguousarray(solver.mass_diag), None, _address(LAPACK_SYMBOLS[3]))
    if dense:
        return partial(_numpy_passes, lambda w, u: np.matmul(w, solver.markov_t, out=u))
    # per amplitude: one solve of all A p rows was slower at d = 256 (L2 cache)
    return partial(_numpy_passes,
                   lambda w, u: [solver.apply_markov(w_a, out=u_a) for w_a, u_a in zip(w, u)])


def _numpy_passes(product, u, w, amplitude, kappa, d_w):
    """A run's rounds as ufuncs around ``product``: the fallback and the oracle of passes.c.

    ``u`` and ``w`` are the run's (A, p, d) state and noisy buffers,
    ``amplitude`` is (A,), ``kappa`` a float (None: no resolvent, a heat
    run), ``d_w`` (rounds, p) and ``product(w, u)`` the heat product of the
    whole stack into u.  Returns ``rounds(j0, j1)``, which takes rounds
    j0..j1-1 in turn: the noise w = (((c a)(1 - c)) dW) + u with round j's
    increments, the product, and the resolvent u = c + (u - c) kappa, each
    c = clip(u).  As in passes.c, a noise after a resolvent of the same call
    takes that resolvent's c, which gives the same w.
    """
    c, one_minus_c = np.empty_like(u), np.empty_like(u)
    zero, one = np.zeros(()), np.ones(())  # ufuncs are quicker with 0-d arrays than floats
    # one column per amplitude and path; a lone amplitude as 0-d
    amplitude = amplitude[:, None, None] if len(amplitude) > 1 else amplitude.reshape(())
    resolve, kappa, d_w = kappa is not None, np.array(kappa), d_w[:, None, :, None]

    def rounds(j0, j1):
        for j in range(j0, j1):
            if j == j0 or not resolve:
                u.clip(zero, one, out=c)
            np.multiply(c, amplitude, out=w)
            np.subtract(one, c, out=one_minus_c)
            np.multiply(w, one_minus_c, out=w)
            np.multiply(w, d_w[j], out=w)
            np.add(w, u, out=w)
            product(w, u)
            if resolve:
                u.clip(zero, one, out=c)
                np.subtract(u, c, out=u)
                np.multiply(u, kappa, out=u)
                np.add(c, u, out=u)

    return rounds


class _Run(ctypes.Structure):
    """A run as passes.c reads it: buffers, BLAS call, kappa, sizes, strides in elements."""

    _fields_ = ([(name, ctypes.c_void_p) for name in "u w amp dw op mass gemm pbtrs".split()]
                + [("kappa", ctypes.c_double)]
                + [(name, ctypes.c_int64) for name in "amps paths cells band dw_j dw_p".split()]
                + [("resolve", ctypes.c_int)])


def _compiled_passes(lib, op, mass, gemm, pbtrs, u, w, amplitude, kappa, d_w):
    """``_numpy_passes`` as calls into the compiled library, the run's pointers bound once.

    The product is ``gemm`` (numpy's ``cblas_dgemm``) with ``op`` the (d, d)
    propagator, or with ``gemm`` None, ``mass`` times the noisy rows solved
    by ``pbtrs`` (numpy's ``dpbtrs``) with ``op`` the (d, u + 1) band factor.
    """
    arrays = (u, w, amplitude, d_w, op, mass)
    run = _Run(*(None if a is None else a.ctypes.data for a in arrays), gemm, pbtrs,
               0.0 if kappa is None else kappa, *u.shape, op.shape[1],
               *(s // u.itemsize for s in d_w.strides), kappa is not None)
    run.arrays = arrays  # the buffers outlive every call through the pointers
    return partial(lib.acfv_rounds, ctypes.byref(run))


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
def compiled_library():
    """The compiled passes.c of this process, loaded at the first call; None on the numpy passes.

    Built by ``$CC`` (else ``cc``) into ``$XDG_CACHE_HOME/acfv`` (else
    ``~/.cache/acfv``); when there is no compiler, the build fails or the
    cache cannot be written, every kernel runs the numpy passes.  Besides
    ``acfv_rounds``, its ``acfv_increments`` serves ``stochastic`` and
    ``acfv_band_product`` serves ``band_product``; ``acfv_ndtri``, the
    inverse normal CDF the sampler applies, is exported for the tests'
    scipy oracle.
    """
    try:
        lib = ctypes.CDLL(str(build_passes(os.environ.get("CC") or "cc")))
    except (OSError, subprocess.SubprocessError):
        return None
    # No argtypes for the rounds and the band product: ctypes passes byrefs
    # and Python ints as the C functions take them; declaring them converts
    # every argument again, 1.2 us of a 6.4 us round of a (1, 128, 16)
    # coupled stack.
    for function in (lib.acfv_rounds, lib.acfv_band_product, lib.acfv_increments,
                     lib.acfv_ndtri):
        function.restype = None
    lib.acfv_increments.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t,
                                    ctypes.c_ssize_t, ctypes.c_uint64, ctypes.c_int64,
                                    ctypes.c_double, ctypes.c_double)
    return lib


@cache
def _dgemm():
    """The address of numpy's ``DGEMM_SYMBOL`` if it is exported and passes ``_probe``, else None.

    Looked up and probed at the first call, which sets up numpy's BLAS:
    ``_bind``'s, for the first dense kernel of more than one path.
    """
    gemm = _address(DGEMM_SYMBOL)
    return gemm if gemm is not None and _probe(compiled_library(), gemm) else None


def passes():
    """The manifest's ``passes``: the library loaded, ``compiled (<cc>, <flags>)`` or ``numpy``."""
    if compiled_library() is None:
        return "numpy"
    return f"compiled ({os.environ.get('CC') or 'cc'}, {' '.join(FLAGS)})"


def _address(name):
    """The address of the function ``name`` of numpy's BLAS, or None where it is not exported."""
    function = numpy_symbol(name)
    return None if function is None else ctypes.cast(function, ctypes.c_void_p).value


def _probe(lib, gemm):
    """Whether two rounds in one compiled call through ``gemm`` equal the numpy passes' bytes."""
    # sines of 1, 2, ...: full mantissas of either sign, without loading numpy.random
    wave = np.sin(np.arange(1.0, 62.0))
    u = wave[:30].reshape(2, 3, 5) + 0.5  # cells below 0, inside and above 1
    args = (np.array([0.5, 7.0]), 0.25, wave[30:36].reshape(2, 3))
    markov = wave[36:].reshape(5, 5)
    compiled, state = u.copy(), u.copy()
    _compiled_passes(lib, markov, None, gemm, None, compiled, np.empty_like(u), *args)(0, 2)
    _numpy_passes(lambda w, v: np.matmul(w, markov, out=v), state, np.empty_like(u), *args)(0, 2)
    return compiled.tobytes() == state.tobytes()


def band_product(band, x):
    """A x for a field x of d cells, or for each row of a (k, d) stack; ``band`` A's upper band.

    ``band`` is (d, u + 1), entry (i, j), i <= j, of the symmetric A at
    [j, u + i - j] (see ``linalg``).  Each row sums the products of the
    band's slots, zeros too, from 0 in ascending column order, which gives
    a CSR product's bits for a finite x: a zero product leaves a finite
    sum as it is, and a sum from +0 never becomes -0.  In the compiled
    ``acfv_band_product``, else in numpy, by diagonals.
    """
    band, x = np.ascontiguousarray(band, dtype=float), np.ascontiguousarray(x, dtype=float)
    d, u = band.shape[0], band.shape[1] - 1
    if x.shape[-1:] != (d,):  # the compiled product reads d cells a row
        raise ValueError(f"x must be a field or a stack of {d} cells")
    lib = compiled_library()
    if lib is not None:
        out = np.empty(x.shape)
        lib.acfv_band_product(_pointer(out), _pointer(x), _pointer(band), x.size // d, d, u)
        return out
    rows = x.reshape(-1, d)
    out = np.zeros(rows.shape)
    reach = min(u, d - 1)
    for s in range(-reach, reach + 1):  # column i + s of row i
        if s < 0:
            out[:, -s:] += band[-s:, u + s] * rows[:, :s]
        else:
            out[:, :d - s] += band[s:, u - s] * rows[:, s:]
    return out.reshape(x.shape)


def _pointer(array):
    """The data address of a C-contiguous array as a ctypes argument.

    Through a ctypes view of a writable buffer, three times quicker than
    ``array.ctypes``, which serves read-only and empty arrays.
    """
    try:
        return ctypes.byref(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):
        return ctypes.c_void_p(array.ctypes.data)


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
        residual = band_product(solver.band, v) + tau * mass * psi_eps(v, eps) - rhs[rows]
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

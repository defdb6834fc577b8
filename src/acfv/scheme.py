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
the heat product and (but in a heat run) the resolvent.  The rounds are
compiled C (``passes.c``, built at the first kernel into a per-user
cache), whose product is the very call of numpy's own BLAS that
``np.matmul`` or ``ShiftedSolver.apply_markov`` makes: ``cblas_dgemm`` on
a dense run of more than one path and cell, ``cblas_dgemv`` on one of one
path or one cell, ``dpbtrs`` on a banded run.  Their numpy form, the
tests' byte oracle, is in ``tests/oracles.py``.  A splitting or heat run
steps from one yield to the next in one call; a coupled run goes round by
round, its Newton iteration after each.  ``StepKernel.run`` is
the one way to step a kernel: it steps a whole increment block in one loop
that yields only after the steps its caller names, and a later call can
resume from the kernel's buffer with the next block; one step is a (p, 1)
block.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import shutil
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

# CPython's own sha256, as random.py takes sha512: hashlib would map OpenSSL's
# libcrypto into every process for the run_id and the library cache key.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

import numpy as np

from .constraint import psi_eps
from .errors import ConfigError, NumericalFailure
from .linalg import DENSE_LIMIT, numpy_blas

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

# Lines of a failed compiler's stderr that its ConfigError quotes.
STDERR_LINES = 10


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
    the states after the last step taken, both of shape (A, p, d), and binds
    its compiled rounds to them once, when it is built.  A round
    takes each amplitude's tile of p x d cells through the noise term
    w = u + ((a c)(1 - c)) dW, the heat propagator, then the resolvent
    c + (r - c) kappa, each c a clip to [0, 1] of the tile's current state,
    in the order of ``diffusion_g`` and ``resolvent``; the compiled rounds
    (see ``_bind``) make the same IEEE operations, so every run equals
    those formulas bit for bit, as if it were stepped alone.
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
        self._rounds = _bind(solver, self.out, self._noisy, self._amplitude, self._kappa)
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
        stopped.  A splitting or heat run takes the rounds from one yield to
        the next in one call, a coupled run one round a call (``_coupled``).
        """
        if u0 is not self.out:
            np.copyto(self.out, u0)
        increments = np.asarray(increments, dtype=float)
        # the compiled rounds read p rows of the block through its strides
        if increments.ndim != 2 or len(increments) != self.out.shape[1]:
            raise ValueError(f"increments must be a block of {self.out.shape[1]} rows")
        rounds, done = self._rounds(increments.T), 0
        step = partial(self._coupled, rounds) if self.variant == "coupled" else rounds
        for j in range(increments.shape[1]):
            if at is None or first + j in at:
                step(done, j + 1)
                done = j + 1
                yield first + j, self.out
        if done < increments.shape[1]:
            step(done, increments.shape[1])

    def _coupled(self, rounds, j0, j1):
        """Rounds j0..j1-1 of ``rounds(j0, j1)`` one at a time, the Newton iteration after each."""
        for j in range(j0, j1):
            rounds(j, j + 1)
            _newton(self._solver, self.eps, *self._rows)


def _bind(solver, u, w, amplitude, kappa):
    """The compiled rounds of a kernel, bound once: ``over(d_w)`` gives ``rounds(j0, j1)``.

    ``u`` and ``w`` are the kernel's (A, p, d) state and noisy buffers,
    ``amplitude`` is (A,) and ``kappa`` a float (None: no resolvent, a heat
    run); they and the product are bound into one ``_Run`` here, and a call
    of ``rounds`` passes ``acfv_rounds`` only the address and strides of the
    (rounds, p) increments ``d_w`` and the round range.  The product is the
    BLAS call of ``np.matmul`` on a dense run: dgemm, or dgemv with one path
    or one cell; on a banded run, the mass times the noisy rows solved by
    dpbtrs, as ``ShiftedSolver.apply_markov`` does.
    """
    lib = compiled_library()
    if solver.n > DENSE_LIMIT:
        op, mass = solver.band_factor, np.ascontiguousarray(solver.mass_diag)
        product = {"pbtrs": _address("scipy_dpbtrs_64_")}
    else:
        op, mass = solver.markov_t, None
        product = ({"gemm": _address("scipy_cblas_dgemm64_")} if min(u.shape[1], solver.n) > 1
                   else {"gemv": _address("scipy_cblas_dgemv64_")})
    arrays = (u, w, amplitude, op, mass)
    run = _Run(*(None if a is None else a.ctypes.data for a in arrays),
               0.0 if kappa is None else kappa, *u.shape, op.shape[1], kappa is not None,
               **product)
    run.arrays = arrays  # the buffers outlive every call through the pointers
    call, bound = lib.acfv_rounds, ctypes.byref(run)

    def over(d_w):
        return partial(call, bound, ctypes.c_void_p(d_w.ctypes.data),
                       *(s // d_w.itemsize for s in d_w.strides))

    return over


class _Run(ctypes.Structure):
    """A kernel's run as passes.c reads it: buffers, BLAS call, kappa, sizes."""

    _fields_ = ([(name, ctypes.c_void_p) for name in "u w amp op mass".split()]
                + [("kappa", ctypes.c_double)]
                + [(name, ctypes.c_int64) for name in "amps paths cells band".split()]
                + [("resolve", ctypes.c_int)]
                + [(name, ctypes.c_void_p) for name in "gemm gemv pbtrs".split()])


def build_passes(cc, flags=FLAGS, source=SOURCE, directory=None) -> Path:
    """Path of ``source`` compiled by ``cc`` with ``flags`` and libm into ``directory``.

    Nothing is built, and no process started, when the library is there
    already.  ``directory`` defaults to ``$XDG_CACHE_HOME/acfv``, else
    ``~/.cache/acfv``.  The library's name holds the sha256 of the source,
    the flags, ``cc`` and the real path, size and modification time of its
    executable (the first word of ``cc``, looked up on ``$PATH``), so a
    rebuilt or replaced compiler builds a new library.  It is written under
    a name of its own process and then moved into place, so concurrent
    builders never load half a file.  A compiler that cannot be run or
    fails, or a directory that cannot be made, is a ConfigError that names
    it and the cause.
    """
    if directory is None:
        directory = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "acfv"
    command, directory = shlex.split(cc), Path(directory)
    name = command[0] if command else cc
    try:
        executable = os.path.realpath(shutil.which(name) or name)
        stat = os.stat(executable)
    except OSError as exc:
        raise _cannot_run(cc, exc) from exc
    key = sha256(b"\0".join([Path(source).read_bytes(), " ".join(flags).encode(), cc.encode(),
                             os.fsencode(executable), b"%d %d" % (stat.st_size, stat.st_mtime_ns)])
                 ).hexdigest()
    lib = directory / f"passes-{key[:16]}.so"
    if not lib.exists():
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cache directory {directory} of the compiled passes: "
                              f"{exc.strerror}") from exc
        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        try:
            _compile(cc, [*command, *flags, "-o", str(tmp), str(source), "-lm"])
            os.replace(tmp, lib)
        finally:
            tmp.unlink(missing_ok=True)
    return lib


def _compile(cc, command):
    """Run the compiler ``cc`` as ``command``.

    A ConfigError if it cannot run or fails, which names ``cc`` and quotes
    the last ``STDERR_LINES`` lines of its stderr.  Only a build imports
    subprocess.
    """
    import subprocess

    try:
        subprocess.run(command, capture_output=True, check=True)
    except OSError as exc:
        raise _cannot_run(cc, exc) from exc
    except subprocess.CalledProcessError as exc:
        stderr = exc.stderr.decode(errors="replace").splitlines()[-STDERR_LINES:]
        raise ConfigError("\n".join([f"C compiler {cc!r} ($CC, else cc) failed with exit "
                                     f"{exc.returncode}:", *stderr])) from exc


def _cannot_run(cc, exc):
    return ConfigError(f"C compiler {cc!r} ($CC, else cc) cannot run: {exc.strerror}; "
                       "acfv builds its compiled passes with it")


@cache
def compiled_library():
    """The compiled passes.c of this process, built and loaded at the first call.

    Built by ``$CC`` (else ``cc``) into ``$XDG_CACHE_HOME/acfv`` (else
    ``~/.cache/acfv``) unless a library of the same source, flags and
    compiler is cached there, which loads without starting a process; a
    library that cannot be built or loaded is a ConfigError (see
    ``build_passes``).  Besides ``acfv_rounds``, its
    ``acfv_increments`` and ``acfv_ladder`` serve ``stochastic`` and
    ``acfv_band_product`` serves ``band_product``; ``acfv_ndtri``, the
    inverse normal CDF the sampler applies, is exported for the tests'
    scipy oracle.
    """
    path = build_passes(os.environ.get("CC") or "cc")
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise ConfigError(f"cannot load the compiled passes {path}: {exc}") from exc
    # No argtypes for the rounds and the band product: ctypes passes byrefs
    # and Python ints as the C functions take them; declaring them converts
    # every argument again, 1.2 us of a 6.4 us round of a (1, 128, 16)
    # coupled stack.
    for function in (lib.acfv_rounds, lib.acfv_band_product, lib.acfv_increments,
                     lib.acfv_ladder, lib.acfv_ndtri):
        function.restype = None
    lib.acfv_increments.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t,
                                    ctypes.c_ssize_t, ctypes.c_uint64, ctypes.c_int64,
                                    ctypes.c_double, ctypes.c_double)
    lib.acfv_ladder.argtypes = (*[ctypes.c_void_p] * 2, *[ctypes.c_ssize_t] * 2,
                                *[ctypes.c_void_p] * 4, ctypes.c_ssize_t)
    return lib


def passes():
    """The manifest's ``passes``: the library loaded, ``compiled (<cc>, <flags>)``."""
    compiled_library()
    return f"compiled ({os.environ.get('CC') or 'cc'}, {' '.join(FLAGS)})"


def _address(name):
    """The address of the routine ``name`` of numpy's BLAS (see ``linalg.numpy_blas``)."""
    return ctypes.cast(numpy_blas()[name], ctypes.c_void_p).value


def band_product(band, x):
    """A x for a field x of d cells, or for each row of a (k, d) stack; ``band`` A's upper band.

    ``band`` is (d, u + 1), entry (i, j), i <= j, of the symmetric A at
    [j, u + i - j] (see ``linalg``).  Each row sums the products of the
    band's slots, zeros too, from 0 in ascending column order, which gives
    a CSR product's bits for a finite x: a zero product leaves a finite
    sum as it is, and a sum from +0 never becomes -0.  One call of the compiled
    ``acfv_band_product``; its numpy form, by diagonals, is in
    ``tests/oracles.py``.
    """
    band, x = np.ascontiguousarray(band, dtype=float), np.ascontiguousarray(x, dtype=float)
    d, u = band.shape[0], band.shape[1] - 1
    if x.shape[-1:] != (d,):  # the compiled product reads d cells a row
        raise ValueError(f"x must be a field or a stack of {d} cells")
    out = np.empty(x.shape)
    compiled_library().acfv_band_product(_pointer(out), _pointer(x), _pointer(band),
                                         x.size // d, d, u)
    return out


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

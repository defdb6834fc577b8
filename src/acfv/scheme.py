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
takes each row through the noise term, the heat product (that of
``ShiftedSolver.apply_markov``) and (but in a heat run) the resolvent.
The rounds are compiled C (``passes.c``, built at the first kernel or
solver into a per-user cache), which takes each amplitude's paths eight
at a time, one row a vector lane, through every round of a call; a
coupled round then runs the semismooth Newton iteration on the same
lanes, each solve by the band Cholesky factor and solve of its Jacobian.
A coupled kernel may step a splitting twin of its own stack beside itself,
round by round, and write the gap between the two after every step (the
splitting-error study).  Their numpy form, the tests' byte oracle, is in
``tests/oracles.py``.  Every run steps from one yield to the next in one
call.  ``StepKernel.run`` is the one way to step a kernel: it steps a
whole increment block in one loop that yields only after the steps its
caller names, and a later call can resume from the kernel's buffer with
the next block; one step is a (p, 1) block.
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

from .errors import ConfigError, NumericalFailure

__all__ = ["EpsilonSchedule", "StepKernel", "band_product"]

VARIANTS = ("splitting", "coupled", "heat")

# Iteration cap and residual tolerance of the semismooth Newton loop in
# the coupled step, read when a kernel is built; the residual is the
# infinity norm of the defining equation scaled by the smallest cell
# measure.
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
    of the solver's d cells.  The kernel keeps ``out``, the states after
    the last step taken, of shape (A, p, d), and binds its compiled rounds
    to it once, when it is built.  A round takes each row through the noise
    term w = u + ((a c)(1 - c)) dW, the heat propagator, then the resolvent
    c + (r - c) kappa, each c a clip to [0, 1] of the row's current state,
    in the order of ``diffusion_g`` and ``resolvent``, and in a coupled run
    the semismooth Newton iteration on each row from there; the compiled
    rounds (see ``_bind``) make the same IEEE operations, so every run
    equals those formulas bit for bit, as if it were stepped alone.

    ``gaps``, an (A, p, N) float array, gives a coupled kernel a splitting
    twin: ``twin``, a buffer shaped as ``out`` that each round steps first,
    on the same increments, as a splitting kernel of the same stack would,
    before it writes gaps[k, i, n - 1], the largest |coupled - splitting|
    over the cells of path i at amplitude k after step n.
    """

    def __init__(self, variant, amplitudes, epsilon: EpsilonSchedule, solver, paths,
                 gaps=None):
        self._amplitude = np.array(amplitudes, dtype=float)
        if self._amplitude.ndim != 1 or not (self._amplitude >= 0).all():
            raise ValueError("amplitude must be >= 0")
        self.variant, self.amplitude = variant, tuple(self._amplitude.tolist())
        self.tau, self.eps = solver.tau, epsilon.value(solver.tau)
        kappa = None if variant == "heat" else self.eps / (self.eps + self.tau)
        shape = (len(self._amplitude), paths, solver.n)
        self.out, self.twin, self._gaps = np.empty(shape), None, gaps
        if gaps is not None:
            if (variant != "coupled" or gaps.dtype != float or gaps.ndim != 3
                    or gaps.shape[:2] != shape[:2] or gaps.strides[2] != gaps.itemsize):
                raise ValueError("a coupled kernel writes the gaps to its splitting twin "
                                 "into an (A, p, N) float array")
            self.twin = np.empty(shape)
        self._rounds = _bind(solver, self.out, self._amplitude, kappa,
                             self.eps if variant == "coupled" else None, self.twin)

    def run(self, u0, increments, at=None, first=1):
        """Step u0 once per increment column; yield (n, out) after each step n in ``at``.

        ``increments`` is a (p, k) block, one row per path and steps first,
        first + 1, ... as columns read in place (k may be 0); ``at`` names
        the steps to yield after (None: every step).  Every amplitude takes
        the same increments.  ``u0``, broadcast to ``out``, is copied into
        it, and into ``twin``, unless it is ``out``.  A yielded state is
        read-only to the caller and valid until the generator resumes (the
        last one until the kernel runs again).
        ``run(kernel.out, more, at, first=n + 1)`` resumes a run after its
        step n, bit for bit as if it had not stopped.  The rounds from one
        yield to the next are one call; a coupled row whose Newton iteration
        does not converge is a NumericalFailure, after which the kernel's
        states are undefined.
        """
        increments = np.asarray(increments, dtype=float)
        # the compiled rounds read p rows of the block through its strides
        if increments.ndim != 2 or len(increments) != self.out.shape[1]:
            raise ValueError(f"increments must be a block of {self.out.shape[1]} rows")
        columns = ()  # the gaps from step first on
        if self.twin is not None:
            if first - 1 + increments.shape[1] > self._gaps.shape[2]:
                raise ValueError(f"the gaps hold {self._gaps.shape[2]} steps")
            if u0 is not self.out:
                np.copyto(self.twin, u0)
            columns = (self._gaps[:, :, first - 1:],)
        if u0 is not self.out:
            np.copyto(self.out, u0)
        rounds, done = self._rounds(increments.T, *columns), 0
        for j in range(increments.shape[1]):
            if at is None or first + j in at:
                rounds(done, j + 1)
                done = j + 1
                yield first + j, self.out
        if done < increments.shape[1]:
            rounds(done, increments.shape[1])


def _bind(solver, u, amplitude, kappa, eps=None, twin=None):
    """The compiled rounds of a kernel, bound once: ``over(d_w)`` gives ``rounds(j0, j1)``.

    ``u`` is the kernel's (A, p, d) state buffer, ``amplitude`` is (A,),
    ``kappa`` a float (None: no resolvent, a heat run) and ``eps`` the
    penalty's eps of a coupled run (None: no Newton iteration); they and
    the solver's operator are bound into one ``_Run`` here, and a call of
    ``rounds`` passes ``acfv_rounds`` only the address and strides of the
    (rounds, p) increments ``d_w`` and the round range.  The rounds take
    each amplitude's paths eight at a time, one row a vector lane, through
    every round of the call, the rows grouped by the size of their largest
    cell (see passes.c).  The product is ``ShiftedSolver.apply_markov``'s:
    with ``markov_t`` on a dense run, else the solve of the mass times the
    noisy rows w with the band factor.  A coupled round then takes the
    lanes, from the splitting step, through the semismooth Newton iteration
    of (M + tau A) u + tau M psi_eps(u) = M w, strictly monotone so uniquely
    solvable, each lane making the IEEE operations of its row iterated
    alone: at most ``NEWTON_MAX_ITER`` solves of the active-set Jacobian
    M + tau A + (tau/eps) M D (D marks the cells outside [0, 1]), each by
    the band Cholesky factor and solve of its band, until the residual's
    infinity norm is at most ``NEWTON_TOL`` times the smallest mass.  A row
    that does not converge, as one whose residual is not finite never does,
    is a NumericalFailure with the largest residual of the failed rows of
    its round.

    ``twin``, a second (A, p, d) buffer, pairs a coupled run with the
    splitting run of its stack there, bound here too: ``over(d_w, gaps)``
    gives rounds that each step the splitting rows first, then the coupled
    ones, and then write each row's largest |coupled - splitting| over its
    cells into column j of the (A, p, rounds) ``gaps`` after round j.
    """
    lib, d, dense = compiled_library(), solver.n, solver.markov_t is not None
    half = solver.band.shape[1] - 1
    # the order and step of the rows, then the lanes of a group and its Newton
    # iteration (passes.c)
    rows = d * (half + 5) if eps is not None else 2 * d
    arrays = {"u": u, "amp": amplitude, "mass": solver.mass_diag,
              "op": solver.markov_t if dense else solver.factor,
              "shifted": solver.band if eps is not None else None,
              "scratch": np.empty(2 * u.shape[1] + 8 * (rows + 1))}
    partner = None if twin is None else _bind(solver, twin, amplitude, kappa).run
    run = _Run(**{name: None if a is None else a.ctypes.data for name, a in arrays.items()},
               beside=None if partner is None else ctypes.addressof(partner),
               kappa=0.0 if kappa is None else kappa, tau=solver.tau, eps=eps or 0.0,
               tol=NEWTON_TOL * solver.mass_diag.min(), amps=u.shape[0], paths=u.shape[1],
               cells=d, half=half, iterations=NEWTON_MAX_ITER, resolve=kappa is not None,
               dense=dense)
    run.arrays, run.partner = arrays, partner  # outlive every call through the pointers
    call, bound = lib.acfv_rounds, ctypes.byref(run)

    def over(d_w, gaps=None):
        if gaps is not None:
            run.gap = gaps.ctypes.data
            run.gap_a, run.gap_p = (s // gaps.itemsize for s in gaps.strides[:2])
        step = partial(call, bound, ctypes.c_void_p(d_w.ctypes.data),
                       *(s // d_w.itemsize for s in d_w.strides))

        def rounds(j0, j1):
            if step(j0, j1):
                raise NumericalFailure(f"semismooth Newton did not converge in "
                                       f"{run.iterations} iterations", residual=run.residual)

        return rounds

    over.run = run
    return over


class _Run(ctypes.Structure):
    """A kernel's run as passes.c reads it: buffers, constants, sizes, flags."""

    _fields_ = ([(name, ctypes.c_void_p)
                 for name in "u amp op mass shifted scratch gap beside".split()]
                + [(name, ctypes.c_double) for name in "kappa tau eps tol residual".split()]
                + [(name, ctypes.c_int64)
                   for name in "amps paths cells half iterations gap_a gap_p".split()]
                + [(name, ctypes.c_int) for name in "resolve dense".split()])


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
    ``build_passes``).  Besides ``acfv_rounds``, its ``acfv_band_factor``,
    ``acfv_band_solve`` and ``acfv_product`` serve ``linalg.ShiftedSolver``,
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
    # No argtypes for the rounds and the linear algebra: ctypes passes byrefs,
    # None and Python ints as the C functions take them; declaring them
    # converts every argument again, 1.2 us of a 6.4 us round of a
    # (1, 128, 16) coupled stack.  The rounds and the factor return their
    # int status.
    for function in (lib.acfv_band_product, lib.acfv_band_solve, lib.acfv_product,
                     lib.acfv_increments, lib.acfv_ladder, lib.acfv_ndtri):
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
                                         x.size // d, d, u, _pointer(np.empty(8 * (2 * d + 1))))
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

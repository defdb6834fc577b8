"""One prefactored operator for the shifted system (M + tau A) x = b.

The shifted matrix is symmetric positive definite (positive diagonal
mass plus a positive semi-definite stiffness) and fixed per (mesh, tau),
so it is factored once and every later call only applies the factor to
a whole stack of right-hand sides.  The cell count d selects the form:

* d <= DENSE_LIMIT: a dense Cholesky factor, plus the dense Markov
  propagator (M + tau A)^{-1} M, transposed as ``markov_t``, so one heat
  substep on a (p, d) stack is a single matrix product;
* larger d: a banded Cholesky factor of the band itself, whose bandwidth
  is the stiffness band's (L on the uniform L x L grid); no d x d matrix
  is built.

The factors come from the LAPACK in numpy's own BLAS (``dpotrf``/``dpotrs``
and ``dpbtrf``/``dpbtrs``, the routines behind scipy's ``cho_factor``,
``cho_solve``, ``cholesky_banded`` and ``cho_solve_banded``), called through
ctypes.  ``numpy_blas`` also gives the kernels the ``cblas_dgemm`` and
``cblas_dgemv`` of their heat products and the ``dgesv`` of a coupled
step's dense Newton solves (the kernels solve its banded ones by
``dpbtrf``/``dpbtrs`` on the shifted band); a numpy that does not export
all seven routines is a ConfigError.
"""

from __future__ import annotations

import ctypes
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError

__all__ = ["ShiftedSolver", "DENSE_LIMIT", "band_to_dense"]

# Systems up to this size are held as dense matrices, larger ones as bands.
DENSE_LIMIT = 64

# The routines of numpy's BLAS (numpy 2's scipy-openblas, 64-bit integers)
# that acfv calls: the heat products, the Cholesky factors and solves, and
# the LU solve of the coupled step's dense Newton systems.
CHOLESKY = tuple(f"scipy_{name}_64_" for name in ("dpotrf", "dpotrs", "dpbtrf", "dpbtrs"))
BLAS_SYMBOLS = ("scipy_cblas_dgemm64_", "scipy_cblas_dgemv64_", *CHOLESKY, "scipy_dgesv_64_")


@cache
def numpy_blas():
    """The routines of ``BLAS_SYMBOLS`` in numpy's BLAS, by name, loaded at the first call.

    From numpy's extension module that holds its matmul, through ctypes; a
    ConfigError names the first routine it does not export.
    """
    from numpy._core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError as exc:
        raise ConfigError(f"cannot load numpy's BLAS from {umath.__file__}: {exc}") from exc
    for name in BLAS_SYMBOLS:
        if not hasattr(lib, name):
            raise ConfigError(f"numpy's BLAS ({umath.__file__}) exports no {name}; "
                              "acfv needs numpy >= 2 as its wheels ship it")
    return {name: getattr(lib, name) for name in BLAS_SYMBOLS}


def _fortran(routine, *args):
    """The info of a LAPACK routine called on the upper triangle with ``args`` and info.

    Integers go by reference as 64-bit, arrays by address; the trailing
    length of the character argument is 1.
    """
    info = ctypes.c_int64()
    routine(b"U", *(ctypes.c_void_p(a.ctypes.data) if isinstance(a, np.ndarray)
                    else ctypes.byref(ctypes.c_int64(a)) for a in args),
            ctypes.byref(info), ctypes.c_size_t(1))
    return info.value


class Lapack(NamedTuple):
    """The four LAPACK routines of the factors, each in place on C arrays that hold Fortran ones.

    A C-contiguous (d, d) matrix, (p, d) stack of right-hand sides or
    (d, u + 1) band is, read in Fortran order, the symmetric matrix, the
    d x p right-hand side or the (u + 1) x d upper band storage LAPACK
    takes.  ``potrf(a)`` and ``pbtrf(band)`` return the info of the
    factorization; ``potrs(factor, b)`` and ``pbtrs(factor, b)`` solve
    for b.
    """

    potrf: Callable
    potrs: Callable
    pbtrf: Callable
    pbtrs: Callable


@cache
def lapack() -> Lapack:
    """The routines from numpy's BLAS (see ``numpy_blas``)."""
    potrf, potrs, pbtrf, pbtrs = (partial(_fortran, numpy_blas()[name]) for name in CHOLESKY)
    return Lapack(
        lambda a: potrf(len(a), a, len(a)),
        lambda c, b: potrs(len(c), b.size // len(c), c, len(c), b, len(c)),
        lambda band: pbtrf(len(band), band.shape[1] - 1, band, band.shape[1]),
        lambda c, b: pbtrs(len(c), c.shape[1] - 1, b.size // len(c), c, c.shape[1], b, len(c)))


def _factor(routine, matrix):
    """``matrix`` factored in place by ``routine``; LinAlgError if it is not positive definite."""
    info = routine(matrix)
    if info:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return matrix


def band_to_dense(band):
    """The symmetric (d, d) matrix whose upper band is the (d, u + 1) ``band``.

    Entry (i, j), i <= j, is band[j, u + i - j], as is entry (j, i).
    """
    d, u = band.shape[0], band.shape[1] - 1
    cols, slots = np.nonzero(np.arange(d)[:, None] >= u - np.arange(u + 1))  # i >= 0
    rows = cols - u + slots
    dense = np.zeros((d, d))
    dense[rows, cols] = dense[cols, rows] = band[cols, slots]
    return dense


class ShiftedSolver:
    """Solver for (M + tau A) x = b on a fixed mesh and time step.

    Holds the mass diagonal, the step size tau and the shifted matrix as
    its (d, u + 1) upper band ``band`` (tau times the stiffness band, the
    mass added to its diagonal), so a step kernel can reach them, and
    prefactors the shifted matrix once: ``markov_t`` (dense) or
    ``band_factor`` (banded, the upper band Cholesky factor) serves a
    kernel's heat product.  All per-call state is local, so one solver
    instance can serve concurrent solves.

    Right-hand sides may be a single field of shape (d,) or a stack of
    fields of shape (p, d); the output matches the input shape.
    """

    def __init__(self, mass_diag, stiffness, tau):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.mass_diag = np.asarray(mass_diag, dtype=float)
        self.tau = float(tau)
        self.n = self.mass_diag.shape[0]
        self.band = self.tau * stiffness
        self.band[:, -1] += self.mass_diag
        if self.n <= DENSE_LIMIT:
            self._chol = _factor(lapack().potrf, band_to_dense(self.band))
            # (M + tau A)^{-1} M in Fortran order, so in C order its transpose
            self.markov_t = np.diag(self.mass_diag)
            lapack().potrs(self._chol, self.markov_t)
        else:
            self.band_factor = _factor(lapack().pbtrf, self.band.copy())

    def solve(self, b):
        """Solve (M + tau A) x = b for one field or a (p, d) stack."""
        b = np.array(b, dtype=float, order="C")  # a copy, solved in place
        if b.ndim not in (1, 2) or b.shape[-1] != self.n:
            raise ValueError(f"right-hand side must be a field or a stack of {self.n} cells")
        # Non-finite values pass through, so the callers' finiteness
        # checks report them as NumericalFailure.
        if self.n <= DENSE_LIMIT:
            lapack().potrs(self._chol, b)
        else:
            lapack().pbtrs(self.band_factor, b)
        return b

    def apply_markov(self, x, out=None):
        """Apply (M + tau A)^{-1} M, the monotone one-step heat propagator.

        The matrix is entrywise nonnegative and fixes constants, so it
        maps nonnegative fields to nonnegative fields and conserves the
        mass-weighted total.  ``out``, an array of the input's shape,
        receives the result; on the dense path it is written directly.
        """
        if self.n <= DENSE_LIMIT:
            return np.matmul(x, self.markov_t, out=out)
        if out is None:
            return self.solve(x * self.mass_diag)
        out[...] = self.solve(x * self.mass_diag)
        return out

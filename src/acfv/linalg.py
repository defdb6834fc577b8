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
ctypes; where numpy does not export all four, from ``scipy.linalg.lapack``.
"""

from __future__ import annotations

import ctypes
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["ShiftedSolver", "DENSE_LIMIT", "band_to_dense"]

# Systems up to this size are held as dense matrices, larger ones as bands.
DENSE_LIMIT = 64

# The LAPACK routines with 64-bit integers in numpy's BLAS (numpy 2's scipy-openblas).
LAPACK_SYMBOLS = tuple(f"scipy_{name}_64_" for name in ("dpotrf", "dpotrs", "dpbtrf", "dpbtrs"))


@cache
def _numpy_blas():
    """numpy's extension module that holds its matmul, loaded by ctypes (None if it cannot be)."""
    from numpy._core import _multiarray_umath as umath
    try:
        return ctypes.CDLL(umath.__file__)
    except OSError:
        return None


def numpy_symbol(name):
    """The function ``name`` of numpy's BLAS, or None where numpy does not export it."""
    lib = _numpy_blas()
    return None if lib is None else getattr(lib, name, None)


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
    for b.  ``route`` names where the routines come from.
    """

    route: str
    potrf: Callable
    potrs: Callable
    pbtrf: Callable
    pbtrs: Callable


@cache
def lapack() -> Lapack:
    """The routines from numpy's BLAS if it exports all of ``LAPACK_SYMBOLS``, else from scipy."""
    found = [numpy_symbol(name) for name in LAPACK_SYMBOLS]
    if all(routine is not None for routine in found):
        potrf, potrs, pbtrf, pbtrs = (partial(_fortran, routine) for routine in found)
        return Lapack(
            ", ".join(LAPACK_SYMBOLS),
            lambda a: potrf(len(a), a, len(a)),
            lambda c, b: potrs(len(c), b.size // len(c), c, len(c), b, len(c)),
            lambda band: pbtrf(len(band), band.shape[1] - 1, band, band.shape[1]),
            lambda c, b: pbtrs(len(c), c.shape[1] - 1, b.size // len(c), c, c.shape[1], b,
                               len(c)))
    from scipy.linalg import lapack as sla

    def into(target, result):
        target.T[...] = result[0]
        return result[1]

    return Lapack("scipy.linalg.lapack",
                  lambda a: into(a, sla.dpotrf(a.T, clean=0, overwrite_a=1)),
                  lambda c, b: into(b, sla.dpotrs(c.T, b.T, overwrite_b=1)),
                  lambda band: into(band, sla.dpbtrf(band.T, overwrite_ab=1)),
                  lambda c, b: into(b, sla.dpbtrs(c.T, b.T, overwrite_b=1)))


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
            self._dense = band_to_dense(self.band)
            self._chol = _factor(lapack().potrf, self._dense.copy())
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

    def solve_with_diagonal(self, extra, b):
        """Solve (M + tau A + diag(extra[i])) x[i] = b[i] for each row i.

        ``extra`` and ``b`` have shape (k, d); ``extra`` must be
        nonnegative, which keeps every system positive definite.  These
        are the semismooth Newton systems of the coupled step, one per
        path, each with its own active set.
        """
        extra = np.asarray(extra, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.n <= DENSE_LIMIT:
            jac = np.broadcast_to(self._dense, (len(b), self.n, self.n)).copy()
            cells = np.arange(self.n)
            jac[:, cells, cells] += extra
            return np.linalg.solve(jac, b[..., None])[..., 0]
        out = np.array(b, order="C")
        for shift, x in zip(extra, out):
            band = self.band.copy()
            band[:, -1] += shift
            lapack().pbtrs(_factor(lapack().pbtrf, band), x)
        return out

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

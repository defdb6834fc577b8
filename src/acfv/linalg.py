"""One prefactored operator for the shifted system (M + tau A) x = b.

The shifted matrix is symmetric positive definite (positive diagonal
mass plus a positive semi-definite stiffness) and fixed per (mesh, tau),
so it is factored once and every later call only applies the factor to
a whole stack of right-hand sides.  The factor is the upper band Cholesky
factor of the band itself, whose bandwidth is the stiffness band's (L on
the uniform L x L grid); no d x d matrix is factored.  The cell count d
selects the heat product:

* d <= DENSE_LIMIT: the dense Markov propagator (M + tau A)^{-1} M,
  transposed as ``markov_t``, so one heat substep on a (p, d) stack is a
  single matrix product;
* larger d: a solve with the band factor of the mass times the stack.

The factor, its solves and the product are the compiled ``passes.c``
(``scheme.compiled_library``), which take a stack's rows eight at a time,
one row a vector lane, as the step kernels' rounds do, each sum in a fixed
order, so their bytes do not depend on the CPU; their numpy forms are in
``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .scheme import _pointer, compiled_library

__all__ = ["ShiftedSolver", "DENSE_LIMIT", "band_to_dense"]

# Systems up to this size take the heat product by the dense propagator,
# larger ones by the band factor.
DENSE_LIMIT = 64


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
    prefactors the shifted matrix once: ``factor``, the upper band Cholesky
    factor in the band's layout, and, for d <= DENSE_LIMIT, ``markov_t``
    (else None), whose row k solves the system for the mass of cell k.  All
    per-call state is local, so one solver instance can serve concurrent
    solves.

    The shifted matrix is rejected, a LinAlgError, if the mass of some cell
    is lost in rounding when added to the diagonal of tau A, so that the
    band holds tau A there (singular on any mesh, as A fixes constants),
    or if a pivot of the factor is not positive.  The first rule reads no
    sum, so it holds whatever the order of the factor's sums.

    Right-hand sides may be a single field of shape (d,) or a stack of
    fields of shape (p, d); the output matches the input shape.
    """

    def __init__(self, mass_diag, stiffness, tau):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.mass_diag = np.ascontiguousarray(mass_diag, dtype=float)
        self.tau = float(tau)
        self.n = self.mass_diag.shape[0]
        self.band = self.tau * stiffness
        shifted = self.band[:, -1] + self.mass_diag
        lost = np.flatnonzero(shifted == self.band[:, -1])
        if lost.size:
            raise np.linalg.LinAlgError(f"the mass of cell {lost[0]} is lost beside tau A")
        self.band[:, -1] = shifted
        self.factor = self.band.copy()
        width = self.band.shape[1]
        info = compiled_library().acfv_band_factor(_pointer(self.factor), self.n, width - 1,
                                                   _pointer(np.empty(8 * (self.n * width + 1))))
        if info:
            raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
        # row k is (M + tau A)^{-1} (M e_k), column k of the propagator, as A is symmetric
        self.markov_t = self.solve(np.diag(self.mass_diag)) if self.n <= DENSE_LIMIT else None

    def solve(self, b):
        """Solve (M + tau A) x = b for one field or a (p, d) stack."""
        # Non-finite values pass through, so the callers' finiteness
        # checks report them as NumericalFailure.
        return self._call(b)

    def apply_markov(self, x):
        """Apply (M + tau A)^{-1} M, the monotone one-step heat propagator.

        The matrix is entrywise nonnegative and fixes constants, so it
        maps nonnegative fields to nonnegative fields and conserves the
        mass-weighted total.
        """
        return self._call(x, mass=True)

    def _call(self, x, mass=False):
        """The compiled solve for x, or with ``mass`` for x times the mass, which a dense
        solver takes as the product of x with ``markov_t``."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise ValueError(f"right-hand side must be a field or a stack of {self.n} cells")
        y, lib, rows = np.empty(x.shape), compiled_library(), x.size // self.n
        if mass and self.markov_t is not None:
            lib.acfv_product(_pointer(y), _pointer(x), _pointer(self.markov_t), rows, self.n,
                             _pointer(np.empty(8 * (2 * self.n + 1))))
        else:
            lib.acfv_band_solve(_pointer(y), _pointer(x * self.mass_diag if mass else x),
                                _pointer(self.factor), rows, self.n, self.band.shape[1] - 1,
                                _pointer(np.empty(8 * (self.n + 1))))
        return y

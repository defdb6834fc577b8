"""One prefactored operator for the shifted system (M + tau A) x = b.

The shifted matrix is symmetric positive definite (positive diagonal
mass plus a positive semi-definite stiffness) and fixed per (mesh, tau),
so it is factored once and every later call only applies the factor to
a whole stack of right-hand sides.  The cell count d selects the form:

* d <= DENSE_LIMIT: a dense Cholesky factor, plus the dense Markov
  propagator (M + tau A)^{-1} M, so one heat substep on a (p, d) stack
  is a single matrix product;
* larger d: a banded Cholesky factor whose bandwidth is read from the
  assembled sparsity (L on the uniform L x L grid).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps

__all__ = ["ShiftedSolver", "DENSE_LIMIT"]

# Systems up to this size are held as dense matrices, larger ones as bands.
DENSE_LIMIT = 64


class ShiftedSolver:
    """Solver for (M + tau A) x = b on a fixed mesh and time step.

    Holds references to the mass diagonal and the stiffness matrix so
    the step functions can reach them, and prefactors the shifted
    matrix once.  All per-call state is local, so one solver instance
    can serve concurrent solves.

    Right-hand sides may be a single field of shape (d,) or a stack of
    fields of shape (p, d); the output matches the input shape.
    """

    def __init__(self, mass_diag, stiffness, tau):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.mass_diag = np.asarray(mass_diag, dtype=float)
        self.stiffness = stiffness
        self.tau = float(tau)
        self.n = self.mass_diag.shape[0]
        self.shifted = (sps.diags(self.mass_diag) + tau * stiffness).tocsr()

        if self.n <= DENSE_LIMIT:
            self._dense = self.shifted.toarray()
            self._chol = sla.cho_factor(self._dense)
            self._markov_t = sla.cho_solve(self._chol, np.diag(self.mass_diag)).T
        else:
            # Upper band storage: entry (i, j), i <= j, sits at [u + i - j, j].
            coo = self.shifted.tocoo()
            upper = coo.row <= coo.col
            row, col = coo.row[upper], coo.col[upper]
            u = int((col - row).max())
            self._band = np.zeros((u + 1, self.n))
            self._band[u + row - col, col] = coo.data[upper]
            self._band_chol = sla.cholesky_banded(self._band)

    def solve(self, b):
        """Solve (M + tau A) x = b for one field or a (p, d) stack."""
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2):
            raise ValueError("right-hand side must be 1-d or 2-d")
        # Non-finite values pass through, so the callers' finiteness
        # checks report them as NumericalFailure.
        if self.n <= DENSE_LIMIT:
            return sla.cho_solve(self._chol, b.T, check_finite=False).T
        return sla.cho_solve_banded((self._band_chol, False), b.T, check_finite=False).T

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
        out = np.empty_like(b)
        band = self._band.copy()
        for i, (shift, rhs) in enumerate(zip(extra, b)):
            band[-1] = self._band[-1] + shift
            out[i] = sla.cho_solve_banded((sla.cholesky_banded(band), False), rhs,
                                          check_finite=False)
        return out

    def apply_markov(self, x, out=None):
        """Apply (M + tau A)^{-1} M, the monotone one-step heat propagator.

        The matrix is entrywise nonnegative and fixes constants, so it
        maps nonnegative fields to nonnegative fields and conserves the
        mass-weighted total.  ``out``, an array of the input's shape,
        receives the result; on the dense path it is written directly.
        """
        if self.n <= DENSE_LIMIT:
            return np.matmul(x, self._markov_t, out=out)
        if out is None:
            return self.solve(x * self.mass_diag)
        out[...] = self.solve(x * self.mass_diag)
        return out

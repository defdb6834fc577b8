"""Assembly of the mass and stiffness operators from a mesh.

The mass operator is diagonal with the cell areas on the diagonal and
is kept as a plain 1-d array.  The stiffness operator couples each
interior edge with the transmissibility m_sigma / d_{K|L} (two-point
flux), giving a symmetric positive semi-definite sparse matrix with
zero row sums, kept as a ``Stencil``: each row's few entries, in the
order a CSR matrix stores them, so its products sum in the same order
and memory stays O(d) entries for d cells.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import Mesh
from .scheme import compiled_library

__all__ = ["Stencil", "assemble_mass", "assemble_stiffness"]


@dataclass(frozen=True, eq=False)
class Stencil:
    """A sparse d x d matrix by rows: entry (i, cols[i, s]) is vals[i, s].

    ``cols`` (int64) and ``vals`` are C-contiguous (d, w) arrays holding
    each row's entries in ascending column order, duplicates summed, as a
    CSR matrix holds them; a row of fewer than w entries ends in slots of
    column -1 and value 0.0, which hold no entry.
    """

    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_entries(cls, n, rows, cols, vals) -> "Stencil":
        """The n x n matrix with vals[k] added at (rows[k], cols[k]).

        Entries at the same position are summed from 0 in the order given,
        as scipy's conversion from COO to CSR does.
        """
        order = np.lexsort((cols, rows))  # stable: repeated positions keep their order
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        summed = np.zeros(int(first.sum()))
        np.add.at(summed, np.cumsum(first) - 1, vals)
        rows, cols = rows[first], cols[first]
        counts = np.bincount(rows, minlength=n)
        slots = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        width = counts.max(initial=0)
        stencil = cls(np.full((n, width), -1, dtype=np.int64), np.zeros((n, width)))
        stencil.cols[rows, slots], stencil.vals[rows, slots] = cols, summed
        return stencil

    def entries(self):
        """(rows, cols, vals) of the entries, by row and then by column."""
        rows, slots = np.nonzero(self.cols >= 0)
        return rows, self.cols[rows, slots], self.vals[rows, slots]

    def apply(self, x):
        """A x for a field x of d cells, or for each row of a (k, d) stack.

        Each row sums its entries' products from 0 in ascending column
        order, as a CSR product does, so the two agree bit for bit: in the
        compiled ``acfv_stencil`` (see ``scheme.compiled_library``), else in
        numpy.
        """
        x = np.ascontiguousarray(x, dtype=float)
        rows = x.reshape(-1, len(self.cols))
        lib = compiled_library()
        if lib is not None:
            out = np.empty(x.shape)
            lib.acfv_stencil(_address(out), _address(x), *self._addresses,
                             *map(ctypes.c_ssize_t, (*rows.shape, self.cols.shape[1])))
            return out
        columns = np.zeros((len(self.cols) + 1, len(rows)))  # x^T and a zero row for column -1
        columns[:-1] = rows.T
        out = np.zeros(rows.T.shape)
        for cols, vals in zip(self.cols.T, self.vals.T):
            out += columns[cols] * vals[:, None]
        return out.T.reshape(x.shape)

    @cached_property
    def _addresses(self):
        """The ctypes addresses of ``cols`` and ``vals``, taken once."""
        return _address(self.cols), _address(self.vals)

    def shifted(self, diagonal, tau) -> "Stencil":
        """diag(diagonal) + tau A, each diagonal entry diagonal[i] + tau a_ii."""
        rows, cols, vals = self.entries()
        cells = np.arange(len(self.cols))
        return Stencil.from_entries(len(cells), np.concatenate([cells, rows]),
                                    np.concatenate([cells, cols]),
                                    np.concatenate([diagonal, tau * vals]))

    def toarray(self) -> np.ndarray:
        """The matrix as a dense (d, d) array."""
        dense = np.zeros((len(self.cols),) * 2)
        rows, cols, vals = self.entries()
        dense[rows, cols] = vals
        return dense


def _address(array):
    """The data address of a C-contiguous array as a ctypes argument.

    Through a ctypes view of a writable buffer, three times quicker than
    ``array.ctypes``, which serves read-only and empty arrays.
    """
    try:
        return ctypes.byref(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):
        return ctypes.c_void_p(array.ctypes.data)


def assemble_mass(mesh: Mesh) -> np.ndarray:
    """Diagonal of the mass operator: the cell measures m_K."""
    return np.array(mesh.cell_measures, dtype=float)


def assemble_stiffness(mesh: Mesh) -> Stencil:
    """Two-point flux stiffness matrix.

    Entry (K, K) accumulates m_sigma / d_sigma over the interior edges
    of K; entry (K, L) is -m_sigma / d_sigma for neighbors K, L; all
    other entries vanish.  Exterior edges contribute nothing (Neumann).
    """
    K = mesh.edge_cells[:, 0]
    L = mesh.edge_cells[:, 1]
    w = mesh.edge_measures / mesh.edge_distances
    return Stencil.from_entries(mesh.n_cells, np.concatenate([K, L, K, L]),
                                np.concatenate([K, L, L, K]),
                                np.concatenate([w, w, -w, -w]))

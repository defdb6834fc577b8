"""Assembly of the mass and stiffness operators from a mesh.

The mass operator is diagonal with the cell areas on the diagonal and
is kept as a plain 1-d array.  The stiffness operator couples each
interior edge with the transmissibility m_sigma / d_{K|L} (two-point
flux), giving a symmetric positive semi-definite sparse matrix with
zero row sums, kept as the upper band LAPACK factors (see ``linalg``):
a C-contiguous (d, u + 1) array, u the widest distance of a neighbor
(L on the L x L grid), so memory stays O(d u) for d cells.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh

__all__ = ["assemble_mass", "assemble_stiffness"]


def assemble_mass(mesh: Mesh) -> np.ndarray:
    """Diagonal of the mass operator: the cell measures m_K."""
    return np.array(mesh.cell_measures, dtype=float)


def assemble_stiffness(mesh: Mesh) -> np.ndarray:
    """Two-point flux stiffness matrix as its (d, u + 1) upper band.

    Entry (K, K) accumulates m_sigma / d_sigma over the interior edges
    of K, from 0 and in edge order, first those where K is the lower cell;
    entry (K, L), K < L, is -m_sigma / d_sigma for neighbors K, L, at
    [L, u + K - L]; all other entries vanish.  Exterior edges contribute
    nothing (Neumann).
    """
    K = mesh.edge_cells[:, 0]
    L = mesh.edge_cells[:, 1]
    w = mesh.edge_measures / mesh.edge_distances
    u = int(np.max(L - K, initial=0))
    band = np.zeros((mesh.n_cells, u + 1))
    np.add.at(band[:, u], K, w)
    np.add.at(band[:, u], L, w)
    band[L, u + K - L] = -w
    return band

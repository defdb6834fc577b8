"""Cell-centered finite-volume meshes on the square domain (-w, w)^2.

A mesh is stored as flat arrays of cell and interior-edge data: cell
measures m_K, edge measures m_sigma and center distances d_{K|L}.
``build_uniform_mesh`` is the one mesh source.

Exterior edges carry no flux under the homogeneous Neumann boundary
condition and are therefore not stored at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "Mesh",
    "build_uniform_mesh",
    "cell_average",
    "default_initial_state",
    "INITIAL_X_COEFFS",
    "INITIAL_Y_COEFFS",
]

# Separable quartic profile used as the default initial state: a
# non-symmetric bump with values in [0, 1] and zero normal derivative
# on the boundary of (-1, 1)^2.  Coefficients are ascending in power.
INITIAL_X_COEFFS = (9 / 16, -3 / 4, -1 / 8, 1 / 4, 1 / 16)
INITIAL_Y_COEFFS = (19 / 32, 3 / 4, -3 / 16, -1 / 4, 3 / 32)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Admissible finite-volume mesh, stored as struct-of-arrays.

    Attributes
    ----------
    cell_centers : (n_cells, 2) float array
    cell_measures : (n_cells,) float array
        Areas m_K, all strictly positive.
    cell_bounds : (n_cells, 4) float array
        Axis-aligned bounds (x_lo, x_hi, y_lo, y_hi) per cell, for exact
        cell averages.
    edge_cells : (n_edges, 2) int array
        Interior edges as (K, L) cell index pairs, K < L.
    edge_measures : (n_edges,) float array
        Edge lengths m_sigma.
    edge_distances : (n_edges,) float array
        Center distances d_{K|L}.
    h : float
        Mesh size, the largest cell diameter.
    """

    cell_centers: np.ndarray
    cell_measures: np.ndarray
    cell_bounds: np.ndarray
    edge_cells: np.ndarray
    edge_measures: np.ndarray
    edge_distances: np.ndarray
    h: float

    def __post_init__(self):
        for arr in (self.cell_centers, self.cell_measures, self.cell_bounds,
                    self.edge_cells, self.edge_measures, self.edge_distances):
            arr.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return self.cell_measures.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_cells.shape[0]


def build_uniform_mesh(cells_per_axis: int, half_width: float = 1.0) -> Mesh:
    """Uniform square-cell mesh of (-half_width, half_width)^2.

    The domain is split into ``cells_per_axis`` equal squares in each
    direction.  Cells are enumerated row by row with the x index varying
    fastest, so cell n covers the i-th x block and j-th y block with
    n = i + cells_per_axis * j.

    Parameters
    ----------
    cells_per_axis : int
        Number of cells per direction, at least 1.
    half_width : float
        Half the side length of the square domain (default 1).

    Returns
    -------
    Mesh
    """
    L = int(cells_per_axis)
    if L < 1:
        raise ValueError(f"cells_per_axis must be >= 1, got {cells_per_axis}")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    side = 2.0 * half_width / L

    j_idx, i_idx = np.divmod(np.arange(L * L), L)
    x_lo = -half_width + i_idx * side
    y_lo = -half_width + j_idx * side
    centers = np.column_stack([x_lo + side / 2, y_lo + side / 2])
    bounds = np.column_stack([x_lo, x_lo + side, y_lo, y_lo + side])
    measures = np.full(L * L, side * side)

    edges = []
    for j in range(L):
        for i in range(L):
            n = i + L * j
            if i + 1 < L:
                edges.append((n, n + 1))
            if j + 1 < L:
                edges.append((n, n + L))
    edge_cells = np.array(edges, dtype=np.int64).reshape(-1, 2)
    n_edges = edge_cells.shape[0]

    return Mesh(
        cell_centers=centers,
        cell_measures=measures,
        cell_bounds=bounds,
        edge_cells=edge_cells,
        edge_measures=np.full(n_edges, side),
        edge_distances=np.full(n_edges, side),
        h=side * np.sqrt(2.0),
    )


def _segment_means(coeffs, lo, hi):
    """Exact mean of a polynomial over [lo, hi], via its antiderivative."""
    c = np.asarray(coeffs, dtype=float)
    anti = np.concatenate([[0.0], c / np.arange(1, c.size + 1)])
    return (npoly.polyval(hi, anti) - npoly.polyval(lo, anti)) / (hi - lo)


def cell_average(x_coeffs, y_coeffs, mesh: Mesh) -> np.ndarray:
    """Exact per-cell means of the separable polynomial p(x) q(y).

    The coefficient lists are ascending in power.  Each entry of the
    returned field is the integral mean over the axis-aligned cell,
    computed from closed-form antiderivatives, so the result is exact
    up to rounding for any polynomial degree.
    """
    b = mesh.cell_bounds
    return _segment_means(x_coeffs, b[:, 0], b[:, 1]) * _segment_means(y_coeffs, b[:, 2], b[:, 3])


def default_initial_state(mesh: Mesh) -> np.ndarray:
    """Cell averages of the built-in quartic initial profile."""
    return cell_average(INITIAL_X_COEFFS, INITIAL_Y_COEFFS, mesh)

"""Mesh geometry and exact cell averages."""

import numpy as np
import pytest

from acfv.mesh import (INITIAL_X_COEFFS, INITIAL_Y_COEFFS, build_uniform_mesh,
                       cell_average, default_initial_state)

# Cell averages of the default profile on the 2x2 mesh, known to 8 digits.
U0_L2 = (0.20088542, 0.05244792, 0.72953125, 0.19046875)


def gauss_cell_average(x_coeffs, y_coeffs, mesh, order=4):
    """Independent oracle: tensor Gauss-Legendre quadrature per cell.

    Exact for polynomials of degree <= 2*order - 1 per axis.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    px = np.polynomial.polynomial.Polynomial(x_coeffs)
    py = np.polynomial.polynomial.Polynomial(y_coeffs)
    out = np.empty(mesh.n_cells)
    for k, (x0, x1, y0, y1) in enumerate(mesh.cell_bounds):
        xs = 0.5 * (x1 - x0) * nodes + 0.5 * (x0 + x1)
        ys = 0.5 * (y1 - y0) * nodes + 0.5 * (y0 + y1)
        mean_x = 0.5 * np.dot(weights, px(xs))
        mean_y = 0.5 * np.dot(weights, py(ys))
        out[k] = mean_x * mean_y
    return out


def test_single_cell_mesh():
    mesh = build_uniform_mesh(1)
    assert mesh.n_cells == 1
    assert mesh.cell_measures[0] == pytest.approx(4.0, rel=1e-15)
    assert mesh.n_edges == 0


def test_two_by_two_geometry():
    mesh = build_uniform_mesh(2)
    assert mesh.n_cells == 4
    np.testing.assert_allclose(mesh.cell_measures, 1.0, rtol=1e-15)
    assert mesh.n_edges == 4
    np.testing.assert_allclose(mesh.edge_measures, 1.0, rtol=1e-15)
    np.testing.assert_allclose(mesh.edge_distances, 1.0, rtol=1e-15)
    pairs = {tuple(sorted(p)) for p in mesh.edge_cells.tolist()}
    assert pairs == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_five_by_five_measures_and_h():
    mesh = build_uniform_mesh(5)
    assert mesh.n_cells == 25
    np.testing.assert_allclose(mesh.cell_measures, 0.16, rtol=1e-15)
    assert mesh.h == pytest.approx(np.sqrt(8.0) / 5, rel=1e-15)


def test_cell_ordering_x_fastest():
    mesh = build_uniform_mesh(2)
    # Cell 1 is the second x block in the first y row.
    np.testing.assert_allclose(mesh.cell_centers[0], (-0.5, -0.5))
    np.testing.assert_allclose(mesh.cell_centers[1], (0.5, -0.5))
    np.testing.assert_allclose(mesh.cell_centers[2], (-0.5, 0.5))
    np.testing.assert_allclose(mesh.cell_centers[3], (0.5, 0.5))


@pytest.mark.parametrize("L", range(1, 9))
def test_uniform_mesh_invariants(L):
    mesh = build_uniform_mesh(L)
    assert abs(mesh.cell_measures.sum() - 4.0) <= 1e-12 * 4.0
    assert mesh.n_edges == 2 * L * (L - 1)
    assert (mesh.edge_cells[:, 0] < mesh.edge_cells[:, 1]).all()
    counts = np.zeros(mesh.n_cells, dtype=int)
    for K, Lc in mesh.edge_cells:
        counts[K] += 1
        counts[Lc] += 1
    if L > 1:
        assert set(np.unique(counts)) <= {2, 3, 4}


def test_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        build_uniform_mesh(0)
    with pytest.raises(ValueError):
        build_uniform_mesh(3, half_width=0.0)


def test_initial_state_reference_values():
    mesh = build_uniform_mesh(2)
    np.testing.assert_allclose(default_initial_state(mesh), U0_L2, atol=1e-6)


def test_cell_average_matches_quadrature_oracle():
    for L in (2, 3, 5):
        mesh = build_uniform_mesh(L)
        exact = cell_average(INITIAL_X_COEFFS, INITIAL_Y_COEFFS, mesh)
        oracle = gauss_cell_average(INITIAL_X_COEFFS, INITIAL_Y_COEFFS, mesh)
        np.testing.assert_allclose(exact, oracle, rtol=1e-12, atol=1e-14)


def polyval_segment_means(coeffs, lo, hi):
    """Oracle: the exact means by numpy's ``polyval`` of the antiderivative."""
    c = np.asarray(coeffs, dtype=float)
    anti = np.concatenate([[0.0], c / np.arange(1, c.size + 1)])
    return (np.polynomial.polynomial.polyval(hi, anti)
            - np.polynomial.polynomial.polyval(lo, anti)) / (hi - lo)


@pytest.mark.parametrize("half_width", [1.0, 0.3, 1e-8, 1e-150, 1e-300, 1e60, 1e100, 1e300])
def test_initial_state_keeps_the_bytes_of_numpy_polyval(half_width):
    # The mesh's own Horner loop in polyval's order, down to the overflows
    # and NaNs of extreme domains.
    for L in range(1, 17):
        mesh = build_uniform_mesh(L, half_width)
        b = mesh.cell_bounds
        with np.errstate(all="ignore"):
            expected = (polyval_segment_means(INITIAL_X_COEFFS, b[:, 0], b[:, 1])
                        * polyval_segment_means(INITIAL_Y_COEFFS, b[:, 2], b[:, 3]))
            got = default_initial_state(mesh)
        assert got.tobytes() == expected.tobytes(), L


def test_cell_average_constants_and_linearity():
    mesh = build_uniform_mesh(3)
    np.testing.assert_allclose(cell_average([2.5], [1.0], mesh), 2.5, rtol=1e-15)

    rng = np.random.default_rng(11)
    p1, p2 = rng.standard_normal(4), rng.standard_normal(4)
    q = rng.standard_normal(3)
    lhs = cell_average(p1 + p2, q, mesh)
    rhs = cell_average(p1, q, mesh) + cell_average(p2, q, mesh)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_mesh_arrays_immutable():
    mesh = build_uniform_mesh(3)
    with pytest.raises(ValueError):
        mesh.cell_measures[0] = 7.0

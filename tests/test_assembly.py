"""Mass and stiffness assembly against hand-computed, spectral and scipy.sparse oracles."""

import numpy as np
import pytest
import scipy.sparse as sps

from acfv.assembly import assemble_mass, assemble_stiffness
from acfv.linalg import ShiftedSolver, band_to_dense
from acfv.mesh import build_uniform_mesh
from acfv.scheme import band_product
import oracles

A_2X2 = np.array([
    [2.0, -1.0, -1.0, 0.0],
    [-1.0, 2.0, 0.0, -1.0],
    [-1.0, 0.0, 2.0, -1.0],
    [0.0, -1.0, -1.0, 2.0],
])


def test_mass_examples():
    np.testing.assert_allclose(assemble_mass(build_uniform_mesh(1)), [4.0])
    np.testing.assert_allclose(assemble_mass(build_uniform_mesh(2)), np.ones(4))
    np.testing.assert_allclose(assemble_mass(build_uniform_mesh(5)), np.full(25, 0.16))


def test_stiffness_two_by_two():
    A = assemble_stiffness(build_uniform_mesh(2))
    assert A.shape == (4, 3) and A.flags.c_contiguous  # u = L = 2
    np.testing.assert_allclose(band_to_dense(A), A_2X2, rtol=0, atol=0)


def test_stiffness_single_cell_is_zero():
    A = assemble_stiffness(build_uniform_mesh(1))
    assert A.shape == (1, 1)
    np.testing.assert_array_equal(A, np.zeros((1, 1)))


@pytest.mark.parametrize("L", range(1, 9))
def test_stiffness_invariants(L):
    A = assemble_stiffness(build_uniform_mesh(L))
    n = L * L
    dense = band_to_dense(A)
    np.testing.assert_array_equal(dense, dense.T)
    np.testing.assert_allclose(band_product(A, np.ones(n)), 0.0, atol=1e-12)
    off = dense - np.diag(np.diag(dense))
    assert off.max() <= 0.0
    assert np.diag(dense).min() >= 0.0
    assert A.shape == (n, L + 1 if L > 1 else 1)  # u = L: a cell's neighbor in the next row
    rng = np.random.default_rng(L)
    for _ in range(125):
        x = rng.standard_normal(n)
        assert x @ band_product(A, x) >= -1e-12 * (x @ x)


def test_two_by_two_eigenpairs():
    A = assemble_stiffness(build_uniform_mesh(2))
    eigenpairs = [
        (np.array([1.0, 1.0, 1.0, 1.0]), 0.0),
        (np.array([1.0, -1.0, 1.0, -1.0]), 2.0),
        (np.array([1.0, 1.0, -1.0, -1.0]), 2.0),
        (np.array([1.0, -1.0, -1.0, 1.0]), 4.0),
    ]
    for vec, lam in eigenpairs:
        np.testing.assert_allclose(band_product(A, vec), lam * vec, atol=1e-14)


def coo_stiffness(mesh):
    """The two-point flux stiffness as scipy assembles it: COO entries, duplicates summed."""
    K, L = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    w = mesh.edge_measures / mesh.edge_distances
    rows, cols = np.concatenate([K, L, K, L]), np.concatenate([K, L, L, K])
    n = mesh.n_cells
    return sps.coo_matrix((np.concatenate([w, w, -w, -w]), (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("half_width", [0.5, 1.0, 3.0])
def test_stiffness_and_shifted_matrix_equal_scipy_assembly_bytewise(half_width):
    # The band's dense expansion, and that of M + tau A, are scipy's COO
    # to dense of the same triplets bit for bit, so a dense or banded
    # factor sees the same matrix.
    for L in range(1, 17):
        mesh = build_uniform_mesh(L, half_width)
        mass, A, oracle = assemble_mass(mesh), assemble_stiffness(mesh), coo_stiffness(mesh)
        assert band_to_dense(A).tobytes() == oracle.toarray().tobytes()
        for tau in (1.0 / 210, 0.37):
            shifted = (sps.diags(mass) + tau * oracle.tocsr()).toarray()
            band = ShiftedSolver(mass, A, tau).band
            assert band_to_dense(band).tobytes() == shifted.tobytes()


def random_band(rng, d, u):
    """A (d, u + 1) band of normal entries and, at random, zeros of either
    sign, subnormals and entries of magnitude 1e-300 and 1e300."""
    band = rng.standard_normal((d, u + 1))
    specials = np.array([0.0, -0.0, 5e-324, -3e-310, 1e-300, -1e-300, 1e300, -1e300])
    mask = rng.random(band.shape) < 0.4
    band[mask] = rng.choice(specials, mask.sum())
    return band


@pytest.mark.parametrize("route", ["compiled", "numpy"])
def test_band_product_equals_csr_product_bytewise(route):
    # Row sums from 0 in ascending column order over the band's slots, the
    # zero slots included, on the stiffness and shifted bands of L = 1, 2,
    # 3, 9 and on random symmetric bands of half widths 0 to 5, on a field,
    # a stack and a stack of no rows; in C and in its numpy form.  The
    # oracle is a CSR matrix of the band's nonzero entries only.
    product = band_product if route == "compiled" else oracles.band_product
    rng = np.random.default_rng(11)
    bands = []
    for L in (1, 2, 3, 9):
        mesh = build_uniform_mesh(L)
        bands += [assemble_stiffness(mesh),
                  ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), 0.7).band]
    bands += [random_band(rng, d, u) for u in range(6) for d in (1, u + 1, 13)]
    for band in bands:
        d = len(band)
        matrix = sps.csr_matrix(band_to_dense(band))
        stack = rng.standard_normal((7, d)) * 1e3
        stack[1:4, 0] = (-0.0, 5e-324, 1e300)
        for x in (rng.standard_normal(d), stack, np.empty((0, d))):
            with np.errstate(over="ignore", invalid="ignore"):
                assert product(band, x).tobytes() == (matrix @ x.T).T.tobytes()
    with pytest.raises(ValueError, match="13 cells"):
        band_product(bands[-1], np.ones((2, 12)))

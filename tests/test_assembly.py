"""Mass and stiffness assembly against hand-computed, spectral and scipy.sparse oracles."""

import numpy as np
import pytest
import scipy.sparse as sps

from acfv import assembly
from acfv.assembly import Stencil, assemble_mass, assemble_stiffness
from acfv.mesh import build_uniform_mesh

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
    A = assemble_stiffness(build_uniform_mesh(2)).toarray()
    np.testing.assert_allclose(A, A_2X2, rtol=0, atol=0)


def test_stiffness_single_cell_is_zero():
    A = assemble_stiffness(build_uniform_mesh(1))
    np.testing.assert_array_equal(A.toarray(), np.zeros((1, 1)))
    assert all(len(part) == 0 for part in A.entries())


@pytest.mark.parametrize("L", range(1, 9))
def test_stiffness_invariants(L):
    A = assemble_stiffness(build_uniform_mesh(L))
    n = L * L
    dense = A.toarray()
    np.testing.assert_array_equal(dense, dense.T)
    np.testing.assert_allclose(A.apply(np.ones(n)), 0.0, atol=1e-12)
    off = dense - np.diag(np.diag(dense))
    assert off.max() <= 0.0
    assert np.diag(dense).min() >= 0.0
    assert len(A.cols) == n and A.cols.shape[1] <= 5  # a cell and at most 4 neighbors
    rng = np.random.default_rng(L)
    for _ in range(125):
        x = rng.standard_normal(n)
        assert x @ A.apply(x) >= -1e-12 * (x @ x)


def test_two_by_two_eigenpairs():
    A = assemble_stiffness(build_uniform_mesh(2))
    eigenpairs = [
        (np.array([1.0, 1.0, 1.0, 1.0]), 0.0),
        (np.array([1.0, -1.0, 1.0, -1.0]), 2.0),
        (np.array([1.0, 1.0, -1.0, -1.0]), 2.0),
        (np.array([1.0, -1.0, -1.0, 1.0]), 4.0),
    ]
    for vec, lam in eigenpairs:
        np.testing.assert_allclose(A.apply(vec), lam * vec, atol=1e-14)


def csr_stiffness(mesh):
    """The two-point flux stiffness as scipy assembles it: COO entries summed into CSR."""
    K, L = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    w = mesh.edge_measures / mesh.edge_distances
    rows, cols = np.concatenate([K, L, K, L]), np.concatenate([K, L, L, K])
    n = mesh.n_cells
    return sps.coo_matrix((np.concatenate([w, w, -w, -w]), (rows, cols)), shape=(n, n)).tocsr()


@pytest.mark.parametrize("half_width", [0.5, 1.0, 3.0])
def test_stiffness_and_shifted_matrix_equal_scipy_assembly_bytewise(half_width):
    # The stencil's entries, and those of M + tau A, are scipy's CSR
    # entries bit for bit, so a dense or banded factor sees the same matrix.
    for L in range(1, 17):
        mesh = build_uniform_mesh(L, half_width)
        mass, A, oracle = assemble_mass(mesh), assemble_stiffness(mesh), csr_stiffness(mesh)
        assert A.toarray().tobytes() == oracle.toarray().tobytes()
        for tau in (1.0 / 210, 0.37):
            shifted = (sps.diags(mass) + tau * oracle).tocsr()
            assert A.shifted(mass, tau).toarray().tobytes() == shifted.toarray().tobytes()


@pytest.mark.parametrize("route", ["compiled", "numpy"])
def test_stencil_rows_sum_as_csr_products_bytewise(monkeypatch, route):
    # Row sums from 0 in ascending column order, on rows of 1 to 5 entries
    # (corners, edges and the interior of the grid, and a lone cell), on a
    # field and on a stack with -0.0, inf and NaN cells, and on a stencil
    # built from repeated entries; in C and in numpy.
    if route == "numpy":
        monkeypatch.setattr(assembly, "compiled_library", lambda: None)
    elif assembly.compiled_library() is None:
        pytest.skip("the compiled passes did not build here (no C compiler)")
    rng = np.random.default_rng(11)
    stencils = [assemble_stiffness(build_uniform_mesh(L)).shifted(np.full(L * L, 0.3), 0.7)
                for L in (1, 2, 3, 9)]
    n = 12
    rows, cols = rng.integers(0, n, 40), rng.integers(0, n, 40)
    vals = rng.standard_normal(40)
    stencils.append(Stencil.from_entries(n, rows, cols, vals))
    oracle = sps.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    assert stencils[-1].toarray().tobytes() == oracle.toarray().tobytes()
    assert {int(k) for k in (stencils[-1].cols >= 0).sum(axis=1)} >= {1, 2, 3, 4, 5}
    for stencil in stencils:
        d = len(stencil.cols)
        rows, cols, vals = stencil.entries()
        matrix = sps.csr_matrix((vals, (rows, cols)), shape=(d, d))
        stack = rng.standard_normal((7, d)) * 1e3
        stack[1:4, 0] = (-0.0, np.inf, np.nan)
        for x in (rng.standard_normal(d), stack):
            with np.errstate(invalid="ignore"):
                assert stencil.apply(x).tobytes() == (matrix @ x.T).T.tobytes()

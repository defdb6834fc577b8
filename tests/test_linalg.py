"""Shifted-system solver: oracles, monotonicity and conservation laws."""

import numpy as np
import pytest
import scipy.linalg as sla

from acfv import linalg
from acfv.assembly import assemble_mass, assemble_stiffness
from acfv.config import preset_config
from acfv.linalg import DENSE_LIMIT, ShiftedSolver, band_to_dense
from acfv.mesh import build_uniform_mesh


def make_solver(L, tau):
    mesh = build_uniform_mesh(L)
    return ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), tau)


def test_constants_are_fixed_points():
    rng = np.random.default_rng(3)
    for L in (1, 2, 3, 5, 7):
        tau = float(rng.uniform(0.01, 2.0))
        solver = make_solver(L, tau)
        out = solver.apply_markov(np.ones(L * L))
        np.testing.assert_allclose(out, 1.0, atol=1e-13)
        c = float(rng.uniform(-3, 3))
        np.testing.assert_allclose(solver.apply_markov(np.full(L * L, c)), c, atol=1e-12)


def test_eigen_decomposition_oracle_two_by_two():
    # Spectral oracle: on the 2x2 mesh M = I, so (M + tau A)^{-1} M has the
    # known eigenvectors of A with eigenvalues 1/(1 + tau lam).
    tau = 0.5
    solver = make_solver(2, tau)
    w = np.array([0.34392, 0.09673, 0.90535, 0.32785])
    basis = 0.5 * np.array([
        [1.0, 1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ])
    lams = np.array([0.0, 2.0, 2.0, 4.0])
    coeffs = basis @ w
    oracle = basis.T @ (coeffs / (1.0 + tau * lams))
    got = solver.apply_markov(w)
    np.testing.assert_allclose(got, oracle, rtol=1e-12)
    assert got[0] == pytest.approx(0.39495, abs=2e-5)


def test_against_dense_elimination_oracle():
    rng = np.random.default_rng(17)
    for L in (1, 2, 3, 4):
        for _ in range(5):
            tau = float(rng.uniform(0.01, 1.0))
            solver = make_solver(L, tau)
            b = rng.standard_normal(L * L)
            expected = np.linalg.solve(band_to_dense(solver.band), b)
            np.testing.assert_allclose(solver.solve(b), expected, atol=1e-10)


def test_banded_path_matches_dense_oracle():
    # 100 cells exceeds the dense threshold, exercising the banded Cholesky.
    L = 10
    assert L * L > DENSE_LIMIT
    solver = make_solver(L, 0.37)
    rng = np.random.default_rng(23)
    dense = band_to_dense(solver.band)
    for b in (rng.standard_normal(L * L), rng.standard_normal((5, L * L))):
        x = solver.solve(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b.T).T, atol=1e-10)
        assert (np.linalg.norm(x @ dense - b, axis=-1)
                <= 1e-12 * np.linalg.norm(b, axis=-1)).all()


@pytest.mark.parametrize("L", [3, 10])
def test_diagonal_shift_solves_match_dense_oracle(L):
    solver = make_solver(L, 0.21)
    rng = np.random.default_rng(43)
    extra = rng.uniform(0.0, 5.0, size=(6, L * L)) * (rng.random((6, L * L)) < 0.4)
    b = rng.standard_normal((6, L * L))
    x = solver.solve_with_diagonal(extra, b)
    dense = band_to_dense(solver.band)
    for i in range(6):
        expected = np.linalg.solve(dense + np.diag(extra[i]), b[i])
        np.testing.assert_allclose(x[i], expected, rtol=1e-11, atol=1e-12)


def test_positivity_preservation():
    rng = np.random.default_rng(29)
    solvers = {L: make_solver(L, float(rng.uniform(0.01, 1.0))) for L in range(1, 9)}
    worst = np.inf
    for _ in range(1000):
        L = int(rng.integers(1, 9))
        x = rng.uniform(0.0, 5.0, size=L * L)
        worst = min(worst, solvers[L].apply_markov(x).min())
    assert worst >= -1e-12


def test_mass_conservation():
    rng = np.random.default_rng(31)
    for L in (1, 3, 6):
        mesh = build_uniform_mesh(L)
        mass = assemble_mass(mesh)
        solver = ShiftedSolver(mass, assemble_stiffness(mesh), 0.25)
        for _ in range(50):
            x = rng.standard_normal(L * L)
            before = mass @ x
            after = mass @ solver.apply_markov(x)
            assert abs(after - before) <= 1e-10 * max(abs(before), 1.0)


def test_markov_nonexpansive_in_mass_norm():
    rng = np.random.default_rng(37)
    for L in (2, 4, 5):
        mesh = build_uniform_mesh(L)
        mass = assemble_mass(mesh)
        solver = ShiftedSolver(mass, assemble_stiffness(mesh), 0.6)
        for _ in range(100):
            x = rng.standard_normal(L * L)
            y = rng.standard_normal(L * L)
            gap_in = np.sqrt(((x - y) ** 2 * mass).sum())
            out = solver.apply_markov(x) - solver.apply_markov(y)
            gap_out = np.sqrt((out ** 2 * mass).sum())
            assert gap_out <= gap_in * (1 + 1e-12)


def test_stacked_solves_match_rowwise():
    solver = make_solver(3, 0.2)
    rng = np.random.default_rng(41)
    B = rng.standard_normal((7, 9))
    stacked = solver.solve(B)
    rowwise = np.vstack([solver.solve(row) for row in B])
    np.testing.assert_allclose(stacked, rowwise, rtol=1e-13, atol=1e-15)


def test_zero_rhs_gives_zero():
    solver = make_solver(9, 0.5)
    np.testing.assert_array_equal(solver.solve(np.zeros(81)), np.zeros(81))


def test_rejects_bad_tau():
    mesh = build_uniform_mesh(2)
    with pytest.raises(ValueError):
        ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), 0.0)


def scipy_solver_bytes(solver, b, extra):
    """What the solver's factors, propagator and solves are by scipy.linalg, as bytes."""
    if solver.n <= DENSE_LIMIT:
        chol = sla.cho_factor(band_to_dense(solver.band))
        return [chol[0].T.tobytes(),  # Fortran order: the solver holds the factor so
                sla.cho_solve(chol, np.diag(solver.mass_diag)).T.tobytes(),
                sla.cho_solve(chol, b.T).T.tobytes(), sla.cho_solve(chol, b[0]).tobytes()]
    band = solver.band.T  # LAPACK's (u + 1, d) upper band storage
    shifted = [band.copy() for _ in extra]
    for matrix, shift in zip(shifted, extra):
        matrix[-1] += shift
    return [sla.cholesky_banded(band).T.tobytes(),
            sla.cho_solve_banded((sla.cholesky_banded(band), False), b.T).T.tobytes(),
            np.array([sla.cho_solve_banded((sla.cholesky_banded(matrix), False), row)
                      for matrix, row in zip(shifted, b)]).tobytes()]


def solver_bytes(solver, b, extra):
    """The same as ``scipy_solver_bytes``, from the solver."""
    if solver.n <= DENSE_LIMIT:
        return [solver._chol.tobytes(), solver.markov_t.tobytes(), solver.solve(b).tobytes(),
                solver.solve(b[0]).tobytes()]
    return [solver.band_factor.tobytes(), solver.solve(b).tobytes(),
            solver.solve_with_diagonal(extra, b).tobytes()]


def lapack_cases():
    """(L, tau): dense meshes over the paper ladder and finer steps, banded ones at three taus."""
    ladder = (*preset_config("convergence", "paper").n_steps_list,
              16, 32, 64, 128, 256, 40320, 80640, 161280)
    return ([(L, 1.0 / n) for L in range(1, 9) for n in ladder]
            + [(L, tau) for L in (9, 12, 16) for tau in (1.0 / 8, 1.0 / 210, 0.37)])


def test_numpy_lapack_equals_scipy_linalg_bytewise():
    # The dense factor and propagator for L = 1..8 at tau = 1/N over the
    # paper ladder, 16..256 and 40320..161280, and the band factor, the
    # banded solves and the banded Newton solves for L = 9, 12, 16: numpy's
    # own LAPACK gives scipy.linalg's bytes.
    rng = np.random.default_rng(47)
    for L, tau in lapack_cases():
        solver = make_solver(L, tau)
        b = rng.standard_normal((3, L * L))
        extra = rng.uniform(0.0, 5.0, size=(3, L * L)) * (rng.random((3, L * L)) < 0.4)
        assert solver_bytes(solver, b, extra) == scipy_solver_bytes(solver, b, extra), (L, tau)


def test_scipy_lapack_route_gives_the_same_bytes(monkeypatch):
    # Where numpy's BLAS exports no 64-bit LAPACK, the same four routines
    # come from scipy.linalg.lapack, with the same results.
    rng = np.random.default_rng(53)
    cases = [(L, tau, rng.standard_normal((3, L * L)), rng.uniform(0.0, 5.0, (3, L * L)))
             for L, tau in ((1, 0.5), (4, 1.0 / 210), (8, 1.0 / 40320), (9, 0.37), (16, 0.125))]

    def results():
        return [solver_bytes(make_solver(L, tau), b, extra) for L, tau, b, extra in cases]

    numpy_route = results()
    monkeypatch.setattr(linalg, "LAPACK_SYMBOLS", ("acfv_no_such_dpotrf",) * 4)
    linalg.lapack.cache_clear()
    try:
        assert linalg.lapack().route == "scipy.linalg.lapack"
        assert results() == numpy_route
    finally:
        linalg.lapack.cache_clear()


def test_factor_of_an_indefinite_matrix_raises():
    for matrix in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[-1.0]])):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            linalg._factor(linalg.lapack().potrf, matrix)

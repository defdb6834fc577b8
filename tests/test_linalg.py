"""Shifted-system solver: oracles, monotonicity and conservation laws."""

import numpy as np
import pytest
import scipy.linalg as sla

from acfv.assembly import assemble_mass, assemble_stiffness
from acfv.config import preset_config
from acfv.linalg import DENSE_LIMIT, ShiftedSolver, band_to_dense
from acfv.mesh import build_uniform_mesh
from oracles import band_factor, band_solve, product, solve_with_diagonal


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
    # The Newton solves' numpy form, which the compiled coupled rounds
    # equal byte for byte, against a dense solve of each shifted system.
    solver = make_solver(L, 0.21)
    rng = np.random.default_rng(43)
    extra = rng.uniform(0.0, 5.0, size=(6, L * L)) * (rng.random((6, L * L)) < 0.4)
    b = rng.standard_normal((6, L * L))
    x = solve_with_diagonal(solver, extra, b)
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


def solver_cases():
    """(L, tau): dense meshes over the paper ladder and finer steps, banded ones at three taus."""
    ladder = (*preset_config("convergence", "paper").n_steps_list,
              16, 32, 64, 128, 256, 40320, 80640, 161280)
    return ([(L, 1.0 / n) for L in range(1, 9) for n in ladder]
            + [(L, tau) for L in (9, 12, 16) for tau in (1.0 / 8, 1.0 / 210, 0.37)])


def test_factor_solves_and_propagator_equal_their_numpy_form_bytewise():
    # The compiled band factor, the propagator built from it, the solves of
    # a stack and of one field and the heat product, dense for L = 1..8 at
    # tau = 1/N over the paper ladder, 16..256 and 40320..161280, banded
    # for L = 9, 12, 16: the bytes of their numpy forms in tests/oracles.py.
    rng = np.random.default_rng(47)
    for L, tau in solver_cases():
        solver = make_solver(L, tau)
        b = rng.standard_normal((9, L * L))
        factor = band_factor(solver.band)
        assert solver.factor.tobytes() == factor.tobytes(), (L, tau)
        assert solver.solve(b).tobytes() == band_solve(factor, b).tobytes(), (L, tau)
        assert solver.solve(b[0]).tobytes() == band_solve(factor, b[:1])[0].tobytes()
        if L * L <= DENSE_LIMIT:
            markov_t = band_solve(factor, np.diag(solver.mass_diag))
            assert solver.markov_t.tobytes() == markov_t.tobytes(), (L, tau)
            heat = product(b, markov_t)
        else:
            assert solver.markov_t is None
            heat = band_solve(factor, b * solver.mass_diag)
        assert solver.apply_markov(b).tobytes() == heat.tobytes(), (L, tau)


def test_factor_and_solves_match_scipy_banded_cholesky():
    # The band factor and its solves against scipy.linalg's LAPACK
    # (cholesky_banded, cho_solve_banded) to 1e-12, relative, on the same
    # cases, with the Newton solves' diagonal shifts on the banded ones.
    rng = np.random.default_rng(53)
    for L, tau in solver_cases():
        solver = make_solver(L, tau)
        b = rng.standard_normal((3, L * L))
        band = solver.band.T  # LAPACK's (u + 1, d) upper band storage
        scipy_factor = sla.cholesky_banded(band)
        np.testing.assert_allclose(solver.factor, scipy_factor.T, rtol=1e-12, atol=0)
        np.testing.assert_allclose(solver.solve(b), sla.cho_solve_banded((scipy_factor, False),
                                                                          b.T).T, rtol=1e-12,
                                   atol=1e-12 * np.abs(solver.solve(b)).max())
        if L * L > DENSE_LIMIT:
            extra = rng.uniform(0.0, 5.0, size=(3, L * L)) * (rng.random((3, L * L)) < 0.4)
            for shift, row, x in zip(extra, b, solve_with_diagonal(solver, extra, b)):
                shifted = band.copy()
                shifted[-1] += shift
                expected = sla.cho_solve_banded((sla.cholesky_banded(shifted), False), row)
                np.testing.assert_allclose(x, expected, rtol=1e-12,
                                           atol=1e-12 * np.abs(expected).max())


def test_a_shift_whose_mass_is_lost_in_rounding_raises():
    # The mass of a cell below half an ulp of tau A's diagonal leaves the
    # band at tau A, singular whatever the order of the factor's sums.
    mesh = build_uniform_mesh(3)
    stiffness = assemble_stiffness(mesh)
    with pytest.raises(np.linalg.LinAlgError, match="the mass of cell 0 is lost beside tau A"):
        ShiftedSolver(np.full(9, 1e-20), stiffness, 0.5)
    mass = np.full(9, 1e-20)
    mass[4] = 1.0  # one cell's mass is kept: still rejected
    with pytest.raises(np.linalg.LinAlgError, match="cell 0 is lost"):
        ShiftedSolver(mass, stiffness, 0.5)


def test_factor_of_an_indefinite_matrix_raises():
    # The band of [[1, 2], [2, 1]], and [[-1]]: the pivot of the second
    # column and of the first is not positive.
    for mass, stiffness, column in ((np.ones(2), np.array([[0.0, 0.0], [2.0, 0.0]]), 2),
                                    (np.array([-1.0]), np.zeros((1, 1)), 1)):
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"{column}-th leading minor not positive definite"):
            ShiftedSolver(mass, stiffness, 1.0)

"""Steppers against the frozen benchmark tables and the structure theorems."""

import io

import numpy as np
import pytest

from acfv import benchmark
from acfv.assembly import assemble_mass, assemble_stiffness
from acfv.constraint import psi_eps, resolvent
from acfv.errors import NumericalFailure
from acfv.experiments import require_finite
from acfv.linalg import DENSE_LIMIT, ShiftedSolver
from acfv.mesh import build_uniform_mesh, default_initial_state
from acfv.scheme import (EpsilonSchedule, SchemeParams, StepKernel, coupled_step,
                         dump_trajectory_csv, heat_step, run_trajectory,
                         splitting_step)
from acfv.stochastic import (aggregate_increments, diffusion_g,
                             sample_increment_block)

QUARTERS = np.array(benchmark.QUARTER_INCREMENTS)


def benchmark_setup(n_steps, variant="splitting"):
    mesh = build_uniform_mesh(2)
    params = SchemeParams(horizon=1.0, n_steps=n_steps,
                          epsilon=benchmark.EPS_SCHEDULE, amplitude=10.0,
                          variant=variant)
    solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), params.tau)
    return default_initial_state(mesh), params, solver


def test_epsilon_schedules():
    fixed = EpsilonSchedule.fixed(0.05)
    assert fixed.value(0.1) == 0.05
    power = EpsilonSchedule.power(0.1, 0.4)
    assert power.value(0.5) == pytest.approx(0.1 * 0.5 ** 0.4, rel=1e-15)
    with pytest.raises(ValueError):
        EpsilonSchedule("linear", 0.1)
    with pytest.raises(ValueError):
        EpsilonSchedule.fixed(0.0)


def test_scheme_params_validation():
    eps = EpsilonSchedule.fixed(0.1)
    params = SchemeParams(horizon=1.0, n_steps=4, epsilon=eps, amplitude=2.0)
    assert params.tau == 0.25
    assert params.eps == 0.1
    with pytest.raises(ValueError):
        SchemeParams(horizon=0.0, n_steps=4, epsilon=eps, amplitude=1.0)
    with pytest.raises(ValueError):
        SchemeParams(horizon=1.0, n_steps=0, epsilon=eps, amplitude=1.0)
    with pytest.raises(ValueError):
        SchemeParams(horizon=1.0, n_steps=4, epsilon=eps, amplitude=-1.0)
    with pytest.raises(ValueError):
        SchemeParams(horizon=1.0, n_steps=4, epsilon=eps, amplitude=1.0,
                     variant="implicit")
    # bare floats are promoted to a fixed schedule
    assert SchemeParams(horizon=1.0, n_steps=2, epsilon=0.25, amplitude=0.0).eps == 0.25


def test_splitting_two_step_table():
    u0, params, solver = benchmark_setup(2)
    inc = aggregate_increments(QUARTERS, 2)
    u1 = splitting_step(u0, inc[0], params, solver)
    np.testing.assert_allclose(u1, benchmark.SPLITTING_N2[0], atol=1e-6)
    u2 = splitting_step(u1, inc[1], params, solver)
    np.testing.assert_allclose(u2, benchmark.SPLITTING_N2[1], atol=1e-6)


def test_heat_two_step_table():
    u0, params, solver = benchmark_setup(2, variant="heat")
    inc = aggregate_increments(QUARTERS, 2)
    u1 = heat_step(u0, inc[0], params, solver)
    np.testing.assert_allclose(u1, benchmark.HEAT_N2[0], atol=1e-6)
    np.testing.assert_allclose(u1, benchmark.SPLITTING_N2[0], atol=1e-6)
    u2 = heat_step(u1, inc[1], params, solver)
    np.testing.assert_allclose(u2, benchmark.HEAT_N2[1], atol=1e-6)


def test_splitting_four_step_first_row():
    u0, params, solver = benchmark_setup(4)
    u1 = splitting_step(u0, -0.60460866, params, solver)
    np.testing.assert_allclose(u1, benchmark.SPLITTING_N4[0], atol=1e-6)


def test_full_four_step_trajectory():
    u0, params, solver = benchmark_setup(4)
    traj = run_trajectory(u0, QUARTERS, params, solver, keep_history=True)
    assert len(traj.states) == 4
    for state, expected in zip(traj.states, benchmark.SPLITTING_N4):
        np.testing.assert_allclose(state, expected, atol=1e-6)
    np.testing.assert_array_equal(traj.final, traj.states[-1])


def test_coupled_matches_splitting_when_penalty_inactive():
    u0, params, solver = benchmark_setup(2, variant="coupled")
    inc = aggregate_increments(QUARTERS, 2)
    split = splitting_step(u0, inc[0], params, solver)
    assert np.all((split >= 0) & (split <= 1))
    coupled = coupled_step(u0, inc[0], params, solver)
    np.testing.assert_allclose(coupled, split, atol=1e-9)


def test_methods_agree_while_state_stays_interior():
    # With the penalty inactive the two methods solve the same linear
    # system, so any strictly interior outcome must match to solver
    # accuracy.  Small increments keep the state inside.
    rng = np.random.default_rng(3)
    mesh = build_uniform_mesh(3)
    params = SchemeParams(horizon=1.0, n_steps=8,
                          epsilon=EpsilonSchedule.fixed(0.02), amplitude=4.0)
    solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), params.tau)
    checked = 0
    for _ in range(100):
        u = rng.uniform(0.2, 0.8, size=9)
        d_w = float(rng.standard_normal() * 0.05)
        split = splitting_step(u, d_w, params, solver)
        if np.all((split > 0) & (split < 1)):
            coupled = coupled_step(u, d_w, params, solver)
            np.testing.assert_allclose(coupled, split, atol=1e-9)
            checked += 1
    assert checked > 50


def test_coupled_scalar_case_matches_bisection_oracle():
    # On one cell the stiffness vanishes and the implicit step reduces to
    # u + tau psi_eps(u) = w per path; bisection on that monotone scalar
    # equation is the oracle.
    mesh = build_uniform_mesh(1)
    params = SchemeParams(horizon=1.0, n_steps=2, epsilon=EpsilonSchedule.fixed(0.03),
                          amplitude=12.0)
    solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), params.tau)
    from acfv.constraint import psi_eps
    from acfv.stochastic import diffusion_g
    rng = np.random.default_rng(4)
    for _ in range(25):
        u_prev = np.array([float(rng.uniform(-0.5, 1.5))])
        d_w = float(rng.standard_normal())
        w = u_prev[0] + diffusion_g(u_prev[0], params.amplitude) * d_w
        lo, hi = min(w, 0.0) - 1.0, max(w, 1.0) + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + params.tau * psi_eps(mid, params.eps) < w:
                lo = mid
            else:
                hi = mid
        got = coupled_step(u_prev, d_w, params, solver)
        assert got[0] == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert got[0] == pytest.approx(resolvent(w, params.tau, params.eps), abs=1e-10)


def test_stationary_extremes():
    for c in (0.0, 1.0):
        for variant, step in (("splitting", splitting_step), ("coupled", coupled_step)):
            u0, params, solver = benchmark_setup(2, variant=variant)
            state = np.full(4, c)
            out = step(state, 0.73, params, solver)
            np.testing.assert_allclose(out, c, atol=1e-12)


def test_constant_states_stay_constant():
    rng = np.random.default_rng(6)
    for _ in range(20):
        L = int(rng.integers(1, 6))
        mesh = build_uniform_mesh(L)
        params = SchemeParams(horizon=1.0, n_steps=int(rng.integers(1, 6)),
                              epsilon=EpsilonSchedule.fixed(float(rng.uniform(0.01, 0.2))),
                              amplitude=float(rng.uniform(0, 15)))
        solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), params.tau)
        c = float(rng.uniform(0, 1))
        d_w = float(rng.standard_normal())
        for step in (splitting_step, coupled_step):
            out = step(np.full(L * L, c), d_w, params, solver)
            assert out.max() - out.min() <= 1e-10


def test_sign_trapping():
    rng = np.random.default_rng(8)
    u0, params, solver = benchmark_setup(3)
    for _ in range(100):
        d_w = float(rng.standard_normal())
        below = -rng.uniform(0, 2, size=4)
        assert splitting_step(below, d_w, params, solver).max() <= 1e-10
        above = 1.0 + rng.uniform(0, 2, size=4)
        assert splitting_step(above, d_w, params, solver).min() >= 1.0 - 1e-10


def test_method_gap_shrinks_with_larger_eps():
    # One step from a fixed penalty-active state isolates the regularization
    # factor: the splitting defect scales like 1/(eps + tau), so doubling
    # eps must shrink the gap.  (Over a whole trajectory the trend washes
    # out, because larger eps also keeps the penalty active for longer.)
    mesh = build_uniform_mesh(4)
    mass, stiffness = assemble_mass(mesh), assemble_stiffness(mesh)
    start = -(default_initial_state(mesh) + 0.2)
    gaps = []
    for eps in (0.025, 0.05, 0.1):
        params = SchemeParams(horizon=1.0, n_steps=64,
                              epsilon=EpsilonSchedule.fixed(eps), amplitude=10.0)
        solver = ShiftedSolver(mass, stiffness, params.tau)
        split = splitting_step(start, 0.1, params, solver)
        coupled = coupled_step(start, 0.1, params, solver)
        gaps.append(np.max(np.abs(coupled - split)))
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_heat_step_mass_identity():
    # The heat substep conserves the mass-weighted total of its input.
    rng = np.random.default_rng(10)
    mesh = build_uniform_mesh(4)
    mass = assemble_mass(mesh)
    params = SchemeParams(horizon=1.0, n_steps=8,
                          epsilon=EpsilonSchedule.fixed(0.05), amplitude=6.0)
    solver = ShiftedSolver(mass, assemble_stiffness(mesh), params.tau)
    from acfv.stochastic import diffusion_g
    for _ in range(50):
        u = rng.uniform(-0.5, 1.5, size=16)
        d_w = float(rng.standard_normal())
        loaded = u + diffusion_g(u, params.amplitude) * d_w
        out = heat_step(u, d_w, params, solver)
        assert mass @ out == pytest.approx(mass @ loaded, rel=1e-10)


def test_stacked_states_match_single_paths():
    u0, params, solver = benchmark_setup(4)
    inc = np.vstack([QUARTERS, -QUARTERS, 0.5 * QUARTERS])
    stacked = run_trajectory(np.tile(u0, (3, 1)), inc, params, solver)
    for row in range(3):
        single = run_trajectory(u0, inc[row], params, solver)
        np.testing.assert_allclose(stacked.final[row], single.final,
                                   rtol=1e-12, atol=1e-14)


def test_coupled_step_stacked_rows():
    u0, params, solver = benchmark_setup(2, variant="coupled")
    inc = aggregate_increments(QUARTERS, 2)
    stacked = coupled_step(np.tile(u0, (2, 1)), np.array([inc[0], inc[1]]),
                           params, solver)
    np.testing.assert_allclose(stacked[0], coupled_step(u0, inc[0], params, solver))
    np.testing.assert_allclose(stacked[1], coupled_step(u0, inc[1], params, solver))


def rowwise_newton(u_prev, d_w, params, solver):
    """Reference coupled step: one path at a time, dense Jacobian solves."""
    dense = solver.shifted.toarray()
    mass, tau, eps = solver.mass_diag, params.tau, params.eps
    rhs = mass * (u_prev + diffusion_g(u_prev, params.amplitude) * d_w)
    u = resolvent(np.linalg.solve(dense, rhs), tau, eps)
    for _ in range(100):
        residual = dense @ u + tau * mass * psi_eps(u, eps) - rhs
        if np.max(np.abs(residual)) <= 1e-11 * mass.min():
            return u
        active = (u < 0.0) | (u > 1.0)
        u = u - np.linalg.solve(dense + np.diag((tau / eps) * mass * active), residual)
    raise AssertionError("reference Newton did not converge")


def test_batched_newton_matches_rowwise_above_dense_limit():
    mesh = build_uniform_mesh(12)
    params = SchemeParams(horizon=1.0, n_steps=16, epsilon=EpsilonSchedule.fixed(0.05),
                          amplitude=10.0, variant="coupled")
    solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), params.tau)
    rng = np.random.default_rng(15)
    start = rng.uniform(-0.6, 1.6, size=(6, mesh.n_cells))
    d_w = rng.standard_normal(6) * np.sqrt(params.tau)
    batched = coupled_step(start, d_w, params, solver)
    assert ((batched < 0) | (batched > 1)).any()
    for row in range(6):
        np.testing.assert_allclose(
            batched[row], rowwise_newton(start[row], d_w[row], params, solver), atol=1e-10)


@pytest.mark.parametrize("L", [4, 8])
@pytest.mark.parametrize("variant", ["splitting", "coupled"])
def test_path_result_independent_of_block_size_and_position(L, variant):
    # Block composition may move the last bits of a GEMM row, never more.
    mesh = build_uniform_mesh(L)
    params = SchemeParams(horizon=1.0, n_steps=64, epsilon=EpsilonSchedule.fixed(0.05),
                          amplitude=10.0, variant=variant)
    solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), params.tau)
    n_paths = 37
    inc = sample_increment_block(3, range(n_paths), params.horizon, params.n_steps)
    start = np.tile(default_initial_state(mesh) - 0.3, (n_paths, 1))

    def final(rows):
        return run_trajectory(start[rows], inc[rows], params, solver).final

    whole = final(np.arange(n_paths))
    for size in (1, 7):
        blocks = [final(np.arange(lo, min(lo + size, n_paths)))
                  for lo in range(0, n_paths, size)]
        np.testing.assert_allclose(np.vstack(blocks), whole, rtol=0, atol=1e-13)
    order = np.random.default_rng(L).permutation(n_paths)
    np.testing.assert_allclose(final(order), whole[order], rtol=0, atol=1e-13)


def oracle_heat(u, d_w, params, solver):
    """u + a c (1 - c) dW with c = clip(u, 0, 1), then the heat propagator."""
    c = np.clip(u, 0.0, 1.0)
    return solver.apply_markov(u + params.amplitude * c * (1.0 - c) * d_w[:, None])


def oracle_splitting(u, d_w, params, solver):
    """The heat substep, then c + eps/(eps + tau) (r - c) with c = clip(r, 0, 1)."""
    r = oracle_heat(u, d_w, params, solver)
    c = np.clip(r, 0.0, 1.0)
    return c + params.eps / (params.eps + params.tau) * (r - c)


def oracle_coupled(u, d_w, params, solver):
    """Batched semismooth Newton from the splitting guess, freezing converged rows."""
    tau, eps, mass = params.tau, params.eps, solver.mass_diag
    c = np.clip(u, 0.0, 1.0)
    rhs = mass * (u + params.amplitude * c * (1.0 - c) * d_w[:, None])
    out = oracle_splitting(u, d_w, params, solver)
    rows = np.arange(len(out))
    for _ in range(100):
        v = out[rows]
        residual = ((solver.shifted @ v.T).T + tau * mass * ((v - np.clip(v, 0.0, 1.0)) / eps)
                    - rhs[rows])
        res_norm = np.max(np.abs(residual), axis=1)
        open_rows = ~(res_norm <= 1e-11 * mass.min())
        if not open_rows.any():
            return out
        rows, v, residual = rows[open_rows], v[open_rows], residual[open_rows]
        active = (v < 0.0) | (v > 1.0)
        out[rows] = v - solver.solve_with_diagonal((tau / eps) * mass * active, residual)
    raise NumericalFailure("oracle Newton did not converge")


ORACLES = {"splitting": oracle_splitting, "heat": oracle_heat, "coupled": oracle_coupled}
PUBLIC_STEPS = {"splitting": splitting_step, "heat": heat_step, "coupled": coupled_step}


def edge_case_setup(L, amplitude):
    """Solver and a stack with values below 0, above 1, signed zeros, 0 and 1."""
    mesh = build_uniform_mesh(L)
    params = SchemeParams(horizon=1.0, n_steps=16, epsilon=EpsilonSchedule.fixed(0.05),
                          amplitude=amplitude)
    solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), params.tau)
    d = mesh.n_cells
    rng = np.random.default_rng(L)
    pattern = [-0.0, 0.0, 1.0, -0.25, 1.25, 0.5, -1e-300, 1.0 + 2.0 ** -52, 5e-324, -3.0]
    stack = np.vstack([np.resize(pattern, d), np.full(d, -0.0), np.zeros(d), np.ones(d),
                       rng.uniform(-1.0, 2.0, d), np.linspace(-0.5, 1.5, d)])
    d_w = rng.standard_normal((len(stack), 6)) * np.sqrt(params.tau)
    d_w[1, :] = 0.0
    return params, solver, stack, d_w


@pytest.mark.parametrize("L", [4, 9])
@pytest.mark.parametrize("amplitude", [0.0, 7.0])
@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
def test_step_kernel_matches_oracle_bitwise(L, amplitude, variant):
    assert (L * L <= DENSE_LIMIT) == (L == 4)  # one dense, one banded solver
    params, solver, stack, d_w = edge_case_setup(L, amplitude)
    kernel, oracle = StepKernel(variant, params, solver, stack.shape), ORACLES[variant]
    # Several steps, so the splitting kernel reuses the clip it carries.
    # Bytes, not values, are compared, so signed zeros must match too.
    got, expected = stack, stack
    for n in range(d_w.shape[1]):
        got = kernel(got, d_w[:, n])
        expected = oracle(expected, d_w[:, n], params, solver)
        assert got.tobytes() == expected.tobytes()
    # A state the kernel did not produce gets its own clip.
    first = oracle(stack, d_w[:, 0], params, solver).tobytes()
    assert kernel(stack, d_w[:, 0]).tobytes() == first
    assert PUBLIC_STEPS[variant](stack, d_w[:, 0], params, solver).tobytes() == first


@pytest.mark.parametrize("L", [4, 9])
@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
def test_step_kernel_nan_row_ends_in_numerical_failure(L, variant):
    params, solver, stack, d_w = edge_case_setup(L, 7.0)
    stack[4, 3] = np.nan
    kernel = StepKernel(variant, params, solver, stack.shape)
    if variant == "coupled":
        with pytest.raises(NumericalFailure):
            kernel(stack, d_w[:, 0])
        return
    got, expected = stack, stack
    for n in range(d_w.shape[1]):
        got = kernel(got, d_w[:, n])
        expected = ORACLES[variant](expected, d_w[:, n], params, solver)
        assert np.array_equal(got, expected, equal_nan=True)
    assert np.isnan(got).any(axis=1).tolist() == [False] * 4 + [True, False]
    with pytest.raises(NumericalFailure, match="path 4"):
        require_finite(got, params.amplitude, params.n_steps)


def test_trajectory_history_and_validation():
    u0, params, solver = benchmark_setup(4)
    traj = run_trajectory(u0, QUARTERS, params, solver, keep_history=True)
    assert len(traj.states) == 4
    np.testing.assert_array_equal(traj.states[-1], traj.final)
    assert run_trajectory(u0, QUARTERS, params, solver).states is None
    with pytest.raises(ValueError):
        run_trajectory(u0, QUARTERS[:3], params, solver)


def test_constant_start_stays_constant_along_noisy_trajectory():
    mesh = build_uniform_mesh(4)
    params = SchemeParams(horizon=1.0, n_steps=12,
                          epsilon=EpsilonSchedule.fixed(0.02), amplitude=9.0)
    solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), params.tau)
    rng = np.random.default_rng(14)
    inc = rng.standard_normal(12) * np.sqrt(params.tau)
    traj = run_trajectory(np.full(16, 0.58), inc, params, solver, keep_history=True)
    for state in traj.states:
        assert state.max() - state.min() <= 1e-10


def test_zero_noise_constant_trajectory():
    mesh = build_uniform_mesh(3)
    params = SchemeParams(horizon=1.0, n_steps=5,
                          epsilon=EpsilonSchedule.fixed(0.1), amplitude=0.0)
    solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), params.tau)
    u0 = np.full(9, 0.42)
    traj = run_trajectory(u0, np.zeros(5), params, solver, keep_history=True)
    for state in traj.states:
        np.testing.assert_allclose(state, 0.42, atol=1e-13)


def test_trajectory_csv_dump():
    u0, params, solver = benchmark_setup(2)
    inc = aggregate_increments(QUARTERS, 2)
    traj = run_trajectory(u0, inc, params, solver, keep_history=True)
    buf = io.StringIO()
    dump_trajectory_csv(traj, u0, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,cell_index,value"
    assert len(lines) == 1 + 3 * 4
    n, cell, value = lines[1].split(",")
    assert (n, cell) == ("0", "0")
    assert float(value) == u0[0]
    bare = run_trajectory(u0, inc, params, solver)
    with pytest.raises(ValueError):
        dump_trajectory_csv(bare, u0, io.StringIO())

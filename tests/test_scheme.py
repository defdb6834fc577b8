"""Steppers against the frozen benchmark tables and the structure theorems."""

import io

import numpy as np
import pytest

from acfv import benchmark
from acfv.assembly import assemble_mass, assemble_stiffness
from acfv.constraint import psi_eps, resolvent
from acfv.errors import NumericalFailure
from acfv.experiments import require_finite, write_states_csv
from acfv.linalg import DENSE_LIMIT, ShiftedSolver
from acfv.mesh import build_uniform_mesh, default_initial_state
from acfv.scheme import EpsilonSchedule, StepKernel
from acfv.stochastic import diffusion_g, sample_increment_block

QUARTERS = np.array(benchmark.QUARTER_INCREMENTS)
# The two-step increments: pairwise sums of the quarters.
HALVES = QUARTERS.reshape(2, 2).sum(axis=1)


def solver_on(L, n_steps):
    """The shifted solver of the L x L mesh at tau = 1/n_steps."""
    mesh = build_uniform_mesh(L)
    return ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), 1.0 / n_steps)


def benchmark_setup(n_steps):
    """Start field and solver of the benchmark scenario at n_steps steps."""
    return default_initial_state(build_uniform_mesh(2)), solver_on(2, n_steps)


def benchmark_kernel(variant, solver, shape=(4,)):
    """A kernel of the benchmark scenario: a = 10, eps = 0.1 tau^(1/3)."""
    scenario = benchmark.SCENARIO
    return StepKernel(variant, scenario.amplitudes[0], scenario.epsilon, solver, shape)


def run_states(kernel, u0, increments):
    """Copies of the state after every step of one kernel run."""
    return [state.copy() for _, state in kernel.run(u0, increments)]


def test_epsilon_schedules():
    fixed = EpsilonSchedule.fixed(0.05)
    assert fixed.value(0.1) == 0.05
    power = EpsilonSchedule.power(0.1, 0.4)
    assert power.value(0.5) == pytest.approx(0.1 * 0.5 ** 0.4, rel=1e-15)
    with pytest.raises(ValueError):
        EpsilonSchedule("linear", 0.1)
    with pytest.raises(ValueError):
        EpsilonSchedule.fixed(0.0)


@pytest.mark.parametrize("epsilon", [EpsilonSchedule.fixed(0.1),
                                     EpsilonSchedule.power(0.1, 0.4)], ids=["fixed", "power"])
def test_step_kernel_reads_tau_from_its_solver(epsilon):
    solver = solver_on(2, 3)
    kernel = StepKernel("splitting", 2.0, epsilon, solver, (4,))
    assert kernel.tau == solver.tau
    assert kernel.eps == epsilon.value(solver.tau)
    assert StepKernel("heat", 0.0, epsilon, solver, (4,)).amplitude == 0.0
    with pytest.raises(ValueError, match="amplitude"):
        StepKernel("splitting", -1.0, epsilon, solver, (4,))


def test_splitting_two_step_table():
    u0, solver = benchmark_setup(2)
    step = benchmark_kernel("splitting", solver)
    inc = HALVES
    u1 = step(u0, inc[0])
    np.testing.assert_allclose(u1, benchmark.SPLITTING_N2[0], atol=1e-6)
    u2 = step(u1, inc[1])
    np.testing.assert_allclose(u2, benchmark.SPLITTING_N2[1], atol=1e-6)


def test_heat_two_step_table():
    u0, solver = benchmark_setup(2)
    step = benchmark_kernel("heat", solver)
    inc = HALVES
    u1 = step(u0, inc[0])
    np.testing.assert_allclose(u1, benchmark.HEAT_N2[0], atol=1e-6)
    np.testing.assert_allclose(u1, benchmark.SPLITTING_N2[0], atol=1e-6)
    u2 = step(u1, inc[1])
    np.testing.assert_allclose(u2, benchmark.HEAT_N2[1], atol=1e-6)


def test_splitting_four_step_first_row():
    u0, solver = benchmark_setup(4)
    u1 = benchmark_kernel("splitting", solver)(u0, -0.60460866)
    np.testing.assert_allclose(u1, benchmark.SPLITTING_N4[0], atol=1e-6)


def test_full_four_step_trajectory():
    u0, solver = benchmark_setup(4)
    states = run_states(benchmark_kernel("splitting", solver), u0, QUARTERS)
    assert len(states) == 4
    for state, expected in zip(states, benchmark.SPLITTING_N4):
        np.testing.assert_allclose(state, expected, atol=1e-6)


def test_coupled_matches_splitting_when_penalty_inactive():
    u0, solver = benchmark_setup(2)
    inc = HALVES
    split = benchmark_kernel("splitting", solver)(u0, inc[0])
    assert np.all((split >= 0) & (split <= 1))
    coupled = benchmark_kernel("coupled", solver)(u0, inc[0])
    np.testing.assert_allclose(coupled, split, atol=1e-9)


def test_methods_agree_while_state_stays_interior():
    # With the penalty inactive the two methods solve the same linear
    # system, so any strictly interior outcome must match to solver
    # accuracy.  Small increments keep the state inside.
    rng = np.random.default_rng(3)
    solver = solver_on(3, 8)
    step_split, step_coupled = (StepKernel(variant, 4.0, EpsilonSchedule.fixed(0.02), solver,
                                           (9,)) for variant in ("splitting", "coupled"))
    checked = 0
    for _ in range(100):
        u = rng.uniform(0.2, 0.8, size=9)
        d_w = float(rng.standard_normal() * 0.05)
        split = step_split(u, d_w)
        if np.all((split > 0) & (split < 1)):
            coupled = step_coupled(u, d_w)
            np.testing.assert_allclose(coupled, split, atol=1e-9)
            checked += 1
    assert checked > 50


def test_coupled_scalar_case_matches_bisection_oracle():
    # On one cell the stiffness vanishes and the implicit step reduces to
    # u + tau psi_eps(u) = w per path; bisection on that monotone scalar
    # equation is the oracle.
    tau, eps, amplitude = 0.5, 0.03, 12.0
    step = StepKernel("coupled", amplitude, EpsilonSchedule.fixed(eps), solver_on(1, 2), (1,))
    rng = np.random.default_rng(4)
    for _ in range(25):
        u_prev = np.array([float(rng.uniform(-0.5, 1.5))])
        d_w = float(rng.standard_normal())
        w = u_prev[0] + diffusion_g(u_prev[0], amplitude) * d_w
        lo, hi = min(w, 0.0) - 1.0, max(w, 1.0) + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + tau * psi_eps(mid, eps) < w:
                lo = mid
            else:
                hi = mid
        got = step(u_prev, d_w)
        assert got[0] == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert got[0] == pytest.approx(resolvent(w, tau, eps), abs=1e-10)


def test_stationary_extremes():
    _, solver = benchmark_setup(2)
    for c in (0.0, 1.0):
        for variant in ("splitting", "coupled"):
            out = benchmark_kernel(variant, solver)(np.full(4, c), 0.73)
            np.testing.assert_allclose(out, c, atol=1e-12)


def test_constant_states_stay_constant():
    rng = np.random.default_rng(6)
    for _ in range(20):
        L = int(rng.integers(1, 6))
        solver = solver_on(L, int(rng.integers(1, 6)))
        epsilon = EpsilonSchedule.fixed(float(rng.uniform(0.01, 0.2)))
        amplitude = float(rng.uniform(0, 15))
        c = float(rng.uniform(0, 1))
        d_w = float(rng.standard_normal())
        for variant in ("splitting", "coupled"):
            kernel = StepKernel(variant, amplitude, epsilon, solver, (L * L,))
            out = kernel(np.full(L * L, c), d_w)
            assert out.max() - out.min() <= 1e-10


def test_sign_trapping():
    rng = np.random.default_rng(8)
    step = benchmark_kernel("splitting", benchmark_setup(3)[1])
    for _ in range(100):
        d_w = float(rng.standard_normal())
        below = -rng.uniform(0, 2, size=4)
        assert step(below, d_w).max() <= 1e-10
        above = 1.0 + rng.uniform(0, 2, size=4)
        assert step(above, d_w).min() >= 1.0 - 1e-10


def test_method_gap_shrinks_with_larger_eps():
    # One step from a fixed penalty-active state isolates the regularization
    # factor: the splitting defect scales like 1/(eps + tau), so doubling
    # eps must shrink the gap.  (Over a whole trajectory the trend washes
    # out, because larger eps also keeps the penalty active for longer.)
    solver = solver_on(4, 64)
    start = -(default_initial_state(build_uniform_mesh(4)) + 0.2)
    gaps = []
    for eps in (0.025, 0.05, 0.1):
        split, coupled = (StepKernel(variant, 10.0, EpsilonSchedule.fixed(eps), solver,
                                     start.shape)(start, 0.1)
                          for variant in ("splitting", "coupled"))
        gaps.append(np.max(np.abs(coupled - split)))
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_heat_kernel_mass_identity():
    # The heat substep conserves the mass-weighted total of its input.
    rng = np.random.default_rng(10)
    solver = solver_on(4, 8)
    mass = solver.mass_diag
    step = StepKernel("heat", 6.0, EpsilonSchedule.fixed(0.05), solver, (16,))
    for _ in range(50):
        u = rng.uniform(-0.5, 1.5, size=16)
        d_w = float(rng.standard_normal())
        loaded = u + diffusion_g(u, 6.0) * d_w
        out = step(u, d_w)
        assert mass @ out == pytest.approx(mass @ loaded, rel=1e-10)


def test_stacked_states_match_single_paths():
    u0, solver = benchmark_setup(4)
    inc = np.vstack([QUARTERS, -QUARTERS, 0.5 * QUARTERS])
    stacked = run_states(benchmark_kernel("splitting", solver, (3, 4)),
                         np.tile(u0, (3, 1)), inc)[-1]
    for row in range(3):
        single = run_states(benchmark_kernel("splitting", solver), u0, inc[row])[-1]
        np.testing.assert_allclose(stacked[row], single, rtol=1e-12, atol=1e-14)
    # simulate and the benchmark tables run their path as a one-row block,
    # which steps bit for bit like the single field.
    for variant in ("splitting", "heat", "coupled"):
        field = run_states(benchmark_kernel(variant, solver), u0, QUARTERS)
        row = run_states(benchmark_kernel(variant, solver, (1, 4)), u0[None], QUARTERS[None])
        assert [s.tobytes() for s in row] == [s.tobytes() for s in field]


@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
def test_run_resumed_across_chunks_matches_one_run(variant):
    # A block is stepped chunk by chunk, each run resuming from the
    # kernel's own output buffer: bit for bit one uninterrupted run.
    solver = solver_on(3, 40)
    start = np.tile(np.linspace(-0.4, 1.3, 9), (5, 1))  # the penalty is active at once
    inc = sample_increment_block(8, range(5), 1.0, 40)
    at = (1, 7, 8, 23, 40)

    def kernel():
        return StepKernel(variant, 9.0, EpsilonSchedule.fixed(0.05), solver, start.shape)

    whole = [(n, state.tobytes()) for n, state in kernel().run(start, inc, at)]
    resumed, chunked = [], kernel()
    for lo, hi in ((0, 7), (7, 8), (8, 31), (31, 40)):
        u = start if lo == 0 else chunked.out
        resumed += [(n, state.tobytes())
                    for n, state in chunked.run(u, inc[:, lo:hi], at, first=lo + 1)]
    assert resumed == whole


def test_coupled_kernel_stacked_rows():
    u0, solver = benchmark_setup(2)
    inc = HALVES
    stacked = benchmark_kernel("coupled", solver, (2, 4))(np.tile(u0, (2, 1)), inc[:2])
    single = benchmark_kernel("coupled", solver)
    np.testing.assert_allclose(stacked[0], single(u0, inc[0]))
    np.testing.assert_allclose(stacked[1], single(u0, inc[1]))


def rowwise_newton(u_prev, d_w, params, solver):
    """Reference coupled step: one path at a time, dense Jacobian solves.

    ``params`` carries the step's amplitude, tau and eps, like a StepKernel.
    """
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
    solver = solver_on(12, 16)
    rng = np.random.default_rng(15)
    start = rng.uniform(-0.6, 1.6, size=(6, solver.n))
    d_w = rng.standard_normal(6) * np.sqrt(solver.tau)
    kernel = StepKernel("coupled", 10.0, EpsilonSchedule.fixed(0.05), solver, start.shape)
    batched = kernel(start, d_w)
    assert ((batched < 0) | (batched > 1)).any()
    for row in range(6):
        np.testing.assert_allclose(
            batched[row], rowwise_newton(start[row], d_w[row], kernel, solver), atol=1e-10)


@pytest.mark.parametrize("L", [4, 8])
@pytest.mark.parametrize("variant", ["splitting", "coupled"])
def test_path_result_independent_of_block_size_and_position(L, variant):
    # Block composition may move the last bits of a GEMM row, never more.
    solver = solver_on(L, 64)
    n_paths = 37
    inc = sample_increment_block(3, range(n_paths), 1.0, 64)
    start = np.tile(default_initial_state(build_uniform_mesh(L)) - 0.3, (n_paths, 1))

    def final(rows):
        kernel = StepKernel(variant, 10.0, EpsilonSchedule.fixed(0.05), solver,
                            start[rows].shape)
        return run_states(kernel, start[rows], inc[rows])[-1]

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


def edge_case_setup(L):
    """Solver and a stack with values below 0, above 1, signed zeros, 0 and 1."""
    solver = solver_on(L, 16)
    d = solver.n
    rng = np.random.default_rng(L)
    pattern = [-0.0, 0.0, 1.0, -0.25, 1.25, 0.5, -1e-300, 1.0 + 2.0 ** -52, 5e-324, -3.0]
    stack = np.vstack([np.resize(pattern, d), np.full(d, -0.0), np.zeros(d), np.ones(d),
                       rng.uniform(-1.0, 2.0, d), np.linspace(-0.5, 1.5, d)])
    d_w = rng.standard_normal((len(stack), 6)) * np.sqrt(solver.tau)
    d_w[1, :] = 0.0
    return solver, stack, d_w


def edge_case_kernel(variant, amplitude, solver, shape):
    """A kernel of the edge cases: eps = 0.05 and tau = 1/16."""
    return StepKernel(variant, amplitude, EpsilonSchedule.fixed(0.05), solver, shape)


@pytest.mark.parametrize("L", [4, 9])
@pytest.mark.parametrize("amplitude", [0.0, 7.0])
@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
def test_step_kernel_matches_oracle_bitwise(L, amplitude, variant):
    assert (L * L <= DENSE_LIMIT) == (L == 4)  # one dense, one banded solver
    solver, stack, d_w = edge_case_setup(L)
    kernel = edge_case_kernel(variant, amplitude, solver, stack.shape)
    oracle = ORACLES[variant]
    # Several steps, each fed the kernel's own output buffer.
    # Bytes, not values, are compared, so signed zeros must match too.
    got, expected = stack, stack
    for n in range(d_w.shape[1]):
        got = kernel(got, d_w[:, n])
        expected = oracle(expected, d_w[:, n], kernel, solver)
        assert got.tobytes() == expected.tobytes()
    # A state the kernel did not produce gets its own clip, in a used
    # kernel as in a fresh one.
    first = oracle(stack, d_w[:, 0], kernel, solver).tobytes()
    assert kernel(stack, d_w[:, 0]).tobytes() == first
    fresh = edge_case_kernel(variant, amplitude, solver, stack.shape)
    assert fresh(stack, d_w[:, 0]).tobytes() == first


@pytest.mark.parametrize("L", [4, 9])
@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
def test_kernel_run_matches_per_step_oracle_bitwise(L, variant):
    # A long run carries the splitting clip from step to step in locals;
    # every step must still equal the oracle byte for byte.
    solver, stack, _ = edge_case_setup(L)
    n_steps = 64
    d_w = np.random.default_rng(L + 1).standard_normal((len(stack), n_steps))
    d_w *= np.sqrt(solver.tau)
    kernel, oracle = edge_case_kernel(variant, 7.0, solver, stack.shape), ORACLES[variant]
    expected, every = stack, []
    for n, got in kernel.run(stack, d_w):
        expected = oracle(expected, d_w[:, n - 1], kernel, solver)
        assert got.tobytes() == expected.tobytes(), f"step {n}"
        every.append(got.copy())
    assert n == n_steps
    # Asking for some steps yields exactly those, with the same bytes.
    asked = (1, 2, 33, 40)
    taken = [(n, state.tobytes()) for n, state in kernel.run(stack, d_w, at=asked)]
    assert taken == [(n, every[n - 1].tobytes()) for n in asked]


@pytest.mark.parametrize("L", [4, 9])
@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
def test_step_kernel_nan_row_ends_in_numerical_failure(L, variant):
    solver, stack, d_w = edge_case_setup(L)
    stack[4, 3] = np.nan
    kernel = edge_case_kernel(variant, 7.0, solver, stack.shape)
    if variant == "coupled":
        with pytest.raises(NumericalFailure):
            kernel(stack, d_w[:, 0])
        return
    got, expected = stack, stack
    for n in range(d_w.shape[1]):
        got = kernel(got, d_w[:, n])
        expected = ORACLES[variant](expected, d_w[:, n], kernel, solver)
        assert np.array_equal(got, expected, equal_nan=True)
    assert np.isnan(got).any(axis=1).tolist() == [False] * 4 + [True, False]
    with pytest.raises(NumericalFailure, match="path 4"):
        require_finite(got, kernel.amplitude, 16)


def test_trajectory_history_and_validation():
    # One step per increment column, and the final state alone on request.
    u0, solver = benchmark_setup(4)
    kernel = benchmark_kernel("splitting", solver)
    history = [(n, state.copy()) for n, state in kernel.run(u0, QUARTERS)]
    assert [n for n, _ in history] == [1, 2, 3, 4]
    [(n, final)] = kernel.run(u0, QUARTERS, at=(4,))
    assert n == 4 and final.tobytes() == history[-1][1].tobytes()
    assert [n for n, _ in kernel.run(u0, QUARTERS[:3])] == [1, 2, 3]


def test_constant_start_stays_constant_along_noisy_trajectory():
    solver = solver_on(4, 12)
    kernel = StepKernel("splitting", 9.0, EpsilonSchedule.fixed(0.02), solver, (16,))
    inc = np.random.default_rng(14).standard_normal(12) * np.sqrt(solver.tau)
    for state in run_states(kernel, np.full(16, 0.58), inc):
        assert state.max() - state.min() <= 1e-10


def test_zero_noise_constant_trajectory():
    kernel = StepKernel("splitting", 0.0, EpsilonSchedule.fixed(0.1), solver_on(3, 5), (9,))
    for state in run_states(kernel, np.full(9, 0.42), np.zeros(5)):
        np.testing.assert_allclose(state, 0.42, atol=1e-13)


def test_trajectory_csv_dump():
    # simulate's trajectory.csv: step 0 is the start field.
    u0, solver = benchmark_setup(2)
    states = run_states(benchmark_kernel("splitting", solver), u0,
                        HALVES)
    buf = io.StringIO()
    write_states_csv(buf, [u0] + states, first_step=0)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,cell_index,value"
    assert len(lines) == 1 + 3 * 4
    n, cell, value = lines[1].split(",")
    assert (n, cell) == ("0", "0")
    assert float(value) == u0[0]
    assert lines[-1] == f"2,3,{states[-1][3]:.17g}"

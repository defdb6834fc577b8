"""Steppers against the frozen benchmark tables and the structure theorems."""

import io
from functools import cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from acfv import benchmark, experiments, scheme
from acfv.assembly import assemble_mass, assemble_stiffness
from acfv.constraint import psi_eps, resolvent
from acfv.errors import NumericalFailure
from acfv.experiments import StudyConfig, require_finite, write_states_csv
from acfv.linalg import DENSE_LIMIT, ShiftedSolver, band_to_dense
from acfv.mesh import build_uniform_mesh, default_initial_state
from acfv.scheme import EpsilonSchedule, StepKernel
from acfv.stochastic import coarse_chunks, diffusion_g, sample_increment_block
import oracles
from oracles import bind, numpy_route, solve_with_diagonal

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


def lone_kernel(variant, amplitude, epsilon, solver, paths=1):
    """A kernel of one run: one amplitude, ``paths`` fields."""
    return StepKernel(variant, (amplitude,), epsilon, solver, paths)


def benchmark_kernel(variant, solver, paths=1):
    """A lone-run kernel of the benchmark scenario: a = 10, eps = 0.1 tau^(1/3)."""
    scenario = benchmark.SCENARIO
    return lone_kernel(variant, scenario.amplitudes[0], scenario.epsilon, solver, paths)


def lone_params(kernel):
    """The amplitude, tau and eps of a lone-run kernel, as the oracles read them."""
    return SimpleNamespace(amplitude=kernel.amplitude[0], tau=kernel.tau, eps=kernel.eps)


def advance(kernel, u, d_w):
    """One step of a kernel's runs from u with increments d_w (one per path): its ``out``."""
    (_, out), = kernel.run(u, np.reshape(d_w, (-1, 1)))
    return out


def step(kernel, u, d_w):
    """One step of a lone-run kernel from u with increments d_w (one per path): its (p, d) states."""
    return advance(kernel, u, d_w)[0]


def run_states(kernel, u0, increments):
    """Copies of the (p, d) states after every step of a lone-run kernel; increments (p, k)."""
    return [state[0].copy() for _, state in kernel.run(u0, np.atleast_2d(increments))]


def noise(u, amplitude, d_w):
    """A round's noisy rows w = (((c a)(1 - c)) dW) + u, c = clip(u), as the rounds form them."""
    c = np.clip(u, 0.0, 1.0)
    return ((c * amplitude) * (1.0 - c)) * d_w + u


def each_passes(monkeypatch):
    """Iterate twice: kernels built in the first pass run the compiled
    rounds, in the second their numpy form in ``oracles``, which must then
    have run."""
    yield
    with numpy_route(monkeypatch) as calls:
        yield
    assert calls["bind"], "no kernel of the second pass ran the numpy form"


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
    kernel = lone_kernel("splitting", 2.0, epsilon, solver)
    assert kernel.tau == solver.tau
    assert kernel.eps == epsilon.value(solver.tau)
    assert lone_kernel("heat", 0.0, epsilon, solver).amplitude == (0.0,)
    with pytest.raises(ValueError, match="amplitude"):
        lone_kernel("splitting", -1.0, epsilon, solver)


def test_splitting_two_step_table():
    u0, solver = benchmark_setup(2)
    kernel = benchmark_kernel("splitting", solver)
    inc = HALVES
    u1 = step(kernel, u0, inc[0])
    np.testing.assert_allclose(u1, benchmark.SPLITTING_N2[0:1], atol=1e-6)
    u2 = step(kernel, u1, inc[1])
    np.testing.assert_allclose(u2, benchmark.SPLITTING_N2[1:2], atol=1e-6)


def test_heat_two_step_table():
    u0, solver = benchmark_setup(2)
    kernel = benchmark_kernel("heat", solver)
    inc = HALVES
    u1 = step(kernel, u0, inc[0])
    np.testing.assert_allclose(u1, benchmark.HEAT_N2[0:1], atol=1e-6)
    np.testing.assert_allclose(u1, benchmark.SPLITTING_N2[0:1], atol=1e-6)
    u2 = step(kernel, u1, inc[1])
    np.testing.assert_allclose(u2, benchmark.HEAT_N2[1:2], atol=1e-6)


def test_splitting_four_step_first_row():
    u0, solver = benchmark_setup(4)
    u1 = step(benchmark_kernel("splitting", solver), u0, -0.60460866)
    np.testing.assert_allclose(u1, benchmark.SPLITTING_N4[0:1], atol=1e-6)


def test_full_four_step_trajectory():
    u0, solver = benchmark_setup(4)
    states = run_states(benchmark_kernel("splitting", solver), u0, QUARTERS)
    assert len(states) == 4
    for state, expected in zip(states, benchmark.SPLITTING_N4):
        np.testing.assert_allclose(state[0], expected, atol=1e-6)


def test_coupled_matches_splitting_when_penalty_inactive():
    u0, solver = benchmark_setup(2)
    inc = HALVES
    split = step(benchmark_kernel("splitting", solver), u0, inc[0])
    assert np.all((split >= 0) & (split <= 1))
    coupled = step(benchmark_kernel("coupled", solver), u0, inc[0])
    np.testing.assert_allclose(coupled, split, atol=1e-9)


def test_methods_agree_while_state_stays_interior():
    # With the penalty inactive the two methods solve the same linear
    # system, so any strictly interior outcome must match to solver
    # accuracy.  Small increments keep the state inside.
    rng = np.random.default_rng(3)
    solver = solver_on(3, 8)
    split_kernel, coupled_kernel = (lone_kernel(variant, 4.0, EpsilonSchedule.fixed(0.02), solver)
                                    for variant in ("splitting", "coupled"))
    checked = 0
    for _ in range(100):
        u = rng.uniform(0.2, 0.8, size=9)
        d_w = float(rng.standard_normal() * 0.05)
        split = step(split_kernel, u, d_w)
        if np.all((split > 0) & (split < 1)):
            coupled = step(coupled_kernel, u, d_w)
            np.testing.assert_allclose(coupled, split, atol=1e-9)
            checked += 1
    assert checked > 50


def test_coupled_scalar_case_matches_bisection_oracle():
    # On one cell the stiffness vanishes and the implicit step reduces to
    # u + tau psi_eps(u) = w per path; bisection on that monotone scalar
    # equation is the oracle.
    tau, eps, amplitude = 0.5, 0.03, 12.0
    kernel = lone_kernel("coupled", amplitude, EpsilonSchedule.fixed(eps), solver_on(1, 2))
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
        [[got]] = step(kernel, u_prev, d_w)
        assert got == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert got == pytest.approx(resolvent(w, tau, eps), abs=1e-10)


def test_stationary_extremes():
    _, solver = benchmark_setup(2)
    for c in (0.0, 1.0):
        for variant in ("splitting", "coupled"):
            out = step(benchmark_kernel(variant, solver), np.full(4, c), 0.73)
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
            out = step(lone_kernel(variant, amplitude, epsilon, solver), np.full(L * L, c), d_w)
            assert out.max() - out.min() <= 1e-10


def test_sign_trapping():
    rng = np.random.default_rng(8)
    kernel = benchmark_kernel("splitting", benchmark_setup(3)[1])
    for _ in range(100):
        d_w = float(rng.standard_normal())
        below = -rng.uniform(0, 2, size=4)
        assert step(kernel, below, d_w).max() <= 1e-10
        above = 1.0 + rng.uniform(0, 2, size=4)
        assert step(kernel, above, d_w).min() >= 1.0 - 1e-10


def test_method_gap_shrinks_with_larger_eps():
    # One step from a fixed penalty-active state isolates the regularization
    # factor: the splitting defect scales like 1/(eps + tau), so doubling
    # eps must shrink the gap.  (Over a whole trajectory the trend washes
    # out, because larger eps also keeps the penalty active for longer.)
    solver = solver_on(4, 64)
    start = -(default_initial_state(build_uniform_mesh(4)) + 0.2)
    gaps = []
    for eps in (0.025, 0.05, 0.1):
        split, coupled = (step(lone_kernel(variant, 10.0, EpsilonSchedule.fixed(eps), solver),
                               start, 0.1)
                          for variant in ("splitting", "coupled"))
        gaps.append(np.max(np.abs(coupled - split)))
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_heat_kernel_mass_identity():
    # The heat substep conserves the mass-weighted total of its input.
    rng = np.random.default_rng(10)
    solver = solver_on(4, 8)
    mass = solver.mass_diag
    kernel = lone_kernel("heat", 6.0, EpsilonSchedule.fixed(0.05), solver)
    for _ in range(50):
        u = rng.uniform(-0.5, 1.5, size=16)
        d_w = float(rng.standard_normal())
        loaded = u + diffusion_g(u, 6.0) * d_w
        [out] = step(kernel, u, d_w)
        assert mass @ out == pytest.approx(mass @ loaded, rel=1e-10)


@pytest.mark.parametrize("L", range(1, 17))
def test_heat_product_conserves_the_mass_to_a_few_ulps(L):
    # 1^T M P = 1^T M, as A 1 = 0 and A is symmetric.  At amplitude 0 a heat
    # round is w = u, then u = P w, so one step of the kernel is P x, by
    # the fixed-order product (d <= 64) or the band solve (d > 64).  Rows:
    # normal and uniform draws, -0.0, 5e-324, +-1e300, and subnormals among
    # uniform draws; one at a time and all six in one stack.  The drift
    # |1^T M P x - 1^T M x| is read in ulps of 1^T M |x|, the sums taken by
    # np.dot.  Measured: at worst 3 ulps dense and 7 banded on these rows
    # and on another draw of the same kinds, so k = 8 and 16.
    mesh = build_uniform_mesh(L)
    rng = np.random.default_rng(L)
    d = L * L
    stack = np.array([rng.standard_normal(d), rng.uniform(0, 1, d), np.full(d, -0.0),
                      np.full(d, 5e-324), rng.choice([-1e300, 1e300], d),
                      np.where(rng.random(d) < 0.5, 5e-324, rng.uniform(0, 1, d))])
    k = 8 if d <= DENSE_LIMIT else 16
    for n_steps in (8, 210, 40320):
        solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), 1.0 / n_steps)
        mass = solver.mass_diag
        for rows in [stack[i:i + 1] for i in range(len(stack))] + [stack]:
            kernel = lone_kernel("heat", 0.0, EpsilonSchedule.fixed(0.05), solver, len(rows))
            for x, px in zip(rows, step(kernel, rows, np.full(len(rows), 0.7))):
                drift = abs(mass @ px - mass @ x)
                assert drift <= k * np.spacing(mass @ np.abs(x)), (n_steps, x[0])


def test_stacked_states_match_single_paths():
    u0, solver = benchmark_setup(4)
    inc = np.vstack([QUARTERS, -QUARTERS, 0.5 * QUARTERS])
    stacked = run_states(benchmark_kernel("splitting", solver, 3), u0, inc)[-1]
    for row in range(3):
        [single] = run_states(benchmark_kernel("splitting", solver), u0, inc[row])[-1]
        np.testing.assert_allclose(stacked[row], single, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
def test_run_resumed_across_chunks_matches_one_run(variant):
    # A block is stepped chunk by chunk, each run resuming from the
    # kernel's own output buffer: bit for bit one uninterrupted run.
    solver = solver_on(3, 40)
    start = np.tile(np.linspace(-0.4, 1.3, 9), (5, 1))  # the penalty is active at once
    inc = sample_increment_block(8, range(5), 1.0, 40)
    at = (1, 7, 8, 23, 40)

    def kernel():
        return lone_kernel(variant, 9.0, EpsilonSchedule.fixed(0.05), solver, len(start))

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
    stacked = step(benchmark_kernel("coupled", solver, 2), u0, inc[:2])
    single = benchmark_kernel("coupled", solver)
    np.testing.assert_allclose(stacked[0:1], step(single, u0, inc[0]))
    np.testing.assert_allclose(stacked[1:2], step(single, u0, inc[1]))


def rowwise_newton(u_prev, d_w, params, solver):
    """Reference coupled step: one path at a time, dense Jacobian solves.

    ``params`` carries the step's amplitude, tau and eps (see ``lone_params``).
    """
    dense = band_to_dense(solver.band)
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
    kernel = lone_kernel("coupled", 10.0, EpsilonSchedule.fixed(0.05), solver, len(start))
    batched = step(kernel, start, d_w)
    assert ((batched < 0) | (batched > 1)).any()
    for row in range(6):
        np.testing.assert_allclose(
            batched[row], rowwise_newton(start[row], d_w[row], lone_params(kernel), solver),
            atol=1e-10)


@pytest.mark.parametrize("L", [4, 8])
@pytest.mark.parametrize("variant", ["splitting", "coupled"])
def test_path_result_independent_of_block_size_and_position(L, variant):
    # Block composition may move the last bits of a GEMM row, never more.
    solver = solver_on(L, 64)
    n_paths = 37
    inc = sample_increment_block(3, range(n_paths), 1.0, 64)
    start = np.tile(default_initial_state(build_uniform_mesh(L)) - 0.3, (n_paths, 1))

    def final(rows):
        kernel = lone_kernel(variant, 10.0, EpsilonSchedule.fixed(0.05), solver, len(rows))
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
    """Batched semismooth Newton from the splitting guess, freezing converged rows.

    The residual is a CSR product: each row summed from 0 in column order;
    the solves are the oracles' numpy form.
    """
    tau, eps, mass = params.tau, params.eps, solver.mass_diag
    shifted = sps.csr_matrix(band_to_dense(solver.band))  # the nonzero entries only
    c = np.clip(u, 0.0, 1.0)
    rhs = mass * (u + params.amplitude * c * (1.0 - c) * d_w[:, None])
    out = oracle_splitting(u, d_w, params, solver)
    rows = np.arange(len(out))
    for _ in range(100):
        v = out[rows]
        residual = ((shifted @ v.T).T + tau * mass * ((v - np.clip(v, 0.0, 1.0)) / eps)
                    - rhs[rows])
        res_norm = np.max(np.abs(residual), axis=1)
        open_rows = ~(res_norm <= 1e-11 * mass.min())
        if not open_rows.any():
            return out
        rows, v, residual = rows[open_rows], v[open_rows], residual[open_rows]
        active = (v < 0.0) | (v > 1.0)
        out[rows] = v - solve_with_diagonal(solver, (tau / eps) * mass * active, residual)
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


def edge_case_kernel(variant, amplitude, solver, paths):
    """A lone-run kernel of the edge cases: eps = 0.05 and tau = 1/16."""
    return lone_kernel(variant, amplitude, EpsilonSchedule.fixed(0.05), solver, paths)


@pytest.mark.parametrize("L", [4, 9])
@pytest.mark.parametrize("amplitude", [0.0, 7.0])
@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
def test_step_kernel_matches_oracle_bitwise(monkeypatch, L, amplitude, variant):
    assert (L * L <= DENSE_LIMIT) == (L == 4)  # one dense, one banded solver
    solver, stack, d_w = edge_case_setup(L)
    for _ in each_passes(monkeypatch):
        kernel = edge_case_kernel(variant, amplitude, solver, len(stack))
        oracle, params = ORACLES[variant], lone_params(kernel)
        # Several steps, each fed the kernel's own output buffer.
        # Bytes, not values, are compared, so signed zeros must match too.
        got, expected = stack, stack
        for n in range(d_w.shape[1]):
            got = advance(kernel, got, d_w[:, n])
            expected = oracle(expected, d_w[:, n], params, solver)
            assert got[0].tobytes() == expected.tobytes()
        # A state the kernel did not produce gets its own clip, in a used
        # kernel as in a fresh one.
        first = oracle(stack, d_w[:, 0], params, solver).tobytes()
        assert step(kernel, stack, d_w[:, 0]).tobytes() == first
        fresh = edge_case_kernel(variant, amplitude, solver, len(stack))
        assert step(fresh, stack, d_w[:, 0]).tobytes() == first


@pytest.mark.parametrize("L", [4, 9])
@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
def test_kernel_run_matches_per_step_oracle_bitwise(monkeypatch, L, variant):
    # A long run carries the splitting clip from step to step in its
    # buffer; every step must still equal the oracle byte for byte.
    solver, stack, _ = edge_case_setup(L)
    n_steps = 64
    d_w = np.random.default_rng(L + 1).standard_normal((len(stack), n_steps))
    d_w *= np.sqrt(solver.tau)
    for _ in each_passes(monkeypatch):
        kernel, oracle = edge_case_kernel(variant, 7.0, solver, len(stack)), ORACLES[variant]
        params, expected, every = lone_params(kernel), stack, []
        for n, got in kernel.run(stack, d_w):
            expected = oracle(expected, d_w[:, n - 1], params, solver)
            assert got[0].tobytes() == expected.tobytes(), f"step {n}"
            every.append(got[0].copy())
        assert n == n_steps
        # Asking for some steps yields exactly those, with the same bytes.
        asked = (1, 2, 33, 40)
        taken = [(n, state[0].tobytes()) for n, state in kernel.run(stack, d_w, at=asked)]
        assert taken == [(n, every[n - 1].tobytes()) for n in asked]


@pytest.mark.parametrize("L", [4, 9])
@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
@pytest.mark.filterwarnings("error")
def test_step_kernel_nan_row_ends_in_numerical_failure(monkeypatch, L, variant):
    # A NaN or an inf cell; the Newton residual's band product meets an inf
    # with zero slots too, where 0 inf gives NaN, and still fails loudly,
    # with no numpy warning on either route.
    for bad in (np.nan, np.inf):
        solver, stack, d_w = edge_case_setup(L)
        stack[4, 3] = bad
        for _ in each_passes(monkeypatch):
            kernel = edge_case_kernel(variant, 7.0, solver, len(stack))
            params = lone_params(kernel)
            if variant == "coupled":
                with pytest.raises(NumericalFailure):
                    advance(kernel, stack, d_w[:, 0])
                continue
            got, expected = stack, stack
            for n in range(d_w.shape[1]):
                got = advance(kernel, got, d_w[:, n])
                expected = ORACLES[variant](expected, d_w[:, n], params, solver)
                assert got[0].tobytes() == expected.tobytes()
            assert (~np.isfinite(got[0])).any(axis=1).tolist() == [False] * 4 + [True, False]
            with pytest.raises(NumericalFailure, match="path 4"):
                require_finite(got[0], params.amplitude, 16)


@pytest.mark.parametrize("L", [4, 9])
def test_newton_iteration_cap_fails_alike_on_both_routes(monkeypatch, L):
    # With one Newton iteration allowed, a coupled step from a stack with
    # cells outside [0, 1] does not converge: both routes raise the same
    # NumericalFailure, its residual the largest over the open rows of the
    # dense (L = 4) and the banded (L = 9) run.
    monkeypatch.setattr(scheme, "NEWTON_MAX_ITER", 1)
    solver, stack, d_w = edge_case_setup(L)
    residuals = []
    for _ in each_passes(monkeypatch):
        kernel = StepKernel("coupled", (0.0, 7.0), EpsilonSchedule.fixed(0.05), solver,
                            len(stack))
        with pytest.raises(NumericalFailure, match="did not converge in 1 iterations") as failed:
            advance(kernel, stack, d_w[:, 0])
        residuals.append(failed.value.residual)
    assert residuals[0] == residuals[1] > 0


def test_newton_tolerance_closes_a_row_whose_residual_equals_it(monkeypatch):
    # A row is converged when every |residual| <= NEWTON_TOL min(M).  With
    # min(M) = 1/4 at L = 4, NEWTON_TOL = 4 r makes the tolerance exactly
    # r, the largest residual of the splitting guess of one coupled step
    # from a field with cells outside [0, 1]: the step is that guess, on
    # both routes.  A tolerance one ulp below r takes a Newton step.
    solver, eps, amplitude = solver_on(4, 16), 0.05, 7.0
    mass = solver.mass_diag
    assert mass.min() == 0.25
    start, d_w = np.linspace(-0.5, 1.5, 16), np.array([[0.3]])
    guess = np.tile(start, (1, 1, 1))
    bind(solver, guess, np.array([amplitude]), eps / (eps + solver.tau))(d_w.T)(0, 1)
    v, w = guess[0], noise(start, amplitude, 0.3)
    residual = (scheme.band_product(solver.band, v)
                + solver.tau * mass * ((v - np.clip(v, 0.0, 1.0)) / eps)) - mass * w
    r = np.max(np.abs(residual))
    assert r > 1e-3  # the penalty is active
    for tol, converged in ((r, True), (np.nextafter(r, 0.0), False)):
        monkeypatch.setattr(scheme, "NEWTON_TOL", 4.0 * tol)
        for _ in each_passes(monkeypatch):
            kernel = lone_kernel("coupled", amplitude, EpsilonSchedule.fixed(eps), solver)
            assert (step(kernel, start, 0.3).tobytes() == v.tobytes()) == converged


def test_newton_failure_is_the_earliest_failing_round_of_every_amplitude(monkeypatch):
    # Two Newton iterations allowed.  Stepped alone over 8 rounds, a = 12
    # fails in round 5, a = 7 and a = 3 in round 3 with smaller residuals,
    # a = 1 never.  Stacked in that order in one call, whose compiled rounds
    # take each group of rows through all its rounds in turn, the failure
    # is round 3's, its residual the larger of a = 7's and a = 3's, on both
    # routes.  So too within one amplitude: at a = 12, nine paths, the
    # first lane group the two rows four times over, whose row 0 fails in
    # round 5, and the second row 1 with the increments that give it its
    # noise at a = 7, which fails in round 3 with a smaller residual.
    monkeypatch.setattr(scheme, "NEWTON_MAX_ITER", 2)
    solver = solver_on(3, 16)
    rng = np.random.default_rng(51)
    start = rng.uniform(0.3, 0.7, (2, 9))
    d_w = rng.standard_normal((2, 8)) * 0.5
    amplitudes = (12.0, 7.0, 1.0, 3.0)

    def failure(amplitudes, start, d_w):
        """(round, residual) of the NumericalFailure of stepping all 8 rounds, or None."""
        kernel = StepKernel("coupled", amplitudes, EpsilonSchedule.fixed(0.05), solver,
                            len(start))
        n = 0
        try:
            for n, _ in kernel.run(start, d_w):
                pass
        except NumericalFailure as exc:
            assert str(exc) == "semismooth Newton did not converge in 2 iterations"
            return n + 1, exc.residual
        return None

    alone = {amplitude: failure((amplitude,), start, d_w) for amplitude in amplitudes}
    assert alone[1.0] is None and alone[12.0][0] == 5 and alone[7.0][0] == alone[3.0][0] == 3
    assert alone[12.0][1] > alone[7.0][1] > alone[3.0][1]
    rows = np.vstack([*[start] * 4, start[1]])
    rows_d_w = np.vstack([*[d_w] * 4, d_w[1] * (7 / 12)])
    groups = failure((12.0,), rows[:8], rows_d_w[:8]), failure((12.0,), rows[8:], rows_d_w[8:])
    assert groups[0] == alone[12.0] and groups[1][0] == 3 and groups[1][1] < groups[0][1]
    for _ in each_passes(monkeypatch):
        for amplitudes, start, d_w, expected in ((amplitudes, start, d_w, alone[7.0]),
                                                 ((12.0,), rows, rows_d_w, groups[1])):
            kernel = StepKernel("coupled", amplitudes, EpsilonSchedule.fixed(0.05), solver,
                                len(start))
            with pytest.raises(NumericalFailure, match="did not converge in 2") as failed:
                next(kernel.run(start, d_w, at=(8,)))
            assert failed.value.residual == expected[1]


def newton_solves(solver, rows):
    """The solves of the Newton iteration of a coupled step from each row alone, with a zero
    increment and eps = 0.05: calls of the oracle's ``solve_with_diagonal``."""
    eps = 0.05
    u = rows[None].copy()
    bind(solver, u, np.zeros(1), eps / (eps + solver.tau))(np.zeros((1, len(rows))))(0, 1)
    solves = []
    for v, noisy in zip(u[0], noise(rows, 0.0, 0.0)):
        calls = []
        with mock.patch.object(oracles, "solve_with_diagonal",
                               lambda *args: calls.append(1) or solve_with_diagonal(*args)):
            oracles.newton(solver, eps, scheme.NEWTON_MAX_ITER, v[None].copy(), noisy[None])
        solves.append(len(calls))
    return np.minimum(solves, 2)


@cache
def lane_pool(L):
    """A seeded pool of rows on the L x L mesh, by the Newton solves of their coupled step at
    tau = 1/16 with a zero increment (2: two or more): fields inside [0, 1] take none, shallow
    negative ones one, and small ones about 0 one to three."""
    solver, rng, d = solver_on(L, 16), np.random.default_rng(L), L * L
    pool = np.vstack([rng.uniform(0.3, 0.7, (6, d)), -rng.uniform(0.01, 0.03, (6, d)),
                      rng.uniform(-0.05, 0.05, (24, d))])
    solves = newton_solves(solver, pool)
    return [pool[solves == kind] for kind in range(3)]


def lane_rows(L, kinds):
    """Rows of ``lane_pool(L)`` whose coupled steps take kinds[i] solves (2: two or more)."""
    drawn = [iter(rows) for rows in lane_pool(L)]
    return np.array([next(drawn[kind]) for kind in kinds])


@pytest.mark.parametrize("L", [4, 9])
@pytest.mark.parametrize("rows", [1, 7, 8, 9, 17])
def test_newton_lane_groups_match_numpy_bitwise(monkeypatch, L, rows):
    # The compiled Newton iteration takes a stack's rows eight at a time, one
    # a vector lane, each lane stopping at its own convergence: 1, 7, 8, 9
    # and 17 rows (a partial group, a full one, a full one and one row, two
    # and one row) whose first coupled step takes 0, 1 and >= 2 solves in
    # turn, then two steps with noise, on a dense (L = 4) and a banded
    # (L = 9) solver.  Each state equals the numpy form's byte for byte.
    solver = solver_on(L, 16)
    kinds = [row % 3 for row in range(rows)]
    start = lane_rows(L, kinds)
    assert newton_solves(solver, start).tolist() == kinds
    d_w = np.random.default_rng(rows).standard_normal((rows, 3)) * 0.3
    d_w[:, 0] = 0.0
    got = []
    for _ in each_passes(monkeypatch):
        kernel = lone_kernel("coupled", 7.0, EpsilonSchedule.fixed(0.05), solver, rows)
        got.append(run_states(kernel, start, d_w))
    assert [state.tobytes() for state in got[0]] == [state.tobytes() for state in got[1]]


@pytest.mark.parametrize("L", [4, 9])
def test_a_row_at_the_iteration_cap_fails_its_lane_group_alike_on_both_routes(monkeypatch, L):
    # Two Newton iterations allowed: rows of 0 and 1 solves converge, and
    # row 3 of nine, which takes two or more, fails inside the full group of
    # eight whose other rows converge, beside a partial group of one.  At two
    # amplitudes, whose rows both fail in round 1, both routes raise the
    # failure of that round, the oracle's residual: the largest over the
    # failed rows of both amplitudes.
    solver = solver_on(L, 16)
    start = lane_rows(L, [0, 1, 0, 2, 1, 0, 1, 0, 1])
    monkeypatch.setattr(scheme, "NEWTON_MAX_ITER", 2)
    d_w = np.zeros((9, 2))
    failures = []
    for _ in each_passes(monkeypatch):
        kernel = StepKernel("coupled", (7.0, 3.0), EpsilonSchedule.fixed(0.05), solver, 9)
        with pytest.raises(NumericalFailure, match="did not converge in 2 iterations") as failed:
            next(kernel.run(start, d_w))
        failures.append(failed.value.residual)
    assert failures[0] == failures[1] > scheme.NEWTON_TOL * solver.mass_diag.min()


def chunked_yields(kernels, start, chunks, at=None):
    """(g, n, state bytes) of every yield, each chunk stepped kernel by kernel, as in run_block.

    A chunk holds one (p, k) increment block per kernel g (k may be 0), and
    ``at`` one tuple of named steps per kernel (None: every step).  From its
    first step on, a kernel resumes from its own buffer.
    """
    taken, got = [0] * len(kernels), []
    for incs in chunks:
        for g, (kernel, inc) in enumerate(zip(kernels, incs)):
            u = kernel.out if taken[g] else start
            got += [(g, n, state.tobytes()) for n, state in
                    kernel.run(u, inc, None if at is None else at[g], taken[g] + 1)]
            taken[g] += inc.shape[1]
    return got


@pytest.mark.parametrize("L", [3, 5, 8, 9])
@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
def test_ragged_stack_compiled_matches_numpy_bitwise(monkeypatch, L, variant):
    # Three step sizes by two amplitudes, one kernel per step size, each
    # taking its own number of steps in a chunk, as in run_block: 7, 3 and
    # 5 in the first chunk, 6, 6 and none in the second, which resumes from
    # each kernel's buffer.  Every yield of the compiled passes equals their
    # numpy form byte for byte.  The dense product sums 16 columns at a
    # time, then the columns left one by one: d = 9 is nine of them, d = 25
    # one block and nine, d = 64 four blocks; d = 81 is banded.
    solvers = [solver_on(L, n) for n in (40, 24, 16)]
    rng = np.random.default_rng(L)
    start = rng.uniform(-0.6, 1.6, (5, L * L))
    start[0, :3] = (-0.0, 5e-324, 1.0 + 2.0 ** -52)
    chunks = [[rng.standard_normal((5, k)) * 0.3 for k in counts]
              for counts in ((7, 3, 5), (6, 6, 0))]

    def yields():
        return chunked_yields([StepKernel(variant, (2.0, 9.0), EpsilonSchedule.fixed(0.05),
                                          solver, 5) for solver in solvers], start, chunks)

    compiled = yields()
    with numpy_route(monkeypatch) as calls:
        assert yields() == compiled
    assert calls["bind"] == 3  # one bind per kernel
    assert [(g, n) for g, n, _ in compiled] == ([(0, n) for n in range(1, 8)]
                                                + [(1, n) for n in range(1, 4)]
                                                + [(2, n) for n in range(1, 6)]
                                                + [(0, n) for n in range(8, 14)]
                                                + [(1, n) for n in range(4, 10)])


@pytest.mark.parametrize("variant, L, paths",
                         [("splitting", 4, 6), ("heat", 4, 6), ("splitting", 4, 1),
                          ("splitting", 1, 1), ("splitting", 1, 5), ("coupled", 4, 1),
                          ("splitting", 9, 6), ("heat", 9, 6), ("splitting", 16, 6),
                          ("heat", 16, 6)],
                         ids=["splitting", "heat", "splitting-one-path", "one-cell-one-path",
                              "one-cell", "coupled-one-path", "banded-9-splitting",
                              "banded-9-heat", "banded-16-splitting", "banded-16-heat"])
def test_one_call_rounds_match_rounds_one_by_one_and_numpy_bitwise(monkeypatch, variant, L,
                                                                     paths):
    # 3 step sizes (one kernel each) by 3 amplitudes (dense, d = 1 or 16)
    # or 2 (banded, d = 81 and 256) and 6 paths (1 or 5 where named).  The
    # kernels take 9, 5 and 7 steps in the first chunk and 8, 8 and none in
    # the second, which resumes from each kernel's buffer, and each names
    # steps in the middle of a chunk, as expectation checkpoints do, so that
    # a stretch of rounds in one call ends there.  Edge cells in the first
    # row (but with one cell): -0.0, 5e-324, 1 + 2^-52 and NaN, or 1.25 in
    # a lone row, which the NaN would fill, and in a coupled run; a second
    # row of -0.0 whose first increment is positive, so its noisy row is
    # -0.0.  The rounds in one call, the same rounds one call per round
    # (every step yielded) and their numpy form yield the same bytes.  Six
    # paths fill six lanes of a group and one path one lane, one cell one
    # column of the product; a coupled run of one path is the shape of
    # ``acfv validate``'s kernels.
    d = L * L
    solvers = [solver_on(L, n) for n in (40, 24, 16)]
    amplitudes = (0.0, 2.0, 9.0) if d <= DENSE_LIMIT else (2.0, 9.0)
    rng = np.random.default_rng(4)
    start = rng.uniform(-0.6, 1.6, (6, d))
    if d > 1:  # a NaN cell only beside other rows, and not in a coupled run's Newton iteration
        nan = np.nan if paths > 1 and variant != "coupled" else 1.25
        start[0, :4] = (-0.0, 5e-324, 1.0 + 2.0 ** -52, nan)
    start[1] = -0.0
    chunks = [[rng.standard_normal((6, k)) * 0.3 for k in counts]
              for counts in ((9, 5, 7), (8, 8, 0))]
    for inc in chunks[0]:
        inc[1, 0] = 0.25
    start, chunks = start[:paths], [[inc[:paths] for inc in chunk] for chunk in chunks]
    at = ((3, 7, 12, 17), (2, 9, 13), (4, 11))

    def yields(at):
        kernels = [StepKernel(variant, amplitudes, EpsilonSchedule.fixed(0.05), solver, paths)
                   for solver in solvers]
        got = chunked_yields(kernels, start, chunks, at)
        return got, b"".join(kernel.out.tobytes() for kernel in kernels)

    one_call = yields(at)
    every, final = yields(None)
    one_by_one = [(g, n, state) for g, n, state in every if n in at[g]], final
    with numpy_route(monkeypatch):
        assert yields(at) == one_by_one == one_call
    assert [(g, n) for g, n, _ in one_call[0]] == [(0, 3), (0, 7), (1, 2), (2, 4), (0, 12),
                                                   (0, 17), (1, 9), (1, 13)]


@pytest.mark.parametrize("L", [4, 9])
@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
def test_rows_of_every_magnitude_match_numpy_bitwise(monkeypatch, L, variant):
    # The compiled rounds group the rows into lanes by the exponent of
    # their largest cell, so that rows sinking toward the subnormal range
    # share their groups: rows of ordinary size interleaved with rows scaled
    # to 1e-200, 1e-300 and 1e-310 (subnormal), zeros, -0.0 and, but in a
    # coupled run, 1e100 and rows with a NaN or an inf cell.  Four rounds
    # in one call at two amplitudes, on a dense (L = 4) and a banded (L = 9)
    # solver, equal the numpy form's bytes.
    d = L * L
    scales = [1.0, 1e-300, 1e-310, 1e-200, 0.0, 1.0, 1e-310, 1.0, 1e-300]
    if variant != "coupled":
        scales += [1e100, 1.0, 1.0]
    rng = np.random.default_rng(L)
    start = rng.uniform(-0.6, 1.6, (len(scales), d)) * np.array(scales)[:, None]
    start[7] = -0.0
    if variant != "coupled":
        start[-2, 0], start[-1, 0] = np.nan, np.inf
    d_w = rng.standard_normal((len(scales), 4)) * 0.3
    got = []
    for _ in each_passes(monkeypatch):
        kernel = StepKernel(variant, (2.0, 9.0), EpsilonSchedule.fixed(0.05), solver_on(L, 16),
                            len(scales))
        got.append([state.tobytes() for _, state in kernel.run(start, d_w, at=(2, 4))])
    assert got[0] == got[1]


def test_resolvent_clip_serves_the_next_noise_bitwise():
    # Called for two rounds at once, the numpy form takes round 1's noise on
    # the clip of round 0's resolvent input; called round by round, it clips
    # the resolvent's output again, as the compiled rounds do in every round.
    # The banded product keeps a row of -0.0 (zero increments) at -0.0,
    # where the two clips differ (-0.0 in, +0.0 out); those cells and the
    # other edge cells give the same states on all three.
    solver = solver_on(9, 16)
    rng = np.random.default_rng(5)
    u = rng.uniform(-0.6, 1.6, (2, 3, 81))
    u[0, 0, :8] = (-0.0, 5e-324, -5e-324, 1.0 + 2.0 ** -52, np.nan, np.inf, -np.inf, 1.0)
    u[:, 2] = -0.0
    d_w = rng.standard_normal((2, 3))
    d_w[:, 2] = 0.0
    assert np.signbit(solver.apply_markov(u[:, 2])).any()  # a -0.0 into the resolvent
    args = (np.array([0.0, 7.0]), 0.25)
    compiled, one_call, by_round = u.copy(), u.copy(), u.copy()
    scheme._bind(solver, compiled, *args)(d_w)(0, 2)
    bind(solver, one_call, *args)(d_w)(0, 2)
    rounds = bind(solver, by_round, *args)(d_w)
    rounds(0, 1)
    rounds(1, 2)
    assert compiled.tobytes() == one_call.tobytes() == by_round.tobytes()


def test_kernel_stack_shapes_and_round_yields():
    # One kernel per step size, A amplitudes by p paths; a kernel may take
    # no step, and each has its own first step and named steps.
    epsilon = EpsilonSchedule.fixed(0.05)
    kernels = [StepKernel("splitting", (1.0, 5.0), epsilon, solver_on(2, n), 3)
               for n in (8, 4, 2)]
    assert [kernel.out.shape for kernel in kernels] == [(2, 3, 4)] * 3
    assert [kernel.tau for kernel in kernels] == [1 / 8, 1 / 4, 1 / 2]
    assert [kernel.eps for kernel in kernels] == [0.05] * 3
    assert kernels[0].amplitude == (1.0, 5.0)
    assert StepKernel("heat", (1.0,), epsilon, solver_on(2, 8), 1).out.shape == (1, 1, 4)
    with pytest.raises(ValueError, match="amplitude"):
        StepKernel("heat", 1.0, epsilon, solver_on(2, 8), 1)
    for wrong in (np.zeros((2, 2)), np.zeros(3), np.zeros((3, 2, 1))):
        with pytest.raises(ValueError, match="a block of 3 rows"):
            next(kernels[0].run(0.5, wrong))
    inc = [np.full((3, 4), 0.1), np.empty((3, 0)), np.full((3, 2), -0.1)]
    taken = [(g, n, state.shape)
             for g, (kernel, steps, at, first) in enumerate(zip(kernels, inc, (None, None, (6,)),
                                                                 (1, 3, 5)))
             for n, state in kernel.run(np.full(4, 0.5), steps, at, first)]
    assert taken == [(0, 1, (2, 3, 4)), (0, 2, (2, 3, 4)), (0, 3, (2, 3, 4)),
                     (0, 4, (2, 3, 4)), (2, 6, (2, 3, 4))]
    np.testing.assert_array_equal(kernels[1].out, 0.5)  # no step: still the start


def test_a_gap_kernel_steps_its_twin_as_a_splitting_kernel_would():
    # Only a coupled kernel takes gaps, an (A, p, N) float array whose steps
    # lie next to each other.  Its twin then ends, byte for byte, where a
    # splitting kernel of the same stack does, and its own states where a
    # coupled kernel's do, over a run that resumes once.
    epsilon, solver, amplitudes = EpsilonSchedule.fixed(0.05), solver_on(3, 16), (7.0, 2.0)
    for variant in ("splitting", "heat"):
        with pytest.raises(ValueError, match="a coupled kernel writes the gaps"):
            StepKernel(variant, amplitudes, epsilon, solver, 5, gaps=np.empty((2, 5, 16)))
    for wrong in (np.empty((1, 5, 16)), np.empty((2, 4, 16)), np.empty((2, 5)),
                  np.empty((2, 5, 16), dtype=np.float32), np.empty((2, 5, 32))[:, :, ::2]):
        with pytest.raises(ValueError, match="a coupled kernel writes the gaps"):
            StepKernel("coupled", amplitudes, epsilon, solver, 5, gaps=wrong)
    gaps = np.empty((2, 5, 16))
    paired = StepKernel("coupled", amplitudes, epsilon, solver, 5, gaps=gaps)
    assert paired.twin.shape == paired.out.shape == (2, 5, 9)
    with pytest.raises(ValueError, match="the gaps hold 16 steps"):
        next(paired.run(0.5, np.zeros((5, 17))))
    coupled, splitting = (StepKernel(variant, amplitudes, epsilon, solver, 5)
                          for variant in ("coupled", "splitting"))
    start = np.linspace(-0.4, 1.3, 9)  # the penalty is active from the first step
    d_w = np.random.default_rng(4).normal(0.0, 0.25, (5, 16))
    for kernel in (paired, coupled, splitting):
        assert list(kernel.run(start, d_w[:, :6], at=())) == []
        assert list(kernel.run(kernel.out, d_w[:, 6:], at=(), first=7)) == []
    assert paired.twin.tobytes() == splitting.out.tobytes()
    assert paired.out.tobytes() == coupled.out.tobytes()
    np.testing.assert_array_equal(gaps[:, :, -1],
                                  np.abs(coupled.out - splitting.out).max(axis=2))


def per_run_oracle(config, start, paths, n_steps, amplitude, variant):
    """The state bytes after each step of one (N, a) run stepped alone by the plain formulas.

    Its increments are reshape sums of the fine path, exact on the lattice.
    """
    mesh = build_uniform_mesh(config.cells_per_axis)
    solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh),
                           config.horizon / n_steps)
    params = SimpleNamespace(amplitude=amplitude, tau=solver.tau,
                             eps=config.epsilon.value(solver.tau))
    fine = sample_increment_block(config.seed, paths, config.horizon, config.resolved_n_fine())
    inc = fine.reshape(len(paths), n_steps, -1).sum(axis=2)
    u, states = np.tile(start, (len(paths), 1)), []
    for n in range(n_steps):
        u = ORACLES[variant](u, inc[:, n], params, solver)
        states.append(u.tobytes())
    return states


@pytest.mark.parametrize("L", [3, 9])
def test_block_stack_matches_per_run_oracle_bitwise(monkeypatch, L):
    # One kernel per N steps every amplitude's run of the block, a block per
    # variant; each run must still be its own run, byte for byte, on the
    # dense (d = 9) and the banded (d = 81) solver.  In chunks of 7 fine steps, no
    # coarse N steps in the first chunk; N = 6 and N = 4 step in the third
    # and N = 5 does not, N = 5 and N = 4 in the seventh and N = 6 does not;
    # every run resumes eight times.
    assert (L * L > DENSE_LIMIT) == (L == 9)
    n_fine, ladder, chunk = 60, (6, 5, 4), 7
    monkeypatch.setattr(experiments, "CHUNK", chunk)
    counts = [sorted(coarse) for coarse in coarse_chunks(
        [np.zeros((1, min(chunk, n_fine - lo))) for lo in range(0, n_fine, chunk)],
        n_fine, ladder)]
    assert [counts[i] for i in (0, 2, 6)] == [[], [4, 6], [4, 5]]
    config = StudyConfig(cells_per_axis=L, n_fine=n_fine, n_steps_list=ladder, n_paths=4,
                         amplitudes=(1.0, 9.0), epsilon=EpsilonSchedule.power(0.1, 0.4),
                         seed=3).validate()
    start = np.linspace(-0.4, 1.3, L * L)  # the penalty is active at once
    paths = range(2, 6)
    for variant in ("splitting", "heat", "coupled"):
        _, _, runs = experiments.run_block(config, start, paths,
                                           dict.fromkeys((n_fine, *ladder)), variant)
        got = {}
        for k, n_steps, n, state in runs:
            got.setdefault((k, n_steps), []).append((n, state.tobytes()))
        for k, amplitude in enumerate(config.amplitudes):
            for n_steps in (n_fine, *ladder):
                oracle = per_run_oracle(config, start, paths, n_steps, amplitude, variant)
                assert got[k, n_steps] == list(enumerate(oracle, 1)), \
                    (variant, amplitude, n_steps)


def test_trajectory_history_and_validation():
    # One step per increment column, and the final state alone on request.
    u0, solver = benchmark_setup(4)
    kernel = benchmark_kernel("splitting", solver)
    history = [(n, state.copy()) for n, state in kernel.run(u0, QUARTERS[None])]
    assert [n for n, _ in history] == [1, 2, 3, 4]
    [(n, final)] = kernel.run(u0, QUARTERS[None], at=(4,))
    assert n == 4 and final.tobytes() == history[-1][1].tobytes()
    assert [n for n, _ in kernel.run(u0, QUARTERS[None, :3])] == [1, 2, 3]


def test_constant_start_stays_constant_along_noisy_trajectory():
    solver = solver_on(4, 12)
    kernel = lone_kernel("splitting", 9.0, EpsilonSchedule.fixed(0.02), solver)
    inc = np.random.default_rng(14).standard_normal(12) * np.sqrt(solver.tau)
    for state in run_states(kernel, np.full(16, 0.58), inc):
        assert state.max() - state.min() <= 1e-10


def test_zero_noise_constant_trajectory():
    kernel = lone_kernel("splitting", 0.0, EpsilonSchedule.fixed(0.1), solver_on(3, 5))
    for state in run_states(kernel, np.full(9, 0.42), np.zeros(5)):
        np.testing.assert_allclose(state, 0.42, atol=1e-13)


def test_trajectory_csv_dump():
    # simulate's trajectory.csv: step 0 is the start field.
    u0, solver = benchmark_setup(2)
    states = [state[0] for state in run_states(benchmark_kernel("splitting", solver), u0, HALVES)]
    buf = io.StringIO()
    write_states_csv(buf, [u0] + states, first_step=0)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,cell_index,value"
    assert len(lines) == 1 + 3 * 4
    n, cell, value = lines[1].split(",")
    assert (n, cell) == ("0", "0")
    assert float(value) == u0[0]
    assert lines[-1] == f"2,3,{states[-1][3]:.17g}"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(L=st.integers(1, 10), paths=st.integers(2, 9), variant=st.sampled_from(["splitting", "heat"]),
       n_steps=st.sampled_from([8, 64, 40320]),
       amplitude=st.one_of(st.just(0.0), st.floats(0.01, 40.0)), seed=st.integers(0, 2 ** 32 - 1))
def test_step_map_is_monotone(L, paths, variant, n_steps, amplitude, seed):
    # u <= v gives S(u) <= S(v), cell by cell, for a splitting or heat step
    # with a |dW| <= 1, dense and banded (L = 9, 10), v = u or u plus a
    # random amount or one ulp in each cell.  The heat product and the
    # resolvent are monotone in floating point: rounding is monotone, the
    # propagator is nonnegative and the band factor's off-diagonal entries
    # are not positive.  So is the noise term's exact map, whose slope is
    # 1 - a dW (1 - 2c) >= 0, but its rounding is not: two cells one ulp
    # apart may swap by an ulp of w, which the product carries on.  With
    # a = 0, so no noise, S(u) - S(v) is at most 0.  Else the gate, 2^-52
    # (an ulp of a noisy value in [1, 2)), is a measured one, not a proven
    # bound: over 6000 random draws S(u) - S(v) reached 2^-52 only where
    # cells were one ulp apart and stayed at 0 elsewhere.  The draws are
    # derandomized, so every run checks the same examples.
    rng = np.random.default_rng(seed)
    solver = solver_on(L, n_steps)
    u = rng.uniform(-0.5, 1.5, (paths, L * L))
    moved = rng.random(u.shape)
    v = np.where(moved < 0.3, u + rng.exponential(0.05, u.shape),
                 np.where(moved < 0.6, np.nextafter(u, np.inf), u))
    d_w = rng.uniform(-1.0, 1.0, paths) / amplitude if amplitude else rng.standard_normal(paths)
    kernel = lone_kernel(variant, amplitude, EpsilonSchedule.fixed(0.05), solver, paths)
    s_u = step(kernel, u, d_w).copy()
    assert (s_u - step(kernel, v, d_w)).max() <= (2.0 ** -52 if amplitude else 0.0)

"""Monte Carlo studies: configs, oracles, determinism and CSV output."""

import concurrent.futures
import io
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from acfv import cli, experiments, scheme
from acfv.config import preset_config
from acfv.errors import ConfigError, NumericalFailure
from acfv.experiments import (PATH_BLOCK, ErrorCurve, StudyConfig, _fit_loglog,
                              _mean_errors, convergence_study, expectation_study,
                              format_float, run_block, splitting_error_study,
                              write_error_csv, write_expectation_csv, write_fit_csv)
from acfv.scheme import EpsilonSchedule
from acfv.stochastic import MAX_FINE_STEPS
from oracles import numpy_route


def small_config(**overrides):
    base = dict(cells_per_axis=3, n_steps=16, n_fine=16, n_paths=8,
                amplitudes=(2.0,), checkpoints=(2, 16), seed=5)
    base.update(overrides)
    return StudyConfig(**base).validate()


def test_config_validation_errors(tmp_path, capsys):
    with pytest.raises(ConfigError):
        small_config(n_steps=12, n_fine=16)           # 12 does not divide 16
    with pytest.raises(ConfigError):
        small_config(n_paths=0)
    with pytest.raises(ConfigError):
        small_config(variant="magic")
    with pytest.raises(ConfigError):
        small_config(checkpoints=(20,))               # past the final step
    with pytest.raises(ConfigError):
        small_config(amplitudes=(-1.0,))
    with pytest.raises(ConfigError):
        StudyConfig(n_paths=3).validate()             # no step counts at all
    # L_max (a reference resolution that could only equal L) is gone.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 3\nL_max = 3\nN = 8\nN_p = 2\n")
    assert cli.main(["expectation", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown key 'L_max'" in capsys.readouterr().err


def test_initial_mean_is_exact():
    [result] = expectation_study(small_config(cells_per_axis=5, amplitudes=(0.0,),
                                              checkpoints=(2,)))
    assert result.initial_mean == pytest.approx(0.29333333, abs=1e-7)


def test_zero_amplitude_conserves_mean():
    results = expectation_study(small_config(amplitudes=(0.0,)))
    assert len(results) == 2
    for r in results:
        assert r.drift <= 1e-9


def test_heat_drift_is_within_3_standard_errors_at_desk_size():
    # Without the resolvent the mass-weighted mean is a martingale: P keeps
    # 1'M x and the noise has conditional mean 0, so E[mean_M u_n] =
    # mean_M u_0 exactly.  At the desk expectation size, seeds 0-7, every
    # (a, n) of the heat run reads its drift within 3 standard errors of 0,
    # the errors from the per-path spatial means (the mesh is uniform, so
    # these are the mass-weighted means): 96 of 96, the largest |z| 2.60.
    desk = replace(preset_config("expectation", "desk"), variant="heat")
    z = []
    for seed in range(8):
        config = replace(desk, seed=seed)
        _, u0, runs = run_block(config, None, range(config.n_paths),
                                {config.n_steps: config.checkpoints}, "heat")
        for _, _, _, states in runs:
            means = states.mean(axis=1)
            z.append((means.mean() - u0.mean()) / (means.std(ddof=1) / np.sqrt(len(means))))
    assert len(z) == 8 * 4 * 3
    assert np.abs(z).max() <= 3.0, np.abs(z).max()


def test_checkpoint_states_are_not_overwritten_by_later_steps():
    # The block runner hands out step buffers that the next step
    # overwrites; every kept checkpoint must still hold its own step.
    config = small_config(n_steps=8, n_fine=8, n_paths=10, checkpoints=(2, 4, 8),
                          amplitudes=(0.5, 4.0))
    together = expectation_study(config)
    alone = {(r.amplitude, r.checkpoint): r for n in (2, 4, 8)
             for r in expectation_study(replace(config, checkpoints=(n,)))}
    assert sorted(alone) == [(r.amplitude, r.checkpoint) for r in together]
    for r in together:
        np.testing.assert_array_equal(r.cell_means, alone[r.amplitude, r.checkpoint].cell_means)
        assert r.mean == alone[r.amplitude, r.checkpoint].mean
    assert len({r.mean for r in together if r.amplitude == 4.0}) == 3


@pytest.mark.parametrize("variant", ["splitting", "heat", "coupled"])
def test_block_runner_yields_exactly_the_steps_asked_for(variant):
    config = small_config(n_steps=None, n_fine=64, n_steps_list=(16, 64), checkpoints=(),
                          epsilon=EpsilonSchedule.fixed(0.05), amplitudes=(7.0, 2.0))
    start = np.linspace(-0.4, 1.3, 9)  # the penalty is active from the first step

    def collect(at, gaps=None):
        _, _, runs = run_block(config, start, range(3, 8), at, variant, gaps)
        return {(k, n_steps, n): state.tobytes() for k, n_steps, n, state in runs}

    # The one chunk takes the steps of N = 64, then those of N = 16, each
    # at every amplitude in turn.
    every = collect(dict.fromkeys((16, 64)))
    assert list(every) == [(k, n_steps, n) for n_steps in (64, 16) for n in range(1, n_steps + 1)
                           for k in (0, 1)]
    assert every[0, 64, 64] != every[1, 64, 64]
    if variant == "coupled":  # a splitting twin beside the coupled run leaves it as it is
        gaps = {n: np.empty((2, 5, n)) for n in (16, 64)}
        assert collect(dict.fromkeys((16, 64)), gaps) == every
    some = collect({64: (1, 30), 16: (16,)})
    assert list(some) == [(0, 64, 1), (1, 64, 1), (0, 64, 30), (1, 64, 30),
                          (0, 16, 16), (1, 16, 16)]
    for key, states in some.items():
        assert states == every[key]


@pytest.mark.parametrize("L", [4, 9])
@pytest.mark.parametrize("variant", ["splitting", "coupled", "heat"])
def test_a_path_steps_to_the_same_bytes_alone_and_in_a_block(variant, L):
    # Each row takes a vector lane of its own, so the rows that share its
    # block (19 paths: three lane groups, the last of three rows) leave its
    # bytes as they are, with the dense (d = 16) and the banded (d = 81)
    # heat product.
    config = small_config(cells_per_axis=L, n_steps=None, n_fine=64, n_steps_list=(16, 64),
                          checkpoints=(), epsilon=EpsilonSchedule.fixed(0.05),
                          amplitudes=(7.0, 60.0))
    start = np.linspace(-0.4, 1.3, L * L)  # the penalty is active from the first step

    def path_5(paths):
        _, _, runs = run_block(config, start, paths, dict.fromkeys((16, 64)), variant)
        return {(k, n_steps, n): state[5 - paths.start].tobytes()
                for k, n_steps, n, state in runs}

    alone = path_5(range(5, 6))
    assert len(alone) == 2 * (16 + 64)
    assert path_5(range(19)) == alone


def test_results_do_not_depend_on_the_chunk_length(monkeypatch):
    # Coarse steps span chunk edges (N = 8 steps over 45 fine ones); every
    # per-path error and gap, and every yielded step, keeps its bits.
    config = small_config(n_steps=None, n_fine=360, n_steps_list=(8, 24, 45, 120),
                          checkpoints=(), epsilon=EpsilonSchedule.fixed(0.05),
                          amplitudes=(1.0, 30.0), n_paths=5)
    start = np.linspace(-0.4, 1.3, 9)
    at = {360: (1, 200, 360), 8: None, 45: (7, 45)}

    def outputs():
        steps = {}
        for variant in ("splitting", "coupled"):
            _, _, runs = run_block(config, start, range(2, 5), at, variant)
            steps.update({(variant, k, n_steps, n): state.tobytes()
                          for k, n_steps, n, state in runs})
        errors = experiments._error_block(config, (8, 24, 45, 120), start, 0, 5)
        gaps = experiments._splitting_gap_block(replace(config, amplitudes=(30.0,)),
                                                (8, 45), start, 0, 5)
        return steps, errors.tobytes(), [gaps[n].tobytes() for n in (8, 45)]

    reference = outputs()
    for chunk in (1, 7, 64, 360):
        monkeypatch.setattr(experiments, "CHUNK", chunk)
        assert outputs() == reference


# What a convergence block may hold besides its buffers: the mesh, the
# operators and solvers, the per-path errors and the Python objects of the
# run, measured at 24-52 KiB at 64 paths on a 2 x 2 mesh.
BLOCK_SLACK = 96 * 1024


def block_bound(config):
    """Bytes a convergence block of ``config.n_paths`` paths may trace at its peak.

    One chunk of its fine increments, each summed step count's coarse
    increments of a chunk, the state stacks of its kernels (one per step
    count, N_max too) and BLOCK_SLACK: nothing that grows with the path
    length.
    """
    n_fine, d = config.resolved_n_fine(), config.cells_per_axis ** 2
    chunk = min(experiments.CHUNK, n_fine)
    coarse = sum((chunk - 1) // (n_fine // n) + 1 for n in config.n_steps_list if n < n_fine)
    stacks = len(config.amplitudes) * (1 + len(config.n_steps_list)) * d
    return 8 * config.n_paths * (chunk + coarse + stacks) + BLOCK_SLACK


def test_a_convergence_block_holds_no_whole_path():
    # The block's increments alone take 64 n_fine 8 bytes; streamed through
    # buffers made once per block, its traced peak stays within one chunk,
    # the chunk's coarse increments and the kernels' stacks, plus the
    # slack: the same bound at two path lengths, as the step counts keep
    # their ratios.  A block that allocates each chunk and its ladder anew,
    # and builds the next while the last is held, exceeds it.
    paths = 64
    configs = [StudyConfig(cells_per_axis=2, n_fine=n, n_steps_list=(n // 2048, n // 4),
                           n_paths=paths).validate() for n in (2 ** 15, 2 ** 17)]
    bound = block_bound(configs[0])
    assert block_bound(configs[1]) == bound
    experiments._error_block(configs[0], configs[0].n_steps_list, None, 0, 2)  # warm
    for config in configs:
        tracemalloc.start()
        try:
            experiments._error_block(config, config.n_steps_list, None, 0, paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (config.n_fine, peak, bound)


def test_n_max_is_bounded_by_exact_path_sums():
    assert StudyConfig(n_fine=MAX_FINE_STEPS).validate().resolved_n_fine() == 505337
    with pytest.raises(ConfigError, match="N_max must be in 1..505337"):
        StudyConfig(n_fine=MAX_FINE_STEPS + 1).validate()


def test_a_block_samples_and_factors_once_for_all_amplitudes(monkeypatch):
    # Two path blocks, three amplitudes: each block streams its increments
    # once and one solver is factored per (block, N).
    calls = {"sample": 0, "solver": 0}
    sample, solver = experiments.increment_chunks, experiments.ShiftedSolver

    def counting_sample(*args):
        calls["sample"] += 1
        return sample(*args)

    def counting_solver(*args):
        calls["solver"] += 1
        return solver(*args)

    monkeypatch.setattr(experiments, "increment_chunks", counting_sample)
    monkeypatch.setattr(experiments, "ShiftedSolver", counting_solver)
    config = StudyConfig(cells_per_axis=2, n_fine=16, n_steps_list=(4, 8),
                         n_paths=PATH_BLOCK + 3, amplitudes=(1.0, 3.0, 10.0)).validate()
    assert len(convergence_study(config)) == 3
    assert calls == {"sample": 2, "solver": 2 * 3}  # N = 16, 4 and 8

    calls.update(sample=0, solver=0)
    config = replace(config, n_steps=16, n_steps_list=(), checkpoints=(2, 16))
    assert len(expectation_study(config)) == 3 * 2
    assert calls == {"sample": 2, "solver": 2}


def test_expectation_study_shape_and_order():
    config = small_config(amplitudes=(0.0, 2.0), checkpoints=(4, 16))
    results = expectation_study(config)
    assert [(r.amplitude, r.checkpoint) for r in results] == [
        (0.0, 4), (0.0, 16), (2.0, 4), (2.0, 16)]
    for r in results:
        assert r.cell_means.shape == (9,)
        assert r.mean == pytest.approx(r.cell_means.mean(), rel=1e-15)


def test_mean_error_zero_at_fine_resolution():
    [errors] = _mean_errors(small_config(), [16], None)
    assert errors.tolist() == [0.0]


def test_mean_error_zero_noise_constant_state():
    config = small_config(epsilon=EpsilonSchedule.fixed(0.05), amplitudes=(0.0,))
    [errors] = _mean_errors(config, [4], np.full(9, 0.37))
    assert errors[0] <= 1e-12


def test_errors_decrease_with_refinement():
    config = StudyConfig(cells_per_axis=4, n_fine=512,
                         n_steps_list=(8, 32, 128), n_paths=64,
                         amplitudes=(1.0,), seed=3).validate()
    curves = convergence_study(config)
    errors = curves[0].errors
    assert errors[0] > errors[1] > errors[2] > 0


def test_fit_exact_power_laws():
    taus = np.array([0.5, 0.25, 0.125, 0.0625])
    assert _fit_loglog(taus, 3.0 * taus) == pytest.approx((1.0, np.log(3.0)), abs=1e-12)
    assert _fit_loglog(taus, 5.0 * taus ** 2) == pytest.approx((2.0, np.log(5.0)), abs=1e-12)
    # scaling the errors moves the intercept, never the slope
    assert _fit_loglog(taus, 700.0 * taus)[0] == pytest.approx(1.0, abs=1e-12)


def test_fit_agrees_with_polyfit_on_random_ladders():
    # np.polyfit (LAPACK's least squares) is the oracle of the closed form.
    rng = np.random.default_rng(7)
    for _ in range(200):
        n_list = np.unique(rng.integers(1, 50000, size=rng.integers(2, 16)))
        if len(n_list) < 2:
            continue
        taus = rng.uniform(0.5, 4.0) / n_list
        errors = rng.uniform(1e-3, 1e3) * taus ** rng.uniform(0.1, 2.5) * np.exp(
            rng.normal(0.0, 0.3, size=len(taus)))
        oracle = np.polyfit(np.log(taus), np.log(errors), 1)
        assert _fit_loglog(taus, errors) == pytest.approx(tuple(oracle), rel=1e-12)


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        _fit_loglog([0.5], [1.0])
    with pytest.raises(ValueError):
        _fit_loglog([0.5, 0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        _fit_loglog([0.5, 0.25], [1.0, 0.0])


@pytest.mark.parametrize("L", [4, 9])
@pytest.mark.parametrize("paths", [16, 257])
def test_gap_blocks_match_their_per_step_numpy_form_bitwise(monkeypatch, L, paths):
    # One block (16 paths) and two (257, the second of one path), dense
    # (L = 4) and banded (L = 9), in chunks of 8 fine steps: the compiled
    # rounds step both methods and take the gaps in one call per block,
    # chunk and step count, and their numpy form, which steps round by round
    # and takes each step's gap in numpy, gives the same bytes.
    monkeypatch.setattr(experiments, "CHUNK", 8)
    config = StudyConfig(cells_per_axis=L, n_fine=16, n_steps_list=(4, 16), n_paths=paths,
                         amplitudes=(10.0,), epsilon=EpsilonSchedule.fixed(0.05),
                         seed=3).validate()
    start = np.linspace(-0.4, 1.3, L * L)

    def gaps():
        blocks = experiments._map_blocks(experiments._splitting_gap_block, config,
                                         ((4, 16), start), 1)
        return [block[n].tobytes() for block in blocks for n in (4, 16)]

    lib, calls = scheme.compiled_library(), []
    rounds = lib.acfv_rounds
    with monkeypatch.context() as patched:
        patched.setattr(lib, "acfv_rounds", lambda *args: calls.append(1) or rounds(*args))
        compiled = gaps()
    assert len(calls) == len(range(0, paths, PATH_BLOCK)) * 2 * 2  # blocks, chunks, N
    with numpy_route(monkeypatch) as numpy_calls:
        assert gaps() == compiled
    assert numpy_calls["bind"]


def test_splitting_gap_zero_for_quiet_constant_state():
    config = StudyConfig(cells_per_axis=3, n_fine=16, n_steps_list=(4, 8),
                         n_paths=4, amplitudes=(0.0,),
                         epsilon=EpsilonSchedule.fixed(0.05), seed=1).validate()
    # Both methods agree exactly, so the gap has no log-log fit.
    with pytest.raises(NumericalFailure, match="error 0 at a=0, N=4"):
        splitting_error_study(config, initial_state=np.full(9, 0.4))


def test_splitting_gap_positive_on_active_states():
    # A non-constant trapped state keeps the penalty and the diffusion
    # both active, so the two methods genuinely differ.
    start = -np.linspace(0.2, 1.0, 4)
    config = StudyConfig(cells_per_axis=2, n_fine=64, n_steps_list=(32, 64),
                         n_paths=8, amplitudes=(10.0,),
                         epsilon=EpsilonSchedule.fixed(0.05), seed=2).validate()
    assert min(splitting_error_study(config, initial_state=start).errors) > 0


def test_non_finite_states_fail_loudly():
    start = np.full(9, 0.4)
    start[4] = np.nan
    config = StudyConfig(cells_per_axis=3, n_fine=16, n_steps_list=(8, 16),
                         n_paths=3, amplitudes=(2.0,),
                         epsilon=EpsilonSchedule.fixed(0.05), seed=1).validate()
    with pytest.raises(NumericalFailure, match="a=2, N=16, path 0"):
        convergence_study(config, initial_state=start)
    with pytest.raises(NumericalFailure):
        splitting_error_study(config, initial_state=start)


def test_a_non_finite_twin_state_fails_loudly(monkeypatch):
    # A gap run yields no step, so the final check alone sees the splitting
    # twins' states: a non-finite one is named by a, N and its path, the
    # step counts checked in the order ``at`` gives them.
    class PoisonedTwin(scheme.StepKernel):
        def run(self, *args, **kwargs):
            yield from super().run(*args, **kwargs)
            self.twin[0, 1, 4] = np.nan

    monkeypatch.setattr(experiments, "StepKernel", PoisonedTwin)
    config = StudyConfig(cells_per_axis=3, n_fine=16, n_steps_list=(8, 16), n_paths=3,
                         amplitudes=(2.0,), epsilon=EpsilonSchedule.fixed(0.05),
                         seed=1).validate()
    gaps = {n: np.empty((1, 3, n)) for n in (8, 16)}
    _, _, runs = run_block(config, None, range(4, 7), {8: (), 16: ()}, "coupled", gaps)
    with pytest.raises(NumericalFailure, match="non-finite state at a=2, N=8, path 5"):
        list(runs)


def test_splitting_error_study_needs_fixed_eps():
    config = StudyConfig(cells_per_axis=2, n_fine=16, n_steps_list=(8, 16),
                         n_paths=2, amplitudes=(1.0,),
                         epsilon=EpsilonSchedule.power(0.1, 0.4)).validate()
    with pytest.raises(ConfigError):
        splitting_error_study(config)


def test_splitting_error_study_runs_one_amplitude_over_two_step_counts():
    config = StudyConfig(cells_per_axis=2, n_fine=16, n_steps_list=(8, 16), n_paths=2,
                         amplitudes=(1.0, 2.0), epsilon=EpsilonSchedule.fixed(0.05))
    with pytest.raises(ConfigError, match="one amplitude at a time"):
        splitting_error_study(config)
    with pytest.raises(ConfigError, match="at least two entries in N_list"):
        splitting_error_study(replace(config, n_steps_list=(8,), amplitudes=(1.0,)))
    with pytest.raises(ConfigError, match="'T' must be positive"):
        splitting_error_study(replace(config, horizon=0.0, amplitudes=(1.0,)))


def test_study_results_are_reproducible():
    config = small_config(n_paths=20, n_steps_list=(4, 8))
    [first], [second] = convergence_study(config), convergence_study(config)
    np.testing.assert_array_equal(first.errors, second.errors)
    config = replace(config, checkpoints=(16,))
    [r1], [r2] = expectation_study(config), expectation_study(config)
    np.testing.assert_array_equal(r1.cell_means, r2.cell_means)


def test_workers_do_not_change_results():
    # More paths than one block, so the pool actually distributes work.
    config = StudyConfig(cells_per_axis=2, n_fine=32, n_steps_list=(8, 16),
                         n_paths=600, amplitudes=(3.0,), seed=9).validate()
    serial = convergence_study(config, workers=1)[0]
    parallel = convergence_study(config, workers=2)[0]
    np.testing.assert_array_equal(serial.errors, parallel.errors)
    assert serial.slope == parallel.slope


def test_worker_pool_holds_at_most_one_worker_per_block(monkeypatch):
    # A stand-in pool records its size and runs each call in this process,
    # so no worker process starts; _map_blocks imports the pool class from
    # concurrent.futures only when it opens one.
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = StudyConfig(cells_per_axis=2, n_fine=8, n_steps_list=(4,),
                         n_paths=2 * PATH_BLOCK + 1, amplitudes=(1.0,)).validate()
    blocks = [(0, PATH_BLOCK), (PATH_BLOCK, 2 * PATH_BLOCK), (2 * PATH_BLOCK, 2 * PATH_BLOCK + 1)]

    def block(config, lo, hi):
        return lo, hi

    for workers, pool in ((64, 3), (2, 2)):
        assert experiments._map_blocks(block, config, (), workers) == blocks
        assert sizes.pop() == pool
    assert experiments._map_blocks(block, config, (), 1) == blocks
    assert sizes == []  # one worker: no pool


def test_format_float_roundtrips():
    rng = np.random.default_rng(12)
    for x in rng.standard_normal(100):
        assert float(format_float(x)) == x
    assert format_float(1.0) == "1"


def test_csv_writers_headers_and_rows():
    curve = ErrorCurve(amplitude=1.0, n_steps=(8, 16),
                       taus=np.array([0.125, 0.0625]),
                       errors=np.array([2e-3, 1e-3]),
                       slope=1.0, intercept=-4.1)
    buf = io.StringIO()
    write_error_csv(buf, [curve])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "a,N,tau,E"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "8"

    buf = io.StringIO()
    write_fit_csv(buf, [curve])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "a,m,intercept"
    assert lines[1] == "1,1,-4.0999999999999996"

    config = small_config(amplitudes=(0.0,), checkpoints=(2,))
    results = expectation_study(config)
    buf = io.StringIO()
    write_expectation_csv(buf, results)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "a,n,N,E,absdiff"
    assert len(lines) == 2
    a, n, N, E, absdiff = lines[1].split(",")
    assert (a, n, N) == ("0", "2", "16")
    assert float(absdiff) <= 1e-9

"""Monte Carlo studies: configs, oracles, determinism and CSV output."""

import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from acfv import cli, experiments
from acfv.errors import ConfigError, NumericalFailure
from acfv.experiments import (PATH_BLOCK, ErrorCurve, StudyConfig, _mean_errors,
                              convergence_study, expectation_study, fit_convergence_order,
                              format_float, run_block, splitting_error_study,
                              splitting_gap_errors, write_error_csv,
                              write_expectation_csv, write_fit_csv)
from acfv.scheme import EpsilonSchedule
from acfv.stochastic import MAX_FINE_STEPS


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


@pytest.mark.parametrize("variants", [("splitting",), ("heat",), ("splitting", "coupled")])
def test_block_runner_yields_exactly_the_steps_asked_for(variants):
    config = small_config(n_steps=None, n_fine=64, n_steps_list=(16, 64), checkpoints=(),
                          epsilon=EpsilonSchedule.fixed(0.05), amplitudes=(7.0, 2.0))
    start = np.linspace(-0.4, 1.3, 9)  # the penalty is active from the first step

    def collect(at):
        _, _, runs = run_block(config, start, range(3, 8), at, variants)
        return {(k, n_steps, n): [state.tobytes() for state in states]
                for k, n_steps, n, states in runs}

    every = collect(dict.fromkeys((64, 16)))
    assert list(every) == [(k, n_steps, n) for n_steps in (64, 16) for k in (0, 1)
                           for n in range(1, n_steps + 1)]
    assert all(len(states) == len(variants) for states in every.values())
    assert every[0, 64, 64] != every[1, 64, 64]
    some = collect({64: (1, 30), 16: (16,)})
    assert list(some) == [(0, 64, 1), (0, 64, 30), (1, 64, 1), (1, 64, 30),
                          (0, 16, 16), (1, 16, 16)]
    for key, states in some.items():
        assert states == every[key]


def test_results_do_not_depend_on_the_chunk_length(monkeypatch):
    # Coarse steps span chunk edges (N = 8 steps over 45 fine ones); every
    # per-path error and gap, and every yielded step, keeps its bits.
    config = small_config(n_steps=None, n_fine=360, n_steps_list=(8, 24, 45, 120),
                          checkpoints=(), epsilon=EpsilonSchedule.fixed(0.05),
                          amplitudes=(1.0, 30.0), n_paths=5)
    start = np.linspace(-0.4, 1.3, 9)
    at = {360: (1, 200, 360), 8: None, 45: (7, 45)}

    def outputs():
        _, _, runs = run_block(config, start, range(2, 5), at, ("splitting", "coupled"))
        steps = {(k, n_steps, n): [state.tobytes() for state in states]
                 for k, n_steps, n, states in runs}
        errors = experiments._error_block(config, (8, 24, 45, 120), start, 0, 5)
        gaps = experiments._splitting_gap_block(replace(config, amplitudes=(30.0,)),
                                                (8, 45), start, 0, 5)
        return steps, errors.tobytes(), [gaps[n].tobytes() for n in (8, 45)]

    reference = outputs()
    for chunk in (1, 7, 64, 360):
        monkeypatch.setattr(experiments, "CHUNK", chunk)
        assert outputs() == reference


def test_a_convergence_block_holds_no_whole_path():
    # The block's increments alone take p N_max 8 bytes; streamed in
    # chunks, its whole run stays far below that.
    paths, n_fine = 64, 2 ** 15
    config = StudyConfig(cells_per_axis=2, n_fine=n_fine, n_steps_list=(16, 2 ** 13),
                         n_paths=paths).validate()
    tracemalloc.start()
    try:
        experiments._error_block(config, config.n_steps_list, None, 0, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < paths * n_fine * 8 / 4


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
    assert fit_convergence_order(taus, 3.0 * taus) == pytest.approx(1.0, abs=1e-12)
    assert fit_convergence_order(taus, 5.0 * taus ** 2) == pytest.approx(2.0, abs=1e-12)
    # scaling the errors moves the intercept, never the slope
    assert fit_convergence_order(taus, 700.0 * taus) == pytest.approx(1.0, abs=1e-12)


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_convergence_order([0.5], [1.0])
    with pytest.raises(ValueError):
        fit_convergence_order([0.5, 0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_convergence_order([0.5, 0.25], [1.0, 0.0])


def test_splitting_gap_zero_for_quiet_constant_state():
    config = StudyConfig(cells_per_axis=3, n_fine=16, n_steps_list=(4, 8),
                         n_paths=4, amplitudes=(0.0,),
                         epsilon=EpsilonSchedule.fixed(0.05), seed=1).validate()
    _, errors = splitting_gap_errors(config, initial_state=np.full(9, 0.4))
    assert errors == [0.0, 0.0]


def test_splitting_gap_positive_on_active_states():
    # A non-constant trapped state keeps the penalty and the diffusion
    # both active, so the two methods genuinely differ.
    start = -np.linspace(0.2, 1.0, 4)
    config = StudyConfig(cells_per_axis=2, n_fine=64, n_steps_list=(32, 64),
                         n_paths=8, amplitudes=(10.0,),
                         epsilon=EpsilonSchedule.fixed(0.05), seed=2).validate()
    _, errs = splitting_gap_errors(config, initial_state=start)
    assert min(errs) > 0


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


def test_splitting_error_study_needs_fixed_eps():
    config = StudyConfig(cells_per_axis=2, n_fine=16, n_steps_list=(8, 16),
                         n_paths=2, amplitudes=(1.0,),
                         epsilon=EpsilonSchedule.power(0.1, 0.4)).validate()
    with pytest.raises(ConfigError):
        splitting_error_study(config)


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

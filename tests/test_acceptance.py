"""Acceptance suite: one test per release criterion, with its stated budget.

Each test prints a single PASS line (visible with ``pytest -s`` or in
the failure report) and enforces both the numerical criterion and the
runtime budget.  The full-scale reproduction of the reference
convergence orders is supported but excluded from CI; enable it with
ACFV_PAPER_SCALE=1.
"""

import os
import time

import numpy as np
import pytest

from acfv import benchmark, scheme, validation
from acfv.config import preset_config
from acfv.experiments import convergence_study, expectation_study, splitting_error_study
from acfv.mesh import build_uniform_mesh, default_initial_state


def report(n, detail):
    print(f"ACCEPTANCE {n} PASS: {detail}")


def test_criterion_1_reference_tables():
    """Deterministic table reproduction from the injected driving path."""
    scheme.compiled_library()  # the budget times the tables, not a first build
    start = time.perf_counter()
    result = benchmark.run_benchmark_tables()
    elapsed = time.perf_counter() - start
    assert result.max_deviation <= 1e-5, (
        f"table deviation {result.max_deviation:.3g} exceeds 1e-5")
    assert elapsed < 1.0, f"table reproduction took {elapsed:.2f}s (budget 1s)"
    report(1, f"max table deviation {result.max_deviation:.2e}, {elapsed:.2f}s")


def test_criterion_2_matrix_and_monotonicity_suite():
    """Operator symmetry/PSD, propagator monotonicity, resolvent identity."""
    start = time.perf_counter()
    checks = validation.matrix_suite(cases=1000)
    elapsed = time.perf_counter() - start
    failed = [c for c in checks if not c.passed]
    assert not failed, "failed checks:\n" + "\n".join(c.line() for c in failed)
    assert elapsed < 10.0, f"matrix suite took {elapsed:.1f}s (budget 10s)"
    report(2, f"{len(checks)} randomized operator checks, {elapsed:.1f}s")


def test_criterion_3_structure_theorems():
    """Constant propagation, stationary extremes, one-sided trapping."""
    start = time.perf_counter()
    checks = validation.structure_suite(cases=200)
    elapsed = time.perf_counter() - start
    failed = [c for c in checks if not c.passed]
    assert not failed, "failed checks:\n" + "\n".join(c.line() for c in failed)
    assert elapsed < 10.0, f"structure suite took {elapsed:.1f}s (budget 10s)"
    report(3, f"{len(checks)} structure checks, {elapsed:.1f}s")


def test_criterion_4_splitting_gap_scaling():
    """Splitting-vs-coupled gap scales close to linearly in the step size.

    The study runs from a state trapped below zero, where the penalty
    is active at full strength and the gap mechanism under test is the
    dominant effect; the dynamics there are noise-free, so the measured
    slope is reproducible exactly.
    """
    start = time.perf_counter()
    config = preset_config("splitting-error", "desk")
    trapped = -(default_initial_state(build_uniform_mesh(config.cells_per_axis)) + 0.2)
    curve = splitting_error_study(config, initial_state=trapped)
    elapsed = time.perf_counter() - start
    assert 0.8 <= curve.slope <= 1.3, f"gap slope {curve.slope:.4f} outside [0.8, 1.3]"
    assert elapsed < 120.0, f"gap study took {elapsed:.0f}s (budget 120s)"
    report(4, f"gap slope {curve.slope:.4f} over tau in 2^-4..2^-8, {elapsed:.0f}s")


def test_criterion_5_convergence_orders_desk_scale():
    """Fitted time-convergence orders at desk scale, all amplitudes one seed."""
    start = time.perf_counter()
    config = preset_config("convergence", "desk")
    assert config.amplitudes == (1.0, 5.0, 60.0)
    curves = {c.amplitude: c for c in convergence_study(config)}
    elapsed = time.perf_counter() - start
    assert 0.8 <= curves[1.0].slope <= 1.3, f"a=1 order {curves[1.0].slope:.4f}"
    assert 0.8 <= curves[5.0].slope <= 1.3, f"a=5 order {curves[5.0].slope:.4f}"
    assert curves[60.0].slope < 0.6, f"a=60 order {curves[60.0].slope:.4f}"
    assert elapsed < 900.0, f"convergence study took {elapsed:.0f}s (budget 900s)"
    report(5, "orders m(a=1)={:.4f}, m(a=5)={:.4f}, m(a=60)={:.4f}, {:.0f}s".format(
        curves[1.0].slope, curves[5.0].slope, curves[60.0].slope, elapsed))


def test_criterion_6_expectation_drift_ordering():
    """Mean drift strictly grows with the noise amplitude; exact start mean."""
    start = time.perf_counter()
    config = preset_config("expectation", "desk")
    results = [r for r in expectation_study(config) if r.checkpoint == 2]
    elapsed = time.perf_counter() - start
    assert [r.amplitude for r in results] == [1.0, 3.0, 10.0, 40.0]
    assert results[0].initial_mean == pytest.approx(0.29333333, abs=1e-7)
    drifts = [r.drift for r in results]
    assert all(d1 < d2 for d1, d2 in zip(drifts, drifts[1:])), (
        f"drifts not strictly increasing: {drifts}")
    assert elapsed < 300.0, f"expectation study took {elapsed:.0f}s (budget 300s)"
    report(6, "drifts at n=2: " + ", ".join(f"{d:.2e}" for d in drifts)
           + f", {elapsed:.0f}s")


@pytest.mark.paperscale
@pytest.mark.skipif(not os.environ.get("ACFV_PAPER_SCALE"),
                    reason="full-scale run, enable with ACFV_PAPER_SCALE=1")
def test_criterion_7_full_scale_convergence_orders():
    """Full-scale study (9000 paths, finest grid 40320) matches the reference orders.

    Reference orders at these parameters: 1.0599 (a=1), 1.0188 (a=5),
    0.2291 (a=30), 0.1400 (a=60).  Monte Carlo seed differences leave a
    few percent of scatter, so the bands are wider.
    """
    config = preset_config("convergence", "paper")
    start = time.perf_counter()
    curves = {c.amplitude: c for c in convergence_study(config)}
    elapsed = time.perf_counter() - start
    assert 0.95 <= curves[1.0].slope <= 1.15
    assert 0.90 <= curves[5.0].slope <= 1.12
    assert curves[30.0].slope < 0.45
    assert curves[60.0].slope < 0.35
    report(7, "full-scale orders " + ", ".join(
        f"m(a={a:g})={c.slope:.4f}" for a, c in sorted(curves.items()))
        + f", {elapsed:.0f}s")

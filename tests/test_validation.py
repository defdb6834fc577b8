"""The invariant suite itself: deterministic and fully green."""

import numpy as np

from acfv import validation
from acfv.linalg import band_to_dense


def test_run_all_passes():
    checks = validation.run_all()
    assert checks
    assert all(c.passed for c in checks), "\n".join(
        c.line() for c in checks if not c.passed)


def test_suite_is_deterministic():
    first = [(c.name, c.passed, c.detail) for c in validation.run_all(seed=7)]
    second = [(c.name, c.passed, c.detail) for c in validation.run_all(seed=7)]
    assert first == second


def test_check_line_format():
    line = validation.CheckResult("demo", True, "ok").line()
    assert line == "[PASS] demo: ok"


def test_symmetry_check_fails_on_a_product_that_reads_lower_entries_from_upper_slots(
        monkeypatch):
    # A band product that takes entry (i, i - k) from the slot of (i, i + k)
    # is not the product of a symmetric matrix: on the grid, a cell at the
    # end of a row has a left neighbor but no right one.
    def misread(band, x):
        dense = band_to_dense(band)
        product = np.triu(dense)
        for k in range(1, len(dense)):
            i = np.arange(k, len(dense) - k)
            product[i, i - k] = dense[i, i + k]
        return x @ product.T

    monkeypatch.setattr(validation, "band_product", misread)
    checks = {c.name: c for c in validation.matrix_suite(cases=1)}
    assert not checks["stiffness symmetry"].passed

"""Penalty map and resolvent: branch values, inversion, monotonicity."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acfv.constraint import psi_eps, resolvent

# Heat-flow state after two steps in the benchmark scenario and the
# value the resolvent must map it to (tau = 1/2, eps = 0.1 (1/2)^(1/3)).
HEAT_STATE = np.array([-1.69747036, -1.57881501, -1.57872628, -1.69338044])
RESOLVED_STATE = np.array([-0.23254276, -0.21628772, -0.21627557, -0.23198247])


def test_psi_branch_values():
    for eps in (0.01, 0.3, 2.0):
        assert psi_eps(0.5, eps) == 0.0
        assert psi_eps(-eps, eps) == pytest.approx(-1.0, rel=1e-15)
        assert psi_eps(1 + 2 * eps, eps) == pytest.approx(2.0, rel=1e-14)
        assert psi_eps(0.0, eps) == 0.0
        assert psi_eps(1.0, eps) == 0.0


def test_psi_is_lipschitz_and_monotone():
    rng = np.random.default_rng(2)
    eps = 0.05
    v = np.sort(rng.uniform(-4, 5, size=500))
    vals = psi_eps(v, eps)
    assert np.all(np.diff(vals) >= 0)
    assert np.max(np.abs(np.diff(vals) / np.diff(v))) <= 1 / eps + 1e-9


def test_resolvent_identity_on_unit_interval():
    for r in (0.0, 0.3, 1.0):
        assert resolvent(r, tau=0.7, eps=0.02) == r


def test_resolvent_first_branch():
    assert resolvent(-1.0, tau=0.3, eps=0.3) == pytest.approx(-0.5, rel=1e-15)


def test_resolvent_inverts_penalty():
    rng = np.random.default_rng(7)
    for _ in range(500):
        tau = float(rng.uniform(1e-3, 2.0))
        eps = float(rng.uniform(1e-4, 1.0))
        r = float(rng.uniform(-6, 7))
        u = resolvent(r, tau, eps)
        assert u + tau * psi_eps(u, eps) == pytest.approx(r, abs=1e-13)
    # the branch-boundary values invert exactly as well
    for r in (-1.0, 0.0, 0.5, 1.0, 2.0):
        u = resolvent(r, 0.25, 0.01)
        assert abs(u + 0.25 * psi_eps(u, 0.01) - r) <= 1e-14


def test_resolvent_monotone_and_nonexpansive():
    rng = np.random.default_rng(9)
    r = np.sort(rng.uniform(-5, 6, size=400))
    out = resolvent(r, tau=0.4, eps=0.03)
    diffs = np.diff(out)
    assert np.all(diffs >= 0)
    assert np.max(diffs / np.diff(r)) <= 1 + 1e-12


def test_resolvent_approaches_projection():
    rng = np.random.default_rng(13)
    for _ in range(300):
        tau = float(rng.uniform(0.01, 1.0))
        eps = float(rng.uniform(1e-5, 0.5))
        r = float(rng.uniform(-5, 6))
        bound = eps * max(abs(r), abs(r - 1.0)) / (eps + tau)
        assert abs(resolvent(r, tau, eps) - np.clip(r, 0.0, 1.0)) <= bound + 1e-15


def test_resolvent_field_benchmark_state():
    tau = 0.5
    eps = 0.1 * tau ** (1.0 / 3.0)
    got = resolvent(HEAT_STATE, tau, eps)
    np.testing.assert_allclose(got, RESOLVED_STATE, atol=1e-6)


def test_resolvent_field_identity_and_scaling():
    rng = np.random.default_rng(15)
    inside = rng.uniform(0.0, 1.0, size=30)
    np.testing.assert_array_equal(resolvent(inside, 0.3, 0.02), inside)
    negative = -rng.uniform(0.1, 3.0, size=30)
    tau, eps = 0.3, 0.02
    np.testing.assert_allclose(resolvent(negative, tau, eps),
                               negative * eps / (eps + tau), rtol=1e-14)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        psi_eps(0.5, 0.0)
    with pytest.raises(ValueError):
        resolvent(0.5, tau=-1.0, eps=0.1)
    with pytest.raises(ValueError):
        resolvent(0.5, tau=0.1, eps=0.0)


positive = st.floats(min_value=5e-324, max_value=1e300, allow_nan=False)


@given(r=st.floats(allow_nan=False, allow_infinity=False), tau=positive, eps=positive)
def test_resolvent_keeps_the_clip(r, tau, eps):
    # The step kernel reuses clip(resolvent output) as clip of the next
    # step's input; that is only sound if the resolvent never moves a
    # value across 0 or 1.
    assert np.clip(resolvent(r, tau, eps), 0.0, 1.0) == np.clip(r, 0.0, 1.0)

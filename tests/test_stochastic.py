"""Path generation, aggregation exactness and the diffusion coefficient."""

import io

import numpy as np
import pytest

from acfv.benchmark import QUARTER_INCREMENTS
from acfv.stochastic import (aggregate_increments, diffusion_g,
                             dump_increments, load_increments,
                             sample_increment_block)


def one_path(seed, path_index, horizon, n_fine):
    """The fine increments of one path, as a one-row block."""
    return sample_increment_block(seed, [path_index], horizon, n_fine)[0]


def test_paths_are_deterministic_per_key():
    a = one_path(42, 7, 1.0, 64)
    one_path(42, 8, 1.0, 64)  # interleaved draw must not matter
    b = one_path(42, 7, 1.0, 64)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_differ():
    a = one_path(42, 0, 1.0, 64)
    b = one_path(42, 1, 1.0, 64)
    assert np.any(a != b)
    c = one_path(43, 0, 1.0, 64)
    assert np.any(a != c)


def test_increment_variance():
    n = 100_000
    path = one_path(2024, 0, 1.0, n)
    normalized = path ** 2 * n / 1.0
    assert 0.98 <= normalized.mean() <= 1.02
    assert abs(path.mean()) <= 5.0 / np.sqrt(n)


def test_block_matches_individual_paths():
    # A row does not depend on the other rows drawn with it.
    block = sample_increment_block(5, range(3, 6), 2.0, 32)
    for row, idx in enumerate(range(3, 6)):
        np.testing.assert_array_equal(block[row],
                                      sample_increment_block(5, [idx], 2.0, 32)[0])


def test_aggregate_benchmark_quarters():
    coarse = aggregate_increments(np.array(QUARTER_INCREMENTS), 2)
    np.testing.assert_allclose(coarse, [0.08910183, -0.92529078], atol=1e-7)
    # and the sums are the plain pairwise ones
    assert coarse[0] == QUARTER_INCREMENTS[0] + QUARTER_INCREMENTS[1]
    assert coarse[1] == QUARTER_INCREMENTS[2] + QUARTER_INCREMENTS[3]


def test_aggregate_identity_and_total_sum():
    path = one_path(1, 2, 1.0, 240)
    np.testing.assert_array_equal(aggregate_increments(path, 240), path)
    for n in (1, 2, 6, 30, 120):
        coarse = aggregate_increments(path, n)
        # lattice-valued increments make these sums exact
        assert coarse.sum() == path.sum()


def test_aggregation_is_exactly_coherent():
    # Aggregating fine -> mid -> coarse equals fine -> coarse bitwise,
    # for divisor chains that are not powers of two.
    path = one_path(9, 4, 1.0, 360)
    for n_mid, n_coarse in ((120, 24), (90, 6), (180, 12), (60, 4)):
        mid = aggregate_increments(path, n_mid)
        staged = aggregate_increments(mid, n_coarse)
        direct = aggregate_increments(path, n_coarse)
        np.testing.assert_array_equal(staged, direct)


def test_aggregate_rejects_non_divisors():
    path = one_path(0, 0, 1.0, 16)
    with pytest.raises(ValueError):
        aggregate_increments(path, 3)
    with pytest.raises(ValueError):
        aggregate_increments(path, 0)


def test_aggregate_stacked_paths():
    block = sample_increment_block(3, range(4), 1.0, 24)
    coarse = aggregate_increments(block, 6)
    assert coarse.shape == (4, 6)
    for row in range(4):
        np.testing.assert_array_equal(coarse[row],
                                      aggregate_increments(block[row], 6))


def test_diffusion_support_and_values():
    assert diffusion_g(0.0, 3.0) == 0.0
    assert diffusion_g(1.0, 3.0) == 0.0
    assert diffusion_g(-0.3, 3.0) == 0.0
    assert diffusion_g(1.7, 3.0) == 0.0
    assert diffusion_g(0.5, 3.0) == pytest.approx(0.75, rel=1e-15)
    assert diffusion_g(0.5, 8.0) == pytest.approx(2.0, rel=1e-15)
    # direct evaluation at the first benchmark cell average
    assert diffusion_g(0.20088542, 10.0) == pytest.approx(1.6053046803142361, rel=1e-12)


def test_diffusion_lipschitz():
    rng = np.random.default_rng(21)
    a = 7.0
    for _ in range(500):
        x, y = rng.uniform(-1.0, 2.0, size=2)
        assert abs(diffusion_g(x, a) - diffusion_g(y, a)) <= a * abs(x - y) + 1e-14


def test_dump_load_roundtrip():
    path = one_path(6, 1, 1.0, 50)
    buf = io.StringIO()
    dump_increments(path, buf)
    buf.seek(0)
    back = load_increments(buf)
    np.testing.assert_array_equal(back, path)


def test_load_skips_comments_and_blanks():
    text = "# injected driving path\n\n0.5\n-0.25\n"
    assert load_increments(io.StringIO(text)).tolist() == [0.5, -0.25]
    with pytest.raises(ValueError):
        load_increments(io.StringIO("# nothing\n"))


def test_invalid_sampling_parameters():
    with pytest.raises(ValueError):
        sample_increment_block(0, [0], 1.0, 0)
    with pytest.raises(ValueError):
        sample_increment_block(0, [0], -1.0, 4)


def test_packaged_increments_match_embedded_constants():
    from acfv.benchmark import increments_file
    from importlib.resources import as_file
    with as_file(increments_file()) as path:
        loaded = load_increments(path)
    np.testing.assert_array_equal(loaded, np.array(QUARTER_INCREMENTS))

"""Path generation, streamed path sums, their exactness and the diffusion coefficient."""

import ctypes
import hashlib
import io

import numpy as np
import pytest

from acfv import scheme, stochastic
from acfv.benchmark import QUARTER_INCREMENTS
from acfv.config import preset_config
from acfv.experiments import CHUNK
from scipy.special import ndtri

from acfv.stochastic import (MAX_FINE_STEPS, coarse_chunks, diffusion_g,
                             increment_chunks, load_increments, sample_increment_block)
import oracles


def one_path(seed, path_index, horizon, n_fine):
    """The fine increments of one path, as a one-row block."""
    return sample_increment_block(seed, [path_index], horizon, n_fine)[0]


def split(fine, chunk):
    """The (p, n) increments ``fine`` as consecutive chunks of ``chunk`` steps."""
    return [fine[:, lo:lo + chunk] for lo in range(0, fine.shape[1], chunk)]


def kept(chunks):
    """Copies of the chunks, each valid only until the next is made."""
    return [chunk.copy() for chunk in chunks]


def ladders(chunks, n_fine, step_counts):
    """Each step count's coarse increments, the chunks of coarse_chunks side by side."""
    parts = {n: [] for n in step_counts}
    for coarse in coarse_chunks(chunks, n_fine, step_counts):
        for n, inc in coarse.items():
            parts[n].append(inc.copy())
    return {n: np.hstack(inc) for n, inc in parts.items()}


def reshape_sums(fine, n_coarse):
    """Oracle: the fine increments of each coarse interval summed, per row."""
    return fine.reshape(len(fine), n_coarse, -1).sum(axis=2)


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


def documented_increments(seed, path_index, horizon, n_fine):
    """Oracle: the module docstring's map, one whole path at a time."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, path_index],
                                                            dtype=np.uint64)))
    bits = gen.integers(0, 2 ** 64, size=n_fine, dtype=np.uint64)
    u = np.minimum(((bits >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53,
                   1.0 - 2.0 ** -53)
    sigma = np.sqrt(horizon / n_fine)
    quantum = 2.0 ** (np.floor(np.log2(sigma)) - 30)
    return np.round(ndtri(u) * sigma / quantum) * quantum


@pytest.mark.parametrize("chunk", [1, 7, 96, 100])
def test_chunks_side_by_side_equal_the_block(chunk):
    block = np.array([documented_increments(5, idx, 2.0, 96) for idx in range(3, 6)])
    assert sample_increment_block(5, range(3, 6), 2.0, 96).tobytes() == block.tobytes()
    chunks = kept(increment_chunks(5, range(3, 6), 2.0, 96, chunk))
    assert [c.shape for c in chunks[:-1]] == [(3, chunk)] * (len(chunks) - 1)
    assert np.hstack(chunks).tobytes() == block.tobytes()


@pytest.fixture(params=["compiled", "numpy"])
def route(request, monkeypatch):
    """The sampler's chunks: compiled, or their numpy form, Philox and scipy's ndtri."""
    if request.param == "numpy":
        monkeypatch.setattr(stochastic, "_draw", oracles.draw)
    return request.param


@pytest.mark.parametrize("chunk", [1, 3, 7, 1024])
def test_chunks_equal_the_documented_map_at_the_ends_of_the_key_words(route, chunk):
    # Seeds 0 and 2^64 - 1, path indices 0, 2^63 and 2^64 - 1, and 1030
    # steps, not a multiple of 4, so chunks start and end at every word of
    # a Philox block.
    keys = [0, 2 ** 63, 2 ** 64 - 1]
    for seed in (0, 2 ** 64 - 1):
        block = np.array([documented_increments(seed, key, 1.5, 1030) for key in keys])
        chunks = kept(increment_chunks(seed, keys, 1.5, 1030, chunk))
        assert np.hstack(chunks).tobytes() == block.tobytes()


def test_paper_length_paths_equal_the_documented_map(route):
    keys = [0, 1, 255, 2 ** 64 - 1]
    block = np.array([documented_increments(0, key, 1.0, 40320) for key in keys])
    assert np.hstack(kept(increment_chunks(0, keys, 1.0, 40320, 1024))).tobytes() == \
        block.tobytes()
    assert sample_increment_block(0, keys, 1.0, 40320).tobytes() == block.tobytes()


# (seed, path indices, horizon, n_fine, chunk) outside the contract, and the argument named
BAD_ARGUMENTS = [
    ((0, [0], np.nan, 4, 4), "horizon"), ((0, [0], np.inf, 4, 4), "horizon"),
    ((0, [0], 0.0, 4, 4), "horizon"), ((0, [0], 1.0, 0, 4), "n_fine"),
    ((0, [0], 1.0, MAX_FINE_STEPS + 1, 4), "n_fine"), ((0, [3, -1], 1.0, 4, 4), "path index"),
    ((0, [2 ** 64], 1.0, 4, 4), "path index"), ((-1, [0], 1.0, 4, 4), "seed"),
    ((2 ** 64, [0], 1.0, 4, 4), "seed"), ((0, [0], 1.0, 4, 0), "chunk"),
]


@pytest.mark.parametrize("args, name", BAD_ARGUMENTS,
                         ids=[f"{name}-{i}" for i, (_, name) in enumerate(BAD_ARGUMENTS)])
def test_arguments_outside_the_contract_are_rejected_at_the_call(route, args, name):
    # NaN or infinite horizons gave NaN increments, more than MAX_FINE_STEPS
    # a path whose sums are not exact, and words outside 0..2^64 - 1 would
    # wrap through the compiled sampler's uint64.
    with pytest.raises(ValueError, match=f"^{name} must"):
        increment_chunks(*args)
    if name != "chunk":
        with pytest.raises(ValueError, match=f"^{name} must"):
            sample_increment_block(*args[:4])


def test_compiled_ndtri_equals_scipy_bytewise():
    # The compiled Cephes port against scipy.special.ndtri: 2^21 random
    # lattice uniforms (k + 1/2) 2^-53, the 2e5 smallest and largest lattice
    # points (2^-54 and 1 - 2^-53 at the ends), 1e5 ulps either side of the
    # branch points exp(-2) and 1 - exp(-2) (central formula or tail),
    # exp(-32) and 1 - exp(-32) (z = 8 in the tail), of 0.5, 1e-300 and
    # 2^-40, and the values outside (0, 1).
    lib = scheme.compiled_library()
    rng = np.random.default_rng(59)
    lattice = (rng.integers(0, 2 ** 53, 2 ** 21, dtype=np.uint64) + 0.5) * 2.0 ** -53
    ends = (np.arange(200_000) + 0.5) * 2.0 ** -53
    ulps = np.arange(-100_000, 100_001)
    around = [(np.array(x).view(np.int64) + ulps).view(float)
              for x in (np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0), 1.0 - np.exp(-32.0),
                        0.5, 1e-300, 2.0 ** -40)]
    u = np.concatenate([lattice, ends, 1.0 - ends, *around,
                        [2.0 ** -54, 1.0 - 2.0 ** -53, 0.0, -0.0, 1.0, -1.0, 2.0, 5e-324]])
    got = u.copy()
    lib.acfv_ndtri(ctypes.c_void_p(got.ctypes.data), ctypes.c_ssize_t(got.size))
    assert got.tobytes() == ndtri(u).tobytes()


def test_sums_below_the_fine_step_limit_are_exact():
    # Every increment is at most 8.3 sigma, under 8.3 2^31 lattice quanta,
    # so MAX_FINE_STEPS of them sum to less than 2^53 quanta, and one more may not.
    assert abs(ndtri(2.0 ** -54)) < 8.3 and ndtri(1.0 - 2.0 ** -53) < 8.3
    assert MAX_FINE_STEPS * 8.3 * 2 ** 31 < 2 ** 53 <= (MAX_FINE_STEPS + 1) * 8.3 * 2 ** 31
    for n_fine in (1, 3, 1000):
        path = sample_increment_block(2, [0], 1.0, n_fine)[0]
        quantum = 2.0 ** (np.floor(np.log2(np.sqrt(1.0 / n_fine))) - 30)
        steps = path / quantum
        assert (steps == np.round(steps)).all()
        assert np.abs(steps).max() < 8.3 * 2 ** 31


def test_aggregate_benchmark_quarters():
    # The two-step table run uses the path sums S2 and S4 - S2; for the
    # packaged path they are the pairwise sums bit for bit.
    coarse = ladders([np.array(QUARTER_INCREMENTS)[None]], 4, (2, 4))
    np.testing.assert_allclose(coarse[2][0], [0.08910183, -0.92529078], atol=1e-7)
    assert coarse[2][0, 0] == QUARTER_INCREMENTS[0] + QUARTER_INCREMENTS[1]
    assert coarse[2][0, 1] == QUARTER_INCREMENTS[2] + QUARTER_INCREMENTS[3]
    assert coarse[4][0].tolist() == list(QUARTER_INCREMENTS)


def test_aggregate_identity_and_total_sum():
    path = sample_increment_block(1, [2], 1.0, 240)
    coarse = ladders(split(path, 50), 240, (240, 1, 2, 6, 30, 120))
    np.testing.assert_array_equal(coarse[240], path)
    for inc in coarse.values():
        # lattice-valued increments make these sums exact
        assert inc.sum() == path.sum()


@pytest.mark.parametrize("chunk", [1, 7, 50, 64, 360, 500])
def test_path_sum_ladders_match_reshape_sums(chunk):
    # Coarse steps longer than a chunk, and chunk edges inside a coarse
    # interval, still give the plain sums per interval bit for bit.
    block = sample_increment_block(4, range(3), 1.0, 360)
    step_counts = (360, 1, 2, 3, 5, 8, 9, 24, 45, 72, 120, 180)
    coarse = ladders(split(block, chunk), 360, step_counts)
    for n in step_counts:
        assert coarse[n].tobytes() == reshape_sums(block, n).tobytes()


def test_aggregation_is_exactly_coherent():
    # Summing fine -> mid -> coarse equals fine -> coarse bitwise, for
    # divisor chains that are not powers of two.
    path = sample_increment_block(9, [4], 1.0, 360)
    coarse = ladders(split(path, 64), 360, (120, 24, 90, 6, 180, 12, 60, 4))
    for n_mid, n_coarse in ((120, 24), (90, 6), (180, 12), (60, 4)):
        np.testing.assert_array_equal(reshape_sums(coarse[n_mid], n_coarse), coarse[n_coarse])


def test_chunks_share_one_buffer_and_each_step_counts_coarse_blocks_another():
    # A chunk and its coarse increments are views valid until the next
    # chunk: the sampler draws every chunk into one buffer of the block, and
    # the ladder sums each step count's increments into one buffer of its
    # own; a short last chunk is a C-contiguous prefix of each.
    views = list(increment_chunks(3, range(4), 1.0, 360, 100))
    assert all(np.shares_memory(views[0], view) for view in views[1:])
    assert views[-1].shape == (4, 60) and views[-1].flags.c_contiguous
    coarse = list(coarse_chunks(increment_chunks(3, range(4), 1.0, 360, 100), 360,
                                (360, 8, 45, 120)))
    assert [sorted(c) for c in coarse] == [[8, 45, 120, 360]] * 4
    for n in (8, 45, 120):
        assert all(np.shares_memory(coarse[0][n], c[n]) and c[n].flags.c_contiguous
                   for c in coarse[1:])
    buffers = [coarse[0][n] for n in (360, 8, 45, 120)]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(buffers) for b in buffers[i + 1:])


def test_aggregate_rejects_non_divisors():
    path = sample_increment_block(0, [0], 1.0, 16)
    for n in (3, 0):
        with pytest.raises(ValueError):
            next(coarse_chunks([path], 16, (n,)))


def test_aggregate_stacked_paths():
    block = sample_increment_block(3, range(4), 1.0, 24)
    coarse = ladders(split(block, 5), 24, (6,))[6]
    assert coarse.shape == (4, 6)
    for row in range(4):
        np.testing.assert_array_equal(coarse[row], ladders(split(block[row:row + 1], 5),
                                                           24, (6,))[6][0])


def off_lattice_block(n_fine):
    """Five rows off the increment lattice: draws with +-0.0 and subnormals among
    them, swings of +-1e300, a row that turns inf then NaN, and one of signed zeros."""
    rng = np.random.default_rng(31)
    block = rng.standard_normal((5, n_fine)) / 7
    cols = rng.permutation(n_fine)
    block[0, cols[:n_fine // 3]] = np.resize([0.0, -0.0, 5e-324, -5e-324, 2.2e-308], n_fine // 3)
    block[1, cols[:n_fine // 5]] = np.resize([1e300, -1e300, 1e300], n_fine // 5)
    block[2, [n_fine // 4, n_fine // 2, 3 * n_fine // 4]] = np.inf, -np.inf, np.nan
    block[3] = np.resize([-0.0, 0.0, -0.0], n_fine)
    block[4, -1] = np.nan
    return block


def ladder_bytes(chunks, n_fine, step_counts):
    """Per chunk, the (N, shape, bytes) of every entry coarse_chunks yields, in its order."""
    return [[(n, inc.shape, inc.tobytes()) for n, inc in coarse.items()]
            for coarse in coarse_chunks(chunks, n_fine, step_counts)]


@pytest.mark.parametrize("n_fine, chunk, step_counts", [
    (2520, 1, (2520, 1, 2, 3, 5, 8, 9, 35, 72, 120, 315)),
    (2520, 7, (2520, 1, 2, 3, 5, 8, 9, 35, 72, 120, 315)),
    (2520, 1024, (2520, 1, 2, 3, 5, 8, 9, 35, 72, 120, 315)),
    (5000, 5000, (5000, 1, 2, 4, 5, 8, 10, 40, 125, 625)),
], ids=["chunk-1", "chunk-7", "chunk-1024", "one-chunk-5000"])
@pytest.mark.parametrize("kind", ["lattice", "off-lattice"])
@pytest.mark.filterwarnings("error")
def test_compiled_ladder_equals_the_numpy_form_bytewise(monkeypatch, kind, n_fine, chunk,
                                                        step_counts):
    # The compiled acfv_ladder against the cumsum and diff of the numpy
    # form, byte for byte, on any input, and both silent where sums overflow
    # or meet inf - inf; chunks of 7 hold no end of most step counts, and
    # the one chunk of 5000 runs past the ladder's buffer.
    block = (sample_increment_block(4, range(3), 1.0, n_fine) if kind == "lattice"
             else off_lattice_block(n_fine))
    chunks = split(block, chunk)
    compiled = ladder_bytes(chunks, n_fine, step_counts)
    assert all(coarse[n_fine] is part for coarse, part in
               zip(coarse_chunks(chunks, n_fine, step_counts), chunks))
    monkeypatch.setattr(stochastic, "_ladder", oracles.ladder)
    assert ladder_bytes(chunks, n_fine, step_counts) == compiled
    if chunk == 7:
        assert min(len(coarse) for coarse in compiled) == 1  # N = n_fine alone
    if kind == "off-lattice":
        flat = np.hstack([np.frombuffer(data) for coarse in compiled for _, _, data in coarse])
        assert np.isnan(flat).any() and np.isinf(flat).any() and (flat == 1e300).any()


def test_paper_block_increments_and_ladder_equal_the_numpy_form_bytewise(monkeypatch):
    # A paper-scale block, 256 paths of 40320 fine steps in chunks of
    # CHUNK, and its coarse increments over the paper's step ladder: the
    # compiled sampler and ladder against numpy's Philox, scipy's ndtri and
    # the cumsum and diff, chunk by chunk, compared by sha256.
    ladder = (40320, *preset_config("convergence", "paper").n_steps_list)

    def digests():
        return [{n: hashlib.sha256(inc.tobytes()).hexdigest() for n, inc in coarse.items()}
                for coarse in coarse_chunks(increment_chunks(0, range(256), 1.0, 40320, CHUNK),
                                            40320, ladder)]

    compiled = digests()
    monkeypatch.setattr(stochastic, "_draw", oracles.draw)
    monkeypatch.setattr(stochastic, "_ladder", oracles.ladder)
    assert digests() == compiled


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
    # A sampled path written by hand at full precision reads back bit for bit.
    path = one_path(6, 1, 1.0, 50)
    back = load_increments(io.StringIO("".join(f"{v!r}\n" for v in path.tolist())))
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

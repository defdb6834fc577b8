"""Reproducible Brownian increments, streamed path sums and the diffusion coefficient.

Increments are generated at the finest time grid by a counter-based
(Philox) generator keyed by (seed, path index), so every path is a pure
function of its key: results do not depend on generation order, thread
count or how many other paths were drawn first.  Gaussians come from
the inverse normal CDF applied to (k + 1/2) 2^-53 uniforms, avoiding
any rejection loop.  ``increment_chunks`` streams a block of paths
through time, one chunk of fine steps at a time, and the chunks put
side by side are the whole paths bit for bit.

Each increment is snapped to a power-of-two lattice with quantum
q = 2^(floor(log2 sigma) - 30) > sigma 2^-31 (a relative perturbation
around 1e-9).  The smallest uniform, 2^-54, maps to ndtri = -8.29, so
every increment is at most 8.3 sigma < 8.3 2^31 q.  A sum of n
increments is therefore an integer multiple of q below 2^53 q, exactly
representable in double precision, as long as n < 2^53 / (8.3 2^31),
which is ``MAX_FINE_STEPS`` = 505337.  Up to that length every partial
sum of a path is exact, whatever its grouping and order.

Coarser grids are driven by the same path: ``coarse_chunks`` keeps the
running path sum S and gives each coarse step the difference of S at
its two ends.  The requested step count must divide the fine one.  By
exactness these differences equal the plain sums of the fine increments
per coarse interval, bit for bit, which is what makes common-random-number
comparisons across step counts reproducible to the last bit.  A path
that is not on the lattice (an injected ``path_file``) keeps its fine
increments, but its coarse ones are S differences and may differ from
plain pairwise sums in the last bit.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError
from .textio import text_stream

__all__ = [
    "MAX_FINE_STEPS",
    "increment_chunks",
    "sample_increment_block",
    "coarse_chunks",
    "diffusion_g",
    "dump_increments",
    "load_increments",
]


# Longest path whose partial sums stay exact on the lattice, see module docstring.
MAX_FINE_STEPS = int(2.0 ** 53 / (8.3 * 2.0 ** 31))


def increment_chunks(seed, path_indices, horizon, n_fine, chunk):
    """Fine increments of several paths, in time chunks of ``chunk`` steps.

    Yields (p, m) arrays, one row per path of ``path_indices``, with
    m = chunk except for a shorter last chunk; put side by side they are
    the ``n_fine`` increments of each path.  Each increment has variance
    horizon/n_fine, and row i is a pure function of (seed,
    path_indices[i], n_fine): one Philox generator per path continues
    its stream from chunk to chunk, and a row does not depend on the
    other rows of the block.  Each chunk is a new array.
    """
    if n_fine < 1:
        raise ValueError("n_fine must be >= 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    # random_raw gives the words of Generator.integers(0, 2**64, dtype=uint64)
    bitgens = [np.random.Philox(key=np.array([int(seed), idx], dtype=np.uint64))
               for idx in map(int, path_indices)]
    sigma = np.sqrt(horizon / n_fine)
    # Snap to the lattice that keeps all partial sums exact, see module docstring.
    quantum = 2.0 ** (np.floor(np.log2(sigma)) - 30)
    for first in range(0, n_fine, chunk):
        out = np.empty((len(bitgens), min(chunk, n_fine - first)))
        for row, bitgen in zip(out, bitgens):
            bits = bitgen.random_raw(len(row))
            bits >>= np.uint64(11)
            np.add(bits, 0.5, out=row)
        out *= 2.0 ** -53
        np.minimum(out, 1.0 - 2.0 ** -53, out=out)
        ndtri(out, out=out)
        out *= sigma
        out /= quantum
        np.round(out, out=out)
        out *= quantum
        yield out


def sample_increment_block(seed, path_indices, horizon, n_fine) -> np.ndarray:
    """Fine increments of several paths, one row of ``n_fine`` per path.

    The whole block as one chunk of ``increment_chunks``.
    """
    return next(increment_chunks(seed, path_indices, horizon, n_fine, n_fine))


def coarse_chunks(chunks, n_fine, step_counts):
    """Per fine chunk, the increments of each step count's steps that end in it.

    ``chunks`` are consecutive (p, m) chunks of ``n_fine`` fine increments
    per path, and every step count N of ``step_counts`` must divide
    ``n_fine``.  Yields one dict per chunk, {N: (p, k) increments of the k
    coarse steps of N whose interval ends in the chunk}, in the order of
    ``step_counts`` and leaving out the N with no such step.  N = n_fine
    gets the chunk itself.  A coarse increment is the difference of the
    running path sum at its two ends, so it may span chunk edges and no
    array longer than a chunk is built (see the module docstring for why
    these differences are exact).
    """
    if any(n < 1 or n_fine % n for n in step_counts):
        raise ValueError(f"step counts {tuple(step_counts)} must divide fine count {n_fine}")
    ratios = {n: n_fine // n for n in step_counts}
    done, carry, last_end = 0, 0.0, {}
    for chunk in chunks:
        # path[:, j] is the path sum after done + j fine steps
        path = np.empty((len(chunk), chunk.shape[1] + 1))
        path[:, 0], path[:, 1:] = carry, chunk
        np.cumsum(path, axis=1, out=path)
        coarse = {}
        for n, ratio in ratios.items():
            # local indices of the ends of N's steps in this chunk
            ends = np.arange(ratio - done % ratio, chunk.shape[1] + 1, ratio)
            if ratio == 1:
                coarse[n] = chunk
            elif len(ends):
                sums = path[:, ends]
                coarse[n] = np.diff(sums, axis=1, prepend=last_end.get(n, 0.0))
                last_end[n] = sums[:, -1:]
        done, carry = done + chunk.shape[1], path[:, -1].copy()
        del path  # not held while the chunk is stepped
        yield coarse


def diffusion_g(x, amplitude):
    """Noise coefficient a x (1 - x) on [0, 1], zero elsewhere.

    Continuous with support in [0, 1] and Lipschitz constant equal to
    the amplitude.  Vanishing outside [0, 1] means fields that have
    left the constraint band evolve deterministically.  Written as
    a c (1 - c) with c = clip(x, 0, 1): bit for bit a x (1 - x) on
    [0, 1], exactly 0 outside, and NaN for NaN, so it masks no NaN.
    """
    c = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    out = amplitude * c * (1.0 - c)
    return float(out) if out.ndim == 0 else out


def dump_increments(increments, target) -> None:
    """Write increments as CSV, one value per row, full precision."""
    with text_stream(target, "w") as out:
        for v in np.asarray(increments):
            out.write(f"{v:.17g}\n")


def load_increments(source) -> np.ndarray:
    """Read increments written by dump_increments (or by hand).

    Blank lines and lines starting with '#' are ignored, so injected
    reference paths can carry comments.  A file that cannot be read or
    holds no values, or a line that is not a number, is a ConfigError
    naming the file.
    """
    try:
        with text_stream(source) as lines:
            values = [float(line) for line in map(str.strip, lines)
                      if line and not line.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"increment file {source}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"increment file {source}: {exc}") from exc
    if not values:
        raise ConfigError(f"increment file {source} contains no values")
    return np.array(values)

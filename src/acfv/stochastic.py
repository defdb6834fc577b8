"""Reproducible Brownian increments and the diffusion coefficient.

Increments are generated at the finest time grid by a counter-based
(Philox) generator keyed by (seed, path index), so every path is a pure
function of its key: results do not depend on generation order, thread
count or how many other paths were drawn first.  Gaussians come from
the inverse normal CDF applied to (k + 1/2) 2^-53 uniforms, avoiding
any rejection loop.

Each increment is snapped to a power-of-two lattice about 2^-30 times
its standard deviation (a relative perturbation around 1e-9).  On that
lattice, partial sums of a whole path stay exactly representable in
double precision, so aggregating the same fine path to different
coarser grids is exact: grouping and summation order cannot change the
result.  That is what makes common-random-number comparisons across
step counts reproducible to the last bit.

Coarser grids are derived by summing fine increments per coarse
interval; the requested step count must divide the fine one.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError
from .textio import text_stream

__all__ = [
    "sample_increment_block",
    "aggregate_increments",
    "diffusion_g",
    "dump_increments",
    "load_increments",
]


def _raw_increments(seed, path_index, horizon, n_fine):
    key = np.array([seed, path_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    bits = gen.integers(0, 2 ** 64, size=n_fine, dtype=np.uint64)
    u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    np.minimum(u, 1.0 - 2.0 ** -53, out=u)

    sigma = np.sqrt(horizon / n_fine)
    z = ndtri(u) * sigma
    # Snap to the lattice that keeps all partial sums exact, see module docstring.
    quantum = 2.0 ** (np.floor(np.log2(sigma)) - 30)
    return np.round(z / quantum) * quantum


def sample_increment_block(seed, path_indices, horizon, n_fine) -> np.ndarray:
    """Fine increments of several paths, one row of ``n_fine`` per path.

    Each increment has variance horizon/n_fine.  Row i is a pure function
    of (seed, path_indices[i], n_fine): distinct keys give independent
    streams, and a row does not depend on the other rows of the block.
    """
    if n_fine < 1:
        raise ValueError("n_fine must be >= 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    out = np.empty((len(path_indices), n_fine))
    for row, idx in enumerate(path_indices):
        out[row] = _raw_increments(int(seed), int(idx), float(horizon), int(n_fine))
    return out


def aggregate_increments(increments, n_coarse) -> np.ndarray:
    """Sum fine increments into ``n_coarse`` coarse ones (last axis).

    The last axis of ``increments`` is the fine grid; the coarse step
    count must divide it.  The total sum is preserved, so coarse and
    fine grids are driven by the same Brownian path.
    """
    arr = np.asarray(increments, dtype=float)
    n_fine = arr.shape[-1]
    n_coarse = int(n_coarse)
    if n_coarse < 1 or n_fine % n_coarse:
        raise ValueError(f"coarse step count {n_coarse} must divide fine count {n_fine}")
    ratio = n_fine // n_coarse
    if ratio == 1:
        return arr.copy()
    return arr.reshape(arr.shape[:-1] + (n_coarse, ratio)).sum(axis=-1)


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

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

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "NoisePath",
    "sample_path",
    "sample_increment_block",
    "aggregate_increments",
    "diffusion_g",
    "dump_increments",
    "load_increments",
]


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Finest-resolution Brownian increments of one sample path."""

    increments: np.ndarray
    horizon: float
    seed: int
    path_index: int

    def __post_init__(self):
        self.increments.setflags(write=False)

    @property
    def n_fine(self) -> int:
        return self.increments.shape[0]


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


def sample_path(seed, path_index, horizon, n_fine) -> NoisePath:
    """Draw one path of ``n_fine`` increments with variance horizon/n_fine.

    Deterministic in (seed, path_index, n_fine); distinct keys give
    independent streams.
    """
    if n_fine < 1:
        raise ValueError("n_fine must be >= 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    inc = _raw_increments(int(seed), int(path_index), float(horizon), int(n_fine))
    return NoisePath(increments=inc, horizon=float(horizon),
                     seed=int(seed), path_index=int(path_index))


def sample_increment_block(seed, path_indices, horizon, n_fine) -> np.ndarray:
    """Fine increments for several paths, stacked as rows.

    Row i equals sample_path(seed, path_indices[i], ...).increments
    exactly; the block form just saves object overhead in Monte Carlo
    loops.
    """
    out = np.empty((len(path_indices), n_fine))
    for row, idx in enumerate(path_indices):
        out[row] = _raw_increments(int(seed), int(idx), float(horizon), int(n_fine))
    return out


def aggregate_increments(path, n_coarse) -> np.ndarray:
    """Sum fine increments into ``n_coarse`` coarse ones (last axis).

    Accepts a NoisePath or a plain array whose last axis is the fine
    grid.  The coarse step count must divide the fine one.  The total
    sum is preserved, so coarse and fine grids are driven by the same
    Brownian path.
    """
    arr = path.increments if isinstance(path, NoisePath) else np.asarray(path, dtype=float)
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
    arr = increments.increments if isinstance(increments, NoisePath) else np.asarray(increments)
    close = False
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        target = open(target, "w", encoding="ascii")
        close = True
    try:
        for v in arr:
            target.write(f"{v:.17g}\n")
    finally:
        if close:
            target.close()


def load_increments(source) -> np.ndarray:
    """Read increments written by dump_increments (or by hand).

    Blank lines and lines starting with '#' are ignored, so injected
    reference paths can carry comments.
    """
    close = False
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        source = open(source, "r", encoding="ascii")
        close = True
    try:
        values = [float(line) for line in source
                  if line.strip() and not line.lstrip().startswith("#")]
    finally:
        if close:
            source.close()
    if not values:
        raise ValueError("increment file contains no values")
    return np.array(values)

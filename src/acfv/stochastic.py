"""Reproducible Brownian increments, streamed path sums and the diffusion coefficient.

Increments are generated at the finest time grid by a counter-based
(Philox) generator keyed by (seed, path index), so every path is a pure
function of its key: results do not depend on generation order, thread
count or how many other paths were drawn first.  Gaussians come from
the inverse normal CDF applied to (k + 1/2) 2^-53 uniforms, avoiding
any rejection loop.  ``increment_chunks`` streams a block of paths
through time, one chunk of fine steps at a time, and the chunks put
side by side are the whole paths bit for bit.  Each chunk is one call of
``acfv_increments`` in the compiled passes (see
``scheme.compiled_library``), which computes numpy's Philox words from
their counters and Cephes' ``ndtri``: numpy's ``Philox`` and
``scipy.special.ndtri``, the sampler's form in ``tests/oracles.py``, give
the same bytes.

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
plain pairwise sums in the last bit.  The whole ladder of a chunk is one
``acfv_ladder`` call of the compiled passes, which sums S and takes the
differences in the order of a ``cumsum`` and a ``diff`` per step count,
the numpy form in ``tests/oracles.py``, so the two give the same bytes
on any input.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import ConfigError
from .scheme import compiled_library
from .textio import text_stream

__all__ = [
    "MAX_FINE_STEPS",
    "increment_chunks",
    "sample_increment_block",
    "coarse_chunks",
    "diffusion_g",
    "load_increments",
]


# Longest path whose partial sums stay exact on the lattice, see module docstring.
MAX_FINE_STEPS = int(2.0 ** 53 / (8.3 * 2.0 ** 31))


def increment_chunks(seed, path_indices, horizon, n_fine, chunk):
    """Fine increments of several paths, in time chunks of ``chunk`` steps.

    Returns an iterator of (p, m) arrays, one row per path of
    ``path_indices``, with m = chunk except for a shorter last chunk; put
    side by side they are the ``n_fine`` increments of each path.  Each
    increment has variance horizon/n_fine, and row i is a pure function of
    (seed, path_indices[i], n_fine): the increment of fine step s is drawn
    from Philox word s of the key (seed, path_indices[i]), and a row does
    not depend on the other rows of the block.  Every chunk is drawn into
    one buffer of the block, as a C-contiguous view valid until the next
    chunk is drawn: a caller that keeps a chunk copies it.
    The arguments are checked at the call: seed and path indices are
    64-bit words, horizon is positive and finite, n_fine in
    1..MAX_FINE_STEPS and chunk at least 1; else a ValueError names the
    argument.
    """
    seed, keys = _word(seed, "seed"), [_word(index, "path index") for index in path_indices]
    if not 0 < horizon < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not 1 <= n_fine <= MAX_FINE_STEPS:
        raise ValueError(f"n_fine must be in 1..{MAX_FINE_STEPS}, got {n_fine}")
    if not chunk >= 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    sigma = np.sqrt(horizon / n_fine)
    # Snap to the lattice that keeps all partial sums exact, see module docstring.
    quantum = 2.0 ** (np.floor(np.log2(sigma)) - 30)
    draw, p = _draw(seed, keys, sigma, quantum), len(keys)
    buffer = np.empty(p * min(chunk, n_fine))
    return (draw(buffer[:p * m].reshape(p, m), first)
            for first in range(0, n_fine, chunk) for m in [min(chunk, n_fine - first)])


def _word(value, name):
    """``value`` as an int, a ValueError naming it unless it is a 64-bit word (a Philox key)."""
    value = int(value)
    if not 0 <= value < 2 ** 64:
        raise ValueError(f"{name} must be in 0..2^64 - 1, got {value}")
    return value


def _draw(seed, keys, sigma, quantum):
    """``draw(out, first)``: the C-contiguous (len(keys), m) ``out``, filled with steps first, ...

    One ``acfv_increments`` call of the compiled passes.
    """
    lib, keys = compiled_library(), np.array(keys, dtype=np.uint64)

    def draw(out, first):
        lib.acfv_increments(out.ctypes.data, keys.ctypes.data, len(keys), out.shape[1], seed,
                            first, sigma, quantum)
        return out

    return draw


def sample_increment_block(seed, path_indices, horizon, n_fine) -> np.ndarray:
    """Fine increments of several paths, one row of ``n_fine`` per path.

    The whole block as one chunk of ``increment_chunks``, which checks the arguments.
    """
    return next(increment_chunks(seed, path_indices, horizon, n_fine, n_fine))


def coarse_chunks(chunks, n_fine, step_counts):
    """Per fine chunk, the increments of each step count's steps that end in it.

    ``chunks`` are consecutive (p, m) chunks of ``n_fine`` fine increments
    per path, and every step count N of ``step_counts`` must divide
    ``n_fine``.  Yields one dict per chunk, {N: (p, k) increments of the k
    coarse steps of N whose interval ends in the chunk}, in the order of
    ``step_counts`` and leaving out the N with no such step.  N = n_fine
    gets the chunk itself, every other N a C-contiguous view into one
    buffer of its own, made at the first chunk and valid until the next
    chunk is summed: a caller that keeps it copies it.  A coarse increment
    is the difference of the running path sum at its two ends, so it may
    span chunk edges and no array longer than a chunk is built (see the
    module docstring for why these differences are exact).
    """
    if any(n < 1 or n_fine % n for n in step_counts):
        raise ValueError(f"step counts {tuple(step_counts)} must divide fine count {n_fine}")
    ladder, done = _ladder({n: n_fine // n for n in step_counts}), 0
    for chunk in chunks:
        yield ladder(chunk, done)
        done += chunk.shape[1]


def _ladder(ratios):
    """``ladder(chunk, done)``: the dict of ``coarse_chunks`` for the chunk after ``done`` steps.

    ``ratios`` maps each step count to its fine steps a step.  The chunks
    must come in order, as the path sums carry over from one to the next.
    Each summed count has one buffer, made at the first chunk (again only at
    a longer one) for the most steps a chunk can end.  One ``acfv_ladder``
    call of the compiled passes.
    """
    lib = compiled_library()
    summed = [n for n, ratio in ratios.items() if ratio > 1]
    ratio = np.array([ratios[n] for n in summed], dtype=np.int64)
    carry = last = buffers = pointers = None  # path sums, sums at each last end, the buffers

    def ladder(chunk, done):
        nonlocal carry, last, buffers, pointers
        rows = np.ascontiguousarray(chunk, dtype=float)
        p, m = rows.shape
        if carry is None:
            carry, last = np.zeros(p), np.zeros((len(summed), p))
        if p != len(carry):  # the C code reads p sums from carry
            raise ValueError(f"a chunk of {p} paths after chunks of {len(carry)}")
        first = ratio - done % ratio  # local fine index of each count's first end
        steps = [max(0, (m - f) // r + 1) for f, r in zip(first.tolist(), ratio.tolist())]
        if buffers is None or any(p * k > len(b) for k, b in zip(steps, buffers)):
            buffers = [np.empty(p * ((m - 1) // r + 1)) for r in ratio.tolist()]
            pointers = (ctypes.c_void_p * len(buffers))(*(b.ctypes.data for b in buffers))
        lib.acfv_ladder(pointers, rows.ctypes.data, p, m, carry.ctypes.data, last.ctypes.data,
                        ratio.ctypes.data, first.ctypes.data, len(buffers))
        coarse = {n: b[:p * k].reshape(p, k) for n, b, k in zip(summed, buffers, steps)}
        return {n: chunk if r == 1 else coarse[n] for n, r in ratios.items()
                if r == 1 or coarse[n].shape[1]}

    return ladder


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


def load_increments(source) -> np.ndarray:
    """Read increments, one value per line (an injected ``path_file``).

    Blank lines and lines starting with '#' are ignored, so injected
    reference paths can carry comments.  A file that cannot be read or
    holds no values is a ConfigError naming the file, and a line that is
    not a finite number (``abc``, or ``nan``, ``inf`` and ``1e400``, which
    a run would step into a non-finite state) one naming the file and the
    line.
    """
    try:
        with text_stream(source) as lines:
            entries = [(number, line) for number, line in enumerate(map(str.strip, lines), 1)
                       if line and not line.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"increment file {source}: {exc.strerror}") from exc
    except ValueError as exc:  # not ASCII
        raise ConfigError(f"increment file {source}: {exc}") from exc
    if not entries:
        raise ConfigError(f"increment file {source} contains no values")
    values = np.empty(len(entries))
    for i, (number, line) in enumerate(entries):
        try:
            values[i] = float(line)
        except ValueError:
            values[i] = np.nan
        if not np.isfinite(values[i]):
            raise ConfigError(f"increment file {source}, line {number}: {line!r} "
                              "is not a finite number")
    return values

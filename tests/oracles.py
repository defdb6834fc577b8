"""The numpy forms of the compiled stages in ``passes.c``: the tests' byte oracle.

Each form makes the IEEE operations of its compiled stage in the same
order, through numpy ufuncs, so the two agree byte for byte:

* ``bind`` and ``passes``: a kernel's rounds (``scheme._bind``), with
  ``newton`` and ``solve_with_diagonal`` a coupled run's Newton iteration,
  all open rows at once, and ``paired`` the rounds of a coupled run that
  steps its splitting twin beside it and takes their gap;
* ``product``, ``band_factor`` and ``band_solve``: the dense heat product,
  the band Cholesky factor and its solve, which serve the rounds and
  ``linalg.ShiftedSolver``;
* ``band_product``: ``scheme.band_product``, by diagonals;
* ``draw``: the sampler's chunks (``stochastic._draw``), from numpy's
  ``Philox`` and ``scipy.special.ndtri``;
* ``ladder``: the step ladder (``stochastic._ladder``), a ``cumsum`` and a
  ``diff`` per step count.

``numpy_route`` swaps the rounds, the band product, the sampler and the
ladder into the package for a block, so that a whole command runs on them.
"""

from collections import Counter
from contextlib import contextmanager
from functools import partial

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

import acfv
from acfv import scheme, stochastic, validation
from acfv.errors import NumericalFailure


def bind(solver, u, amplitude, kappa, eps=None, twin=None):
    """``scheme._bind`` in numpy: ``over(d_w)``, the rounds around ``product`` with
    ``markov_t`` or ``band_solve`` of the mass times the noisy rows, with ``eps`` each
    followed by ``newton`` on every row; with a ``twin`` buffer, ``over(d_w, gaps)``, whose
    rounds each step the splitting run bound to the twin one round, then this one, then
    take each row's gap (``paired``).  The noisy rows go to a buffer of its own."""
    rows, w = (-1, solver.n), np.empty_like(u)
    if solver.markov_t is not None:
        def heat(w, u):
            u[...] = product(w, solver.markov_t)
    else:
        def heat(w, u):
            u.reshape(rows)[...] = band_solve(solver.factor, w.reshape(rows) * solver.mass_diag)
    iteration = None if eps is None else partial(newton, solver, eps, scheme.NEWTON_MAX_ITER,
                                                 u.reshape(rows), w.reshape(rows))
    over = partial(passes, heat, u, w, amplitude, kappa, iteration)
    if twin is None:
        return over
    return partial(paired, over, bind(solver, twin, amplitude, kappa), u, twin)


def paired(over, split, u, twin, d_w, gaps):
    """The rounds of a coupled run ``over`` paired with the splitting run ``split`` of its
    twin, step by step as the gap study took them before it moved into the compiled rounds:
    round j of ``split`` (its states ``twin``), round j of ``over`` (its states ``u``), then
    column j of the (A, p, rounds) ``gaps``, the largest |coupled - splitting| of each row."""
    coupled, splitting = over(d_w), split(d_w)

    def rounds(j0, j1):
        for j in range(j0, j1):
            splitting(j, j + 1)
            coupled(j, j + 1)
            gaps[:, :, j] = np.max(np.abs(u - twin), axis=2)

    return rounds


def passes(heat, u, w, amplitude, kappa, iteration, d_w):
    """A run's rounds as ufuncs around ``heat``.

    ``u`` and ``w`` are the run's (A, p, d) state and noise buffers,
    ``amplitude`` is (A,), ``kappa`` a float (None: no resolvent, a heat
    run), ``iteration`` the Newton iteration of a coupled run (None: none),
    ``d_w`` (rounds, p) and ``heat(w, u)`` the heat product of the whole
    stack into u.  Returns ``rounds(j0, j1)``, which takes rounds j0..j1-1
    in turn: the noise w = (((c a)(1 - c)) dW) + u with round j's
    increments, the product, the resolvent u = c + (u - c) kappa, each
    c = clip(u), and ``iteration()``.  passes.c clips u afresh for each
    noise; here a noise after a resolvent of the same call takes that
    resolvent's c, which gives the same w, and one after a Newton iteration
    clips u again.
    """
    c, one_minus_c = np.empty_like(u), np.empty_like(u)
    zero, one = np.zeros(()), np.ones(())
    # one column per amplitude and path; a lone amplitude as 0-d
    amplitude = amplitude[:, None, None] if len(amplitude) > 1 else amplitude.reshape(())
    resolve, kappa, d_w = kappa is not None, np.array(kappa), d_w[:, None, :, None]

    def rounds(j0, j1):
        for j in range(j0, j1):
            if j == j0 or not resolve or iteration:
                u.clip(zero, one, out=c)
            np.multiply(c, amplitude, out=w)
            np.subtract(one, c, out=one_minus_c)
            np.multiply(w, one_minus_c, out=w)
            np.multiply(w, d_w[j], out=w)
            np.add(w, u, out=w)
            heat(w, u)
            if resolve:
                u.clip(zero, one, out=c)
                np.subtract(u, c, out=u)
                np.multiply(u, kappa, out=u)
                np.add(c, u, out=u)
            if iteration:
                iteration()

    return rounds


def newton(solver, eps, iterations, u, w):
    """The coupled step's semismooth Newton iteration in place on the (k, d) rows u from
    the noisy rows w, all open rows at once.

    The residual (A u + (tau M) psi_eps(u)) - M w, with the band product of
    ``band_product`` and psi_eps(u) = (u - clip(u)) / eps; a row stays open
    while its largest |residual| is not <= NEWTON_TOL min(M), so a NaN row
    never closes, and takes u - J^-1 residual with J the active-set Jacobian
    (``solve_with_diagonal``).  After ``iterations`` iterations with a row
    still open, a NumericalFailure with the largest residual of the open
    rows.
    """
    tau, mass = solver.tau, solver.mass_diag
    rhs = mass * w
    tol, rows = scheme.NEWTON_TOL * mass.min(), np.arange(len(u))
    for _ in range(iterations):
        v = u[rows]
        residual = (band_product(solver.band, v) + tau * mass * ((v - np.clip(v, 0.0, 1.0)) / eps)
                    - rhs[rows])
        res_norm = np.max(np.abs(residual), axis=1)
        open_rows = ~(res_norm <= tol)
        if not open_rows.any():
            return
        rows, v, residual = rows[open_rows], v[open_rows], residual[open_rows]
        active = (v < 0.0) | (v > 1.0)
        u[rows] = v - solve_with_diagonal(solver, (tau / eps) * mass * active, residual)
    raise NumericalFailure(f"semismooth Newton did not converge in {iterations} iterations",
                           residual=float(np.max(res_norm[open_rows])))


def solve_with_diagonal(solver, extra, b):
    """x[i] of (M + tau A + diag(extra[i])) x[i] = b[i] for each row i of the (k, d) b.

    Each row's shifted band by ``band_factor`` and ``band_solve``, all rows at once.
    """
    jac = np.broadcast_to(solver.band, (len(b), *solver.band.shape)).copy()
    jac[..., -1] += extra
    return band_solve(band_factor(jac), b)


def product(x, op):
    """The dense heat product of passes.c: x op for the rows of x, each output the product
    of k = 0, then plus the product of each k ascending."""
    # silent, as in C: an inf cell times a zero entry gives NaN
    with np.errstate(invalid="ignore", over="ignore"):
        out = x[..., :1] * op[0]
        for k in range(1, len(op)):
            out += x[..., k:k + 1] * op[k]
    return out


def band_factor(band):
    """The band Cholesky factor of passes.c for a (d, u + 1) band or a stack of them.

    Entry (i, j), i <= j, at [j, u + i - j] (see ``linalg``); column by
    column, each entry from the top of the band down is A(i, j) minus the sum
    from 0 of the products U(k, i) U(k, j), k ascending, then divided by
    U(i, i), or at the diagonal its square root.  A pivot that is not positive gives NaN
    (passes.c stops there).
    """
    f = np.array(band, dtype=float)
    d, u = f.shape[-2], f.shape[-1] - 1
    with np.errstate(invalid="ignore"):
        for j in range(d):
            lo = max(0, j - u)
            for i in range(lo, j + 1):
                s = np.zeros(f.shape[:-2])
                for k in range(lo, i):
                    s = s + f[..., i, u + k - i] * f[..., j, u + k - j]
                s = f[..., j, u + i - j] - s
                f[..., j, u + i - j] = s / f[..., i, u] if i < j else np.sqrt(s)
    return f


def band_solve(factor, b):
    """A^-1 b for each row of the (k, d) b, A = U^T U with U the ``band_factor`` of one band
    or of one band per row: cell by cell across the rows, forward U^T y = b ascending, then
    back U x = y descending, each cell minus the sum from 0 of the products with the cells
    solved before it, k ascending, divided by the diagonal."""
    x = np.array(b, dtype=float)
    d, u = factor.shape[-2], factor.shape[-1] - 1
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(d):
            s = np.zeros(len(x))
            for k in range(max(0, i - u), i):
                s += factor[..., i, u + k - i] * x[:, k]
            x[:, i] = (x[:, i] - s) / factor[..., i, u]
        for i in reversed(range(d)):
            s = np.zeros(len(x))
            for k in range(i + 1, min(d, i + u + 1)):
                s += factor[..., k, u + i - k] * x[:, k]
            x[:, i] = (x[:, i] - s) / factor[..., i, u]
    return x


def band_product(band, x):
    """``scheme.band_product`` in numpy: each row summed from 0, diagonal by diagonal."""
    band, x = np.ascontiguousarray(band, dtype=float), np.ascontiguousarray(x, dtype=float)
    d, u = band.shape[0], band.shape[1] - 1
    rows = x.reshape(-1, d)
    out = np.zeros(rows.shape)
    reach = min(u, d - 1)
    # silent, as in C: a zero slot times an inf cell gives NaN, which its caller reports
    with np.errstate(invalid="ignore"):
        for s in range(-reach, reach + 1):  # column i + s of row i
            if s < 0:
                out[:, -s:] += band[-s:, u + s] * rows[:, :s]
            else:
                out[:, :d - s] += band[s:, u - s] * rows[:, s:]
    return out.reshape(x.shape)


def draw(seed, keys, sigma, quantum):
    """``stochastic._draw`` in numpy: one ``Philox`` per path and ``scipy.special.ndtri``.

    Each Philox continues its stream, so the calls of ``draw(out, first)``
    must come in order of ``first`` from 0.
    """
    # random_raw gives the words of Generator.integers(0, 2**64, dtype=uint64)
    bitgens = [Philox(key=np.array([seed, key], dtype=np.uint64)) for key in keys]

    def draw(out, first):
        for row, bitgen in zip(out, bitgens):
            bits = bitgen.random_raw(out.shape[1])
            bits >>= np.uint64(11)
            np.add(bits, 0.5, out=row)
        out *= 2.0 ** -53
        np.minimum(out, 1.0 - 2.0 ** -53, out=out)
        ndtri(out, out=out)
        out *= sigma
        out /= quantum
        np.round(out, out=out)
        out *= quantum
        return out

    return draw


def ladder(ratios):
    """``stochastic._ladder`` in numpy: the cumsum of each chunk after the carried sum,
    and per step count the diff of the sums at its step ends."""
    carry, last_end = 0.0, {}

    def ladder(chunk, done):
        nonlocal carry
        # path[:, j] is the path sum after done + j fine steps
        path = np.empty((len(chunk), chunk.shape[1] + 1))
        path[:, 0], path[:, 1:] = carry, chunk
        coarse = {}
        # silent, as in C: an off-lattice path may overflow or meet inf - inf
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumsum(path, axis=1, out=path)
            for n, ratio in ratios.items():
                # local indices of the ends of N's steps in this chunk
                ends = np.arange(ratio - done % ratio, chunk.shape[1] + 1, ratio)
                if ratio == 1:
                    coarse[n] = chunk
                elif len(ends):
                    sums = path[:, ends]
                    coarse[n] = np.diff(sums, axis=1, prepend=last_end.get(n, 0.0))
                    last_end[n] = sums[:, -1:]
        carry = path[:, -1].copy()
        return coarse

    return ladder


@contextmanager
def numpy_route(monkeypatch):
    """For the block, every compiled stage of the package swapped for its numpy form.

    Yields a Counter of the calls of each form ("bind", "band_product",
    "draw", "ladder"), so that a test can tell the swap took.
    """
    calls = Counter()

    def counted(name, form):
        def call(*args):
            calls[name] += 1
            return form(*args)
        return call

    with monkeypatch.context() as patched:
        patched.setattr(scheme, "_bind", counted("bind", bind))
        for module in (acfv, scheme, validation):  # each holds band_product by name
            patched.setattr(module, "band_product", counted("band_product", band_product))
        patched.setattr(stochastic, "_draw", counted("draw", draw))
        patched.setattr(stochastic, "_ladder", counted("ladder", ladder))
        yield calls

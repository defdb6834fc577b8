"""The [0, 1] penalty and its backward-Euler resolvent.

``psi_eps`` is the piecewise-linear penalty with slope 1/eps outside
[0, 1] and zero inside; it replaces the set-valued constraint that
keeps solutions between 0 and 1.  Its resolvent (I + tau psi_eps)^{-1}
is available in closed form and acts componentwise, which is what makes
the two-substep scheme cheap: after the linear heat substep, every cell
value is pulled back toward [0, 1] independently.

Both maps are written through the clip c = clip(v, 0, 1): the penalty
is (v - c)/eps and the resolvent c + eps/(eps + tau) (r - c).  On
[0, 1] the correction term is exactly zero, so values inside the band
pass through bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["psi_eps", "resolvent"]


def psi_eps(v, eps):
    """Penalty value: v/eps below 0, zero on [0, 1], (v-1)/eps above 1.

    Continuous, nondecreasing and (1/eps)-Lipschitz.  Accepts scalars
    or arrays.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    v = np.asarray(v, dtype=float)
    out = (v - np.clip(v, 0.0, 1.0)) / eps
    return float(out) if out.ndim == 0 else out


def resolvent(r, tau, eps):
    """Unique solution u of u + tau psi_eps(u) = r, componentwise.

    Piecewise linear: scales negative inputs by eps/(eps+tau), fixes
    [0, 1], and maps r > 1 to (eps r + tau)/(eps + tau).  Nondecreasing,
    1-Lipschitz, and tends to the projection onto [0, 1] as eps -> 0.
    """
    if tau <= 0 or eps <= 0:
        raise ValueError("tau and eps must be positive")
    r = np.asarray(r, dtype=float)
    c = np.clip(r, 0.0, 1.0)
    out = c + eps / (eps + tau) * (r - c)
    return float(out) if out.ndim == 0 else out


"""Structural guarantees of the discretization, demonstrated directly.

Four properties make the scheme trustworthy beyond raw accuracy:

* the one-step heat propagator (M + tau A)^{-1} M maps nonnegative
  states to nonnegative states and fixes constants,
* spatially constant states stay spatially constant under both the
  splitting and the fully implicit step,
* the pure states 0 and 1 are exactly stationary (the noise coefficient
  vanishes there),
* a state entirely below 0, or entirely above 1, can never cross back
  over the threshold: the dynamics are one-sided trapped.

Run:  python demos/03_structure_properties.py
"""

import numpy as np

from acfv import (EpsilonSchedule, ShiftedSolver, StepKernel, assemble_mass,
                  assemble_stiffness, build_uniform_mesh)

mesh = build_uniform_mesh(4)
solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), tau=1.0 / 16)
# One kernel per method for one step size, one amplitude (a = 8, eps = 0.05)
# and one path of 16 cells.  ``run`` takes a (1, k) block of increments, one
# step per column, and yields the kernel's (1, 1, 16) buffer after each step.
split, coupled = (StepKernel(variant, (8.0,), EpsilonSchedule.fixed(0.05), solver, 1)
                  for variant in ("splitting", "coupled"))
rng = np.random.default_rng(0)

x = rng.uniform(0, 2, size=16)
print("positivity: min of propagator output on a nonnegative state:",
      f"{solver.apply_markov(x).min():+.2e}")
print("constants:  propagator applied to 0.37 * ones deviates by",
      f"{np.max(np.abs(solver.apply_markov(np.full(16, 0.37)) - 0.37)):.2e}")

c = 0.642
d_w = float(rng.standard_normal())
(_, out_split), = split.run(np.full(16, c), [[d_w]])
(_, out_coupled), = coupled.run(np.full(16, c), [[d_w]])
print(f"\nconstant state c={c} after one noisy step:")
print(f"  splitting spread {out_split.max() - out_split.min():.2e}, "
      f"coupled spread {out_coupled.max() - out_coupled.min():.2e}")
print("  (both stay constant; the constant itself moves with the noise)")

for c in (0.0, 1.0):
    (_, out), = split.run(np.full(16, c), [[d_w]])
    print(f"pure state {c}: max |step(c) - c| = {np.max(np.abs(out - c)):.2e}")

below = -rng.uniform(0.1, 2.0, size=16)
print("\ntrapping below 0: per-step maximum over 8 steps:")
maxima = [state.max() for _, state in split.run(below, rng.standard_normal((1, 8)))]
print("  " + "  ".join(f"{m:+.4f}" for m in maxima))
print("  (monotone approach to 0, never crossing it)")

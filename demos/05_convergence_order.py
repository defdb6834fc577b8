"""Strong time-convergence order, and how strong noise lowers it.

For a ladder of step counts N, each Monte Carlo sample drives the run
at N and the run at the finest N_max with the same Brownian path
(coarse increments are sums of fine ones), and the mean squared L2
distance at the final time is recorded.  The log-log slope against the
step size is the computational convergence order.

With weak noise the order sits near 1.  At large amplitudes it drops:
at full scale the reference orders for this setup are about 1.06 (a=1),
1.02 (a=5), 0.23 (a=30) and 0.14 (a=60).  Three causes are ruled out by
single-seed runs.  The penalty: the `heat` variant, which has none,
gives 0.31 and 0.34 at a=30 and 60.  The eps schedule: a fixed eps gives
the same orders.  The splitting: the coupled variant, which does not
split, has the same time error within its standard error.  The open
lead is the explicit Euler noise term (ROADMAP items 2 and 10).  The
desk-scale run below shows the drop in a few seconds; expect a few
percent of scatter at 200 paths.

Run:  python demos/05_convergence_order.py
"""

import os

from acfv.config import preset_config
from acfv.experiments import convergence_study

config = preset_config("convergence", "desk")
curves = convergence_study(config)

print(f"{config.n_paths} paths, reference at N_max={config.n_fine}, "
      f"N in {config.n_steps_list}\n")
for curve in curves:
    print(f"a={curve.amplitude:g}: fitted order m = {curve.slope:.4f}")
    for n, tau, err in zip(curve.n_steps, curve.taus, curve.errors):
        print(f"    N={n:<4d} tau={tau:.6f}  E={err:.4e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed, skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    for curve in curves:
        ax.loglog(curve.taus, curve.errors, "o-",
                  label=f"a={curve.amplitude:g} (m={curve.slope:.2f})")
    ax.set_xlabel("step size tau")
    ax.set_ylabel("mean squared L2 error")
    ax.legend()
    ax.grid(True, which="both", alpha=0.3)
    out = os.path.join(os.path.dirname(__file__), "output")
    os.makedirs(out, exist_ok=True)
    target = os.path.join(out, "convergence_order.png")
    fig.savefig(target, dpi=120, bbox_inches="tight")
    print(f"\nwrote {target}")

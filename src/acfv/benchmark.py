"""Built-in benchmark scenario with frozen reference outputs.

A fixed driving path on the quarter grid of [0, 1], the 2 x 2 mesh and
amplitude 10 give a deterministic scenario whose outputs are known to
eight digits.  Three tables are produced: the splitting method with two
steps, the plain heat flow with two steps, and the splitting method
with four steps.  They double as a regression gate: any change in mesh
ordering, assembly, the solver or the resolvent shows up as a deviation
far above the comparison threshold.

The driving increments ship as a CSV data file and are injected through
the normal increment-loading path, exercising the same file format
users inject their own paths with.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError
from .experiments import StudyConfig, run_block
from .scheme import EpsilonSchedule
from .stochastic import load_increments

__all__ = [
    "QUARTER_INCREMENTS",
    "INITIAL_STATE_L2",
    "SPLITTING_N2",
    "HEAT_N2",
    "SPLITTING_N4",
    "SCENARIO",
    "TABLE_TOLERANCE",
    "increments_file",
    "run_benchmark_tables",
    "BenchmarkReport",
]

# Driving path: four quarter-interval Brownian increments.
QUARTER_INCREMENTS = (
    -0.6046086559049673,
    0.6937104821525855,
    -1.1713571186231886,
    0.24606633895637547,
)

# The scenario: 2 x 2 mesh, T = 1, four steps of the quarter path,
# amplitude 10 and eps = 0.1 tau^(1/3).
SCENARIO = StudyConfig(cells_per_axis=2, n_steps=4, n_fine=4, amplitudes=(10.0,),
                       epsilon=EpsilonSchedule.power(0.1, 1.0 / 3.0))

# Reference outputs, frozen to the eight digits they are known to.
INITIAL_STATE_L2 = (0.20088542, 0.05244792, 0.72953125, 0.19046875)

SPLITTING_N2 = (
    (0.39495382, 0.24383317, 0.64814013, 0.38692093),
    (-0.23254276, -0.21628772, -0.21627557, -0.23198247),
)
HEAT_N2 = (
    (0.39495382, 0.24383317, 0.64814013, 0.38692093),
    (-1.69747036, -1.57881501, -1.57872628, -1.69338044),
)
SPLITTING_N4 = (
    (-0.13385192, -0.07727270, -0.10617873, -0.13010620),
    (-0.02478902, -0.01854758, -0.02242615, -0.02428642),
    (-0.00476855, -0.00406696, -0.00458739, -0.00470111),
    (-0.00093698, -0.00085652, -0.00092635, -0.00092793),
)

# Acceptance threshold on the largest absolute deviation over all rows.
TABLE_TOLERANCE = 1e-5


def increments_file():
    """Path of the packaged CSV with the benchmark driving increments."""
    return resources.files("acfv").joinpath("data/quarter_increments.csv")


@dataclass
class BenchmarkReport:
    """Computed benchmark tables and their largest deviation from the references."""

    tables: dict          # name -> list of computed state arrays
    max_deviation: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= TABLE_TOLERANCE


def run_benchmark_tables(path_file=None) -> BenchmarkReport:
    """Run the three benchmark tables and compare against the references.

    ``path_file`` may point at a CSV with four increments, and any other
    file is a ConfigError; by default the packaged ones are used.  The
    same fine path drives both step counts: the two-step run uses
    pairwise sums of the four increments.
    The start field is compared with its frozen values too.
    """
    path_file = path_file or increments_file()
    fine = load_increments(path_file)
    if fine.shape != (4,):
        raise ConfigError(f"benchmark driving path {path_file} must have 4 increments, "
                          f"got {fine.shape[0]}")

    # One path through both step counts, splitting and heat side by side;
    # the heat run at N = 4 is not a table.
    variants = ("splitting", "heat")
    _, u0, runs = run_block(SCENARIO, None, fine[None], 0, dict.fromkeys((2, 4)), variants)
    references = {"splitting_n2": SPLITTING_N2, "heat_n2": HEAT_N2,
                  "splitting_n4": SPLITTING_N4}
    tables = {name: [] for name in references}
    for _, n_steps, _, states in runs:
        for variant, state in zip(variants, states):
            if f"{variant}_n{n_steps}" in tables:
                tables[f"{variant}_n{n_steps}"].append(state[0].copy())
    max_dev = float(np.max(np.abs(u0 - INITIAL_STATE_L2)))
    for name, rows in tables.items():
        max_dev = max(max_dev, float(np.max(np.abs(np.array(rows) - references[name]))))
    return BenchmarkReport(tables=tables, max_deviation=max_dev)

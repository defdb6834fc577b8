"""Finite-volume lab for the stochastic heat flow constrained to [0, 1].

The package discretizes the noise-driven Allen-Cahn problem with a
two-point flux finite-volume method in space, implicit Euler with
Euler-Maruyama noise in time, and a piecewise-linear penalty in place
of the set-valued [0, 1] constraint.  The penalty term is handled
either by a cheap two-substep splitting (linear heat solve, then a
closed-form componentwise resolvent) or by a fully implicit semismooth
Newton step, and the package ships the Monte Carlo machinery to study
the difference: expectation drift, strong time-refinement errors, and
empirical convergence orders.
"""

from .assembly import assemble_mass, assemble_stiffness
from .constraint import psi_eps, resolvent
from .errors import ConfigError, NumericalFailure
from .experiments import (ErrorCurve, ExpectationResult, StudyConfig,
                          convergence_study, expectation_study, splitting_error_study)
from .linalg import ShiftedSolver, band_to_dense
from .mesh import Mesh, build_uniform_mesh, cell_average, default_initial_state
from .scheme import EpsilonSchedule, StepKernel, band_product
from .stochastic import diffusion_g, load_increments, sample_increment_block

__version__ = "0.1.0"

__all__ = [
    "Mesh", "build_uniform_mesh", "cell_average", "default_initial_state",
    "assemble_mass", "assemble_stiffness",
    "ShiftedSolver", "band_to_dense", "band_product",
    "psi_eps", "resolvent",
    "sample_increment_block", "diffusion_g", "load_increments",
    "EpsilonSchedule", "StepKernel",
    "StudyConfig", "ExpectationResult", "ErrorCurve",
    "expectation_study",
    "convergence_study", "splitting_error_study",
    "ConfigError", "NumericalFailure",
]

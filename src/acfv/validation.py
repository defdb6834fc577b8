"""Randomized invariant suite over the operator and scheme building blocks.

Each check draws a fixed number of randomized cases from a seeded
generator, so the suite is deterministic and fast enough to run before
every study.  The checks mirror the structural guarantees of the
discretization: operator symmetry and positive semi-definiteness, the
monotonicity and mass conservation of the one-step heat propagator, the
resolvent inversion identity, propagation of spatially constant states,
stationarity of 0 and 1, and one-sided trapping of fields that start
entirely below 0 or above 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import assemble_mass, assemble_stiffness
from .constraint import psi_eps, resolvent
from .linalg import ShiftedSolver
from .mesh import build_uniform_mesh
from .scheme import EpsilonSchedule, StepKernel, band_product

__all__ = ["CheckResult", "matrix_suite", "structure_suite", "run_all"]

MESH_SIZES = range(1, 9)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _operators(sizes):
    ops = {}
    for L in sizes:
        mesh = build_uniform_mesh(L)
        mass = assemble_mass(mesh)
        stiffness = assemble_stiffness(mesh)
        ops[L] = (mesh, mass, stiffness)
    return ops


def matrix_suite(seed=20250, cases=1000) -> list:
    """Operator, propagator and resolvent invariants on randomized inputs."""
    rng = np.random.default_rng(seed)
    ops = _operators(MESH_SIZES)
    solvers = {L: ShiftedSolver(m, a, tau=float(rng.uniform(0.01, 1.0)))
               for L, (_, m, a) in ops.items()}
    results = []

    # A^T through the product, so a lower entry read from a wrong slot shows
    worst = 0.0
    for _, m, a in ops.values():
        columns = band_product(a, np.eye(m.size))
        worst = max(worst, float(np.max(np.abs(columns - columns.T))))
    results.append(CheckResult("stiffness symmetry", worst == 0.0,
                               f"max |A - A^T| = {worst:g}"))

    worst = max(float(np.max(np.abs(band_product(a, np.ones(m.size)))))
                for _, m, a in ops.values())
    results.append(CheckResult("stiffness zero row sums", worst <= 1e-12,
                               f"max |A 1| = {worst:.3g}"))

    # the band's zeros count as off-diagonal entries too
    worst = max(float(np.max(a[:, :-1], initial=0.0)) for _, _, a in ops.values())
    results.append(CheckResult("stiffness off-diagonal signs", worst <= 0.0,
                               f"max off-diagonal = {worst:g}"))

    worst = np.inf
    for _ in range(cases):
        L = int(rng.integers(1, 9))
        _, _, a = ops[L]
        x = rng.standard_normal(L * L)
        worst = min(worst, float(x @ band_product(a, x)) / float(x @ x))
    results.append(CheckResult("stiffness positive semi-definite", worst >= -1e-12,
                               f"min x'Ax/|x|^2 = {worst:.3g}"))

    worst = np.inf
    for _ in range(cases):
        L = int(rng.integers(1, 9))
        x = rng.uniform(0.0, 2.0, size=L * L)
        worst = min(worst, float(solvers[L].apply_markov(x).min()))
    results.append(CheckResult("propagator positivity", worst >= -1e-12,
                               f"min output on nonnegative inputs = {worst:.3g}"))

    worst = 0.0
    for _ in range(cases):
        L = int(rng.integers(1, 9))
        c = float(rng.uniform(-2.0, 2.0))
        out = solvers[L].apply_markov(np.full(L * L, c))
        worst = max(worst, float(np.max(np.abs(out - c))))
    results.append(CheckResult("propagator fixes constants", worst <= 1e-12,
                               f"max |markov(c 1) - c 1| = {worst:.3g}"))

    worst = 0.0
    for _ in range(cases):
        L = int(rng.integers(1, 9))
        _, m, _ = ops[L]
        x = rng.standard_normal(L * L)
        before = float(m @ x)
        after = float(m @ solvers[L].apply_markov(x))
        worst = max(worst, abs(after - before) / max(abs(before), 1e-30))
    results.append(CheckResult("propagator mass conservation", worst <= 1e-10,
                               f"max relative mass change = {worst:.3g}"))

    worst = 0.0
    for _ in range(cases):
        tau = float(rng.uniform(1e-3, 1.0))
        eps = float(rng.uniform(1e-4, 1.0))
        r = float(rng.uniform(-5.0, 6.0))
        u = resolvent(r, tau, eps)
        worst = max(worst, abs(u + tau * psi_eps(u, eps) - r))
    results.append(CheckResult("resolvent inverts the penalty map", worst <= 1e-13,
                               f"max |u + tau psi(u) - r| = {worst:.3g}"))
    return results


def _random_kernels(rng, max_steps, variants):
    """L and a kernel per variant on a random L x L mesh, tau = 1/N (N < max_steps), eps and a.

    Each kernel steps one field: its ``out`` is (1, 1, L * L), and
    ``(_, out), = kernel.run(u, [[d_w]])`` takes one step.
    """
    L = int(rng.integers(1, 6))
    mesh = build_uniform_mesh(L)
    tau = 1.0 / int(rng.integers(1, max_steps))
    epsilon = EpsilonSchedule.fixed(float(rng.uniform(0.005, 0.2)))
    amplitude = float(rng.uniform(0.0, 20.0))
    solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), tau)
    return L, [StepKernel(variant, (amplitude,), epsilon, solver, 1) for variant in variants]


def structure_suite(seed=20251, cases=200) -> list:
    """Constant propagation, stationary states and one-sided trapping."""
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for _ in range(cases):
        L, kernels = _random_kernels(rng, 5, ("splitting", "coupled"))
        u = np.full(L * L, float(rng.uniform(0.0, 1.0)))
        d_w = float(rng.standard_normal() * np.sqrt(kernels[0].tau))
        for kernel in kernels:
            (_, out), = kernel.run(u, [[d_w]])
            worst = max(worst, float(out.max() - out.min()))
    results.append(CheckResult("constant states stay constant", worst <= 1e-10,
                               f"max spread after one step = {worst:.3g}"))

    worst = 0.0
    for _ in range(cases):
        L, kernels = _random_kernels(rng, 9, ("splitting", "coupled"))
        c = float(rng.integers(0, 2))
        d_w = float(rng.standard_normal())
        for kernel in kernels:
            (_, out), = kernel.run(np.full(L * L, c), [[d_w]])
            worst = max(worst, float(np.max(np.abs(out - c))))
    results.append(CheckResult("0 and 1 are stationary", worst <= 1e-12,
                               f"max |step(c) - c| for c in {{0,1}} = {worst:.3g}"))

    worst = 0.0
    for _ in range(cases):
        L, (kernel,) = _random_kernels(rng, 9, ("splitting",))
        d_w = float(rng.standard_normal())
        below = -rng.uniform(0.0, 3.0, size=L * L)
        (_, out), = kernel.run(below, [[d_w]])
        worst = max(worst, float(out.max()))
        above = 1.0 + rng.uniform(0.0, 3.0, size=L * L)
        (_, out), = kernel.run(above, [[d_w]])
        worst = max(worst, float(1.0 - out.min()))
    results.append(CheckResult("one-sided states stay trapped", worst <= 1e-10,
                               f"max excursion back across the threshold = {worst:.3g}"))
    return results


def run_all(seed=20252) -> list:
    """Full invariant suite, deterministic for a given seed."""
    return matrix_suite(seed=seed) + structure_suite(seed=seed + 1)

"""In-memory spans around the public functions of each acfv module.

``install`` replaces functions where their callers look them up (for
example ``acfv.experiments.sample_increment_block`` or the entries of
``acfv.scheme._STEPS``) by wrappers that record a span: name, start, end
and the span that was open when it started.  Nothing inside ``src/`` is
changed; a name a later version no longer has is simply not traced, and
the metrics that depend on it read zero.  ``analyse`` turns the spans into
the per-layer metrics the benchmark prints with ``--trace 1``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Layer of a span, from the prefix of its name.  "root" is the whole CLI
# call: its self time is the part of the run that no layer span covers.
LAYERS = {"stochastic": "stochastic", "linalg": "linalg", "constraint": "constraint",
          "scheme": "scheme", "experiments": "experiments", "mesh": "mesh+assembly",
          "assembly": "mesh+assembly", "config": "config+cli", "cli": "config+cli",
          "root": "uncovered"}


class Tracer:
    """Spans kept as columns in memory, plus plain event counters."""

    def __init__(self):
        self.names = []
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.rows = []
        self.size = []
        self.counts = {}
        self._open = []

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def wrap(self, name, fn, shape=None):
        """``fn`` recording one span per call; ``shape`` maps the call's
        arguments to (rows, size) for kernel counts."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            index = len(self.start)
            rows, size = shape(*args, **kwargs) if shape else (0, 0)
            self.name.append(name_id)
            self.parent.append(self._open[-1] if self._open else -1)
            self.rows.append(rows)
            self.size.append(size)
            self.end.append(0.0)
            self._open.append(index)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._open.pop()

        return traced

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end), rows=np.array(self.rows),
                 size=np.array(self.size))


def _rhs_shape(b):
    b = np.asarray(b)
    return (b.shape[0] if b.ndim == 2 else 1), b.shape[-1]


def install(tracer: Tracer, pool_only: bool = False) -> None:
    """Wrap the acfv functions each layer's callers reach.

    With ``pool_only`` only the worker pool and the block map are wrapped,
    so block functions stay picklable for a multi-worker run.
    """
    from acfv import cli, experiments, linalg, scheme

    def patch(module, attr, name, shape=None):
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, tracer.wrap(name, fn, shape))

    pool_class = getattr(experiments, "ProcessPoolExecutor", None)
    if pool_class is not None:
        class CountingPool(pool_class):
            def __init__(self, *args, **kwargs):
                tracer.count("experiments.pool_starts")
                super().__init__(*args, **kwargs)

        experiments.ProcessPoolExecutor = CountingPool
    patch(experiments, "_map_blocks", "experiments.map_blocks")
    if pool_only:
        return

    patch(cli, "load_config_file", "config.load")
    patch(cli, "_prepare_out", "cli.prepare_out")
    for attr in ("write_expectation_csv", "write_error_csv", "write_fit_csv"):
        patch(cli, attr, "cli.write_csv")
    for attr in ("expectation_study", "convergence_study", "splitting_error_study"):
        patch(cli, attr, "experiments.study")
    for attr in ("_expectation_block", "_error_block", "_splitting_gap_block"):
        patch(experiments, attr, "experiments.block")

    patch(experiments, "sample_increment_block", "stochastic.sample",
          lambda seed, paths, horizon, n_fine: (len(paths) * n_fine, 0))
    patch(experiments, "aggregate_increments", "stochastic.aggregate")
    patch(scheme, "_noisy_state", "stochastic.noise")
    patch(scheme, "resolvent_field", "constraint.resolvent")
    patch(scheme, "psi_eps", "constraint.psi")
    patch(scheme, "solve_spd", "linalg.spd", lambda matrix, b, *a, **k: _rhs_shape(b))
    patch(linalg, "pcg", "linalg.pcg")
    patch(experiments, "build_uniform_mesh", "mesh.build")
    patch(experiments, "default_initial_state", "mesh.initial_state")
    patch(experiments, "assemble_mass", "assembly.mass")
    patch(experiments, "assemble_stiffness", "assembly.stiffness")
    patch(experiments, "run_trajectory", "scheme.run_trajectory")

    steps = getattr(scheme, "_STEPS", {})
    for variant, fn in list(steps.items()):
        traced = tracer.wrap(f"scheme.{variant}_step", fn)
        steps[variant] = traced
        for module in (scheme, experiments):
            if getattr(module, f"{variant}_step", None) is fn:
                setattr(module, f"{variant}_step", traced)

    solver_class = getattr(experiments, "ShiftedSolver", None)
    if solver_class is not None:
        methods = {"__init__": ("linalg.factor", None),
                   "solve": ("linalg.solve", lambda self, b: _rhs_shape(b)),
                   "apply_markov": ("linalg.apply_markov", None)}
        experiments.ShiftedSolver = type("TracedSolver", (solver_class,), {
            attr: tracer.wrap(name, getattr(solver_class, attr), shape)
            for attr, (name, shape) in methods.items() if hasattr(solver_class, attr)})


def _percentile(values, q):
    return float(np.percentile(values, q)) if values.size else 0.0


def analyse(path) -> dict:
    """Per-layer metrics and layer self times from a file written by Tracer.save.

    A span's self time is its duration minus the durations of its direct
    children; spans nest on one thread, so children never overlap.
    """
    with np.load(path) as data:
        names = list(data["names"])
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        rows, size = data["rows"], data["size"]
    children = parent >= 0
    covered = np.zeros(dur.size)
    np.add.at(covered, parent[children], dur[children])
    self_time = dur - covered

    def where(span):
        return name == names.index(span) if span in names else np.zeros(dur.size, bool)

    def seconds(span):
        return float(dur[where(span)].sum())

    def children_of(mask, child):
        """Per span: how many direct children match ``child``."""
        return np.bincount(parent[where(child) & children], minlength=dur.size)[mask]

    layer_of = np.array([LAYERS[n.split(".")[0]] for n in names] or [""])
    layer = layer_of[name] if dur.size else np.array([], dtype=str)
    layers = {lay: float(self_time[layer == lay].sum()) for lay in sorted(set(LAYERS.values()))}

    sample, solve = where("stochastic.sample"), where("linalg.solve")
    dense = solve.copy()
    dense[solve] = children_of(solve, "linalg.pcg") == 0
    # Computed from shapes, not measured: two triangular solves with a d x d
    # factor take 2 d^2 flops per right-hand side; they read the factor twice
    # and read and write the right-hand sides, all in doubles.
    flops = 2.0 * size[dense].astype(float) ** 2 * rows[dense]
    bytes_moved = 8.0 * (2.0 * size[dense].astype(float) ** 2 + 2.0 * size[dense] * rows[dense])
    coupled = where("scheme.coupled_step")
    leaf = coupled.copy()
    leaf[coupled] = children_of(coupled, "scheme.coupled_step") == 0
    newton = children_of(leaf, "linalg.spd")
    sample_s, solve_s, dense_s = (float(dur[m].sum()) for m in (sample, solve, dense))
    root_s = seconds("root.main")

    metrics = {
        "stochastic.sample_s": sample_s,
        "stochastic.sample_calls": int(sample.sum()),
        "stochastic.increments_per_s": float(rows[sample].sum()) / sample_s if sample_s else 0.0,
        "stochastic.aggregate_s": seconds("stochastic.aggregate"),
        "stochastic.noise_s": seconds("stochastic.noise"),
        "stochastic.self_s": layers["stochastic"],
        "linalg.factor_calls": int(where("linalg.factor").sum()),
        "linalg.factor_s": seconds("linalg.factor"),
        "linalg.solve_s": solve_s,
        "linalg.solve_calls": int(solve.sum()),
        "linalg.rows_per_solve": float(rows[solve].mean()) if solve.any() else 0.0,
        "linalg.solve_us.p50": _percentile(dur[solve] * 1e6, 50),
        "linalg.solve_us.p99": _percentile(dur[solve] * 1e6, 99),
        "linalg.solve_gflops_computed": float(flops.sum()) / dense_s / 1e9 if dense_s else 0.0,
        "linalg.solve_flop_per_byte_computed":
            float(flops.sum() / bytes_moved.sum()) if dense.any() else 0.0,
        "linalg.pcg_s": seconds("linalg.pcg"),
        "linalg.pcg_calls": int(where("linalg.pcg").sum()),
        "linalg.spd_solves": int(where("linalg.spd").sum()),
        "linalg.self_s": layers["linalg"],
        "constraint.resolvent_s": seconds("constraint.resolvent"),
        "constraint.resolvent_us.p50": _percentile(dur[where("constraint.resolvent")] * 1e6, 50),
        "constraint.psi_s": seconds("constraint.psi"),
        "constraint.self_s": layers["constraint"],
        "scheme.splitting_step_us.p50": _percentile(dur[where("scheme.splitting_step")] * 1e6, 50),
        "scheme.splitting_step_us.p99": _percentile(dur[where("scheme.splitting_step")] * 1e6, 99),
        "scheme.self_s": layers["scheme"],
        "scheme.coupled_step_us.p50": _percentile(dur[leaf] * 1e6, 50),
        "scheme.coupled_step_us.p99": _percentile(dur[leaf] * 1e6, 99),
        "scheme.coupled_calls": int(leaf.sum()),
        "scheme.newton_iters_mean": float(newton.mean()) if newton.size else 0.0,
        "scheme.newton_iters_max": int(newton.max()) if newton.size else 0,
        "scheme.newton_zero_iter_share": float((newton == 0).mean()) if newton.size else 0.0,
        "mesh.build_calls": int(where("mesh.build").sum()),
        "assembly.calls": int((where("assembly.mass") | where("assembly.stiffness")).sum()),
        "mesh.assembly_s": layers["mesh+assembly"],
        "experiments.self_s": layers["experiments"],
        "experiments.blocks": int(where("experiments.block").sum()),
        "experiments.study_s": seconds("experiments.study"),
        "cli.io_s": layers["config+cli"],
        "trace.root_s": root_s,
        "trace.uncovered_share": layers["uncovered"] / root_s if root_s else 0.0,
        "trace.spans": int(dur.size),
    }
    return {"metrics": metrics, "layers": layers,
            "block_wait_s": seconds("experiments.map_blocks")}

"""The benchmark's workloads: one acfv CLI command on one generated config each.

Together the workloads vary the cell count d (16 against 256), the method
(splitting against coupled Newton), how the linear solves are batched
(stacks of many paths against one row at a time) and the worker count
(1 against 2).  Sizes are chosen so that one CLI run takes a few seconds on
a 2-core machine, which lets a 25-second run take several samples.  Why
each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed whose outputs are stored under bench/reference/.
DEFAULT_SEED = 0

# Output CSVs of each CLI command.
OUTPUTS = {
    "convergence": ("error.csv", "fit.csv"),
    "splitting-error": ("splitting_error.csv", "splitting_error_fit.csv"),
    "expectation": ("expectation.csv",),
}

PAPER_N_LIST = "210,280,360,504,630,840,1008,1260,1680,2520,3360,4032,5040"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    workers: int
    keys: dict
    tiny_keys: dict

    def config(self, seed: int, tiny: bool = False) -> dict:
        """Config keys of one run; the seed is the only input that varies."""
        keys = dict(self.keys)
        if tiny:
            keys.update(self.tiny_keys)
        keys["seed"] = str(seed)
        return keys

    def config_text(self, seed: int, tiny: bool = False) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config(seed, tiny).items())

    def path_steps(self, seed: int, tiny: bool = False) -> int:
        """Paths times steps evolved by one run of the command."""
        keys = self.config(seed, tiny)
        paths = int(keys["N_p"])
        amplitudes = len(keys["a"].split(","))
        if self.command == "convergence":
            n_list = [int(n) for n in keys["N_list"].split(",")]
            return paths * amplitudes * (int(keys["N_max"]) + sum(n_list))
        if self.command == "splitting-error":
            # One step per method: splitting and coupled run side by side.
            return paths * 2 * sum(int(n) for n in keys["N_list"].split(","))
        return paths * amplitudes * int(keys["N"])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="conv-paper-reduced",
        command="convergence",
        workers=1,
        keys={"L": "4", "T": "1.0", "N_max": "40320", "N_list": PAPER_N_LIST,
              "N_p": "128", "a": "5", "eps_rule": "power", "eps_c": "0.1",
              "eps_p": "0.4"},
        tiny_keys={"N_max": "64", "N_list": "8,16,32", "N_p": "8"},
    ),
    Workload(
        name="gap-coupled",
        command="splitting-error",
        workers=1,
        keys={"L": "4", "T": "1.0", "N_max": "256", "N_list": "16,32,64,128,256",
              "N_p": "16", "a": "10", "eps_rule": "fixed", "eps_c": "0.05"},
        tiny_keys={"N_max": "32", "N_list": "8,16,32", "N_p": "2"},
    ),
    Workload(
        name="expect-large-mesh",
        command="expectation",
        workers=2,
        keys={"L": "16", "T": "1.0", "N": "8", "N_max": "8", "N_p": "512",
              "a": "1,10", "checkpoints": "2,4,8", "eps_rule": "power",
              "eps_c": "0.1", "eps_p": "0.4"},
        tiny_keys={"L": "9", "N": "4", "N_max": "4", "N_p": "258",
                   "checkpoints": "2,4"},
    ),
)}

"""Flat key-value run configuration files, presets and run manifests.

The on-disk format is one ``key = value`` pair per line, with '#'
comments and blank lines ignored.  It is deliberately plain: diffable,
language-agnostic, and hashable into a run identifier.

Recognized keys::

    domain_half_width  half side length of the square domain (default 1)
    T                  time horizon
    L                  cells per axis
    N                  step count for single-resolution commands
    N_max              finest step count (defaults to N or max of N_list)
    N_list             comma-separated step counts for refinement studies
    N_p                number of Monte Carlo paths
    a                  noise amplitude, or comma-separated list
    eps_rule           'fixed' or 'power'
    eps_c              fixed value, or prefactor of c * tau^p
    eps_p              exponent p for the power rule
    seed               base seed of the path generator
    variant            'splitting', 'coupled' or 'heat'
    checkpoints        comma-separated step indices to record
    path_file          CSV of driving increments to inject (table-repro
                       and simulate)
    out_dir            output directory

A file read for a command holds only keys that command reads (see
``keys_read``); any other key is rejected with its line, even at its
default.  table-repro reads ``path_file`` and ``out_dir`` only.

Relative ``path_file`` entries are resolved against the directory of
the configuration file.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields, replace

from . import benchmark
from .errors import ConfigError
from .experiments import StudyConfig, format_float
from .scheme import EpsilonSchedule

__all__ = [
    "parse_config_text",
    "load_config_file",
    "config_from_mapping",
    "keys_read",
    "preset_config",
    "packaged_increments_path",
    "RunManifest",
    "build_manifest",
]

_INT_KEYS = {"L", "N", "N_max", "N_p", "seed"}
_FLOAT_KEYS = {"T", "domain_half_width", "eps_c", "eps_p"}
_INT_LIST_KEYS = {"N_list", "checkpoints"}
_FLOAT_LIST_KEYS = {"a"}
_STR_KEYS = {"eps_rule", "variant", "path_file", "out_dir"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _INT_LIST_KEYS | _FLOAT_LIST_KEYS | _STR_KEYS

# The keys each command reads.  The Monte Carlo studies draw their own
# paths from (seed, path index), so they take no path_file.
_STUDY_KEYS = {"T", "L", "N_max", "a", "eps_rule", "eps_c", "eps_p", "seed",
               "domain_half_width", "out_dir"}
_KEYS_READ = {
    "table-repro": {"path_file", "out_dir"},
    "simulate": _STUDY_KEYS | {"N", "variant", "path_file"},
    "expectation": _STUDY_KEYS | {"N", "N_p", "variant", "checkpoints"},
    "convergence": _STUDY_KEYS | {"N_list", "N_p", "variant"},
    "splitting-error": _STUDY_KEYS | {"N_list", "N_p"},
}


def keys_read(command: str, with_path_file: bool = False) -> set:
    """The config keys ``command`` reads; simulate on an injected path reads no seed."""
    if command == "simulate" and with_path_file:
        return _KEYS_READ[command] - {"seed"}
    return _KEYS_READ[command]


def parse_config_text(text: str, command: str | None = None) -> dict:
    """Parse flat key-value text into a typed mapping.

    With a ``command``, a key that command does not read is an error.
    """
    out, key_lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        key_lines[key] = lineno
        try:
            if key in _INT_KEYS:
                out[key] = int(value)
            elif key in _FLOAT_KEYS:
                out[key] = float(value)
            elif key in _INT_LIST_KEYS:
                out[key] = tuple(int(v) for v in value.split(",") if v.strip())
            elif key in _FLOAT_LIST_KEYS:
                out[key] = tuple(float(v) for v in value.split(",") if v.strip())
            else:
                out[key] = value
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if command is not None:
        read = keys_read(command, "path_file" in out)
        for key, lineno in key_lines.items():
            if key not in read:
                raise ConfigError(f"line {lineno}: {command} does not read {key!r}")
    return out


# Config key -> StudyConfig field, where the two names differ.  The eps
# keys together set ``epsilon``.
_FIELDS = {
    "T": "horizon", "L": "cells_per_axis",
    "N": "n_steps", "N_max": "n_fine", "N_list": "n_steps_list",
    "N_p": "n_paths", "a": "amplitudes",
    "domain_half_width": "half_width",
}


def config_from_mapping(mapping: dict, base_dir: str = ".") -> StudyConfig:
    """Build a StudyConfig from a parsed mapping; its ``validate`` checks the values.

    Validation waits for the command to resolve the config: table-repro
    fills in its fixed scenario first.
    """
    mapping = dict(mapping)
    rule = mapping.pop("eps_rule", None)
    eps_c = mapping.pop("eps_c", None)
    eps_p = mapping.pop("eps_p", None)
    if rule is None:
        epsilon = StudyConfig().epsilon
    elif rule == "fixed":
        if eps_c is None:
            raise ConfigError("eps_rule = fixed needs eps_c")
        epsilon = EpsilonSchedule.fixed(eps_c)
    elif rule == "power":
        if eps_c is None or eps_p is None:
            raise ConfigError("eps_rule = power needs eps_c and eps_p")
        epsilon = EpsilonSchedule.power(eps_c, eps_p)
    else:
        raise ConfigError(f"eps_rule must be 'fixed' or 'power', got {rule!r}")

    path_file = mapping.pop("path_file", None)
    if path_file is not None and not os.path.isabs(path_file):
        path_file = os.path.normpath(os.path.join(base_dir, path_file))

    kwargs = {"epsilon": epsilon, "path_file": path_file}
    for key, value in mapping.items():
        kwargs[_FIELDS.get(key, key)] = value
    try:
        config = StudyConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return config


def load_config_file(path, command: str | None = None) -> StudyConfig:
    """The StudyConfig of a config file; with a ``command``, only keys it reads pass."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        mapping = parse_config_text(handle.read(), command)
    return config_from_mapping(mapping, base_dir=os.path.dirname(os.path.abspath(path)))


def packaged_increments_path() -> str:
    """Filesystem path of the packaged benchmark driving increments."""
    return str(benchmark.increments_file())


# Step counts of the refinement ladder used by the full-scale studies.
FULL_N_LIST = (210, 280, 360, 504, 630, 840, 1008, 1260, 1680, 2520, 3360, 4032, 5040)


def _benchmark_run() -> StudyConfig:
    """The benchmark scenario on its packaged driving path."""
    return replace(benchmark.SCENARIO, path_file=packaged_increments_path(), out_dir="out")


_PRESETS = {
    ("table-repro", "desk"): _benchmark_run,
    ("table-repro", "paper"): _benchmark_run,
    ("simulate", "desk"): _benchmark_run,
    ("simulate", "paper"): lambda: StudyConfig(
        cells_per_axis=5, n_steps=2048, n_fine=2048, amplitudes=(10.0,),
        out_dir="out"),
    ("expectation", "desk"): lambda: StudyConfig(
        cells_per_axis=5, n_steps=512, n_fine=512, n_paths=1000,
        amplitudes=(1.0, 3.0, 10.0, 40.0), checkpoints=(2, 64, 512),
        out_dir="out"),
    ("expectation", "paper"): lambda: StudyConfig(
        cells_per_axis=5, n_steps=2048, n_fine=2048, n_paths=3000,
        amplitudes=(1.0, 3.0, 10.0, 40.0), checkpoints=(2, 64, 2048),
        out_dir="out"),
    # Seed 1 gives a representative run; at 200 paths the fitted order
    # for moderate amplitudes still scatters by about +-0.2 across seeds.
    ("convergence", "desk"): lambda: StudyConfig(
        cells_per_axis=4, n_fine=4032,
        n_steps_list=(42, 56, 84, 112, 168, 252, 336, 504),
        n_paths=200, amplitudes=(1.0, 5.0, 60.0), seed=1, out_dir="out"),
    ("convergence", "paper"): lambda: StudyConfig(
        cells_per_axis=4, n_fine=40320, n_steps_list=FULL_N_LIST,
        n_paths=9000, amplitudes=(1.0, 5.0, 30.0, 60.0), out_dir="out"),
    ("splitting-error", "desk"): lambda: StudyConfig(
        cells_per_axis=4, n_fine=256, n_steps_list=(16, 32, 64, 128, 256),
        n_paths=100, amplitudes=(10.0,),
        epsilon=EpsilonSchedule.fixed(0.05), out_dir="out"),
}
# The gap study has no larger reference-scale variant; the full preset
# just adds paths.
_PRESETS[("splitting-error", "paper")] = lambda: StudyConfig(
    cells_per_axis=4, n_fine=256, n_steps_list=(16, 32, 64, 128, 256),
    n_paths=500, amplitudes=(10.0,),
    epsilon=EpsilonSchedule.fixed(0.05), out_dir="out")


def preset_config(command: str, name: str) -> StudyConfig:
    """Built-in configuration for a command, 'desk' scale or full 'paper' scale."""
    try:
        return _PRESETS[(command, name)]().validate()
    except KeyError:
        raise ConfigError(f"no {name!r} preset for command {command!r}") from None


@dataclass
class RunManifest:
    """Resolved configuration of one run plus its content hash."""

    command: str
    config: StudyConfig
    run_id: str

    def text(self) -> str:
        lines = [f"command = {self.command}", f"run_id = {self.run_id}"]
        lines += _canonical_lines(self.config)
        return "\n".join(lines) + "\n"


def _canonical_lines(config: StudyConfig) -> list:
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, EpsilonSchedule):
            rendered = f"{value.rule}(c={format_float(value.c)}, p={format_float(value.p)})"
        elif isinstance(value, tuple):
            rendered = ",".join(format_float(v) if isinstance(v, float) else str(v)
                                for v in value)
        elif isinstance(value, float):
            rendered = format_float(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return lines


def build_manifest(command: str, config: StudyConfig) -> RunManifest:
    payload = "\n".join([command] + _canonical_lines(config))
    run_id = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
    return RunManifest(command=command, config=config, run_id=run_id)

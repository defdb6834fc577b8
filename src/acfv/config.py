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

``_KEYS`` gives each key's StudyConfig field, its parser and the
commands that read it.  A file read for a command holds only keys that
command reads (see ``keys_read``); any other key is rejected with its
line, even at its default.  table-repro reads ``path_file`` and
``out_dir`` only, and runs them on the fixed benchmark scenario.

Relative ``path_file`` entries are resolved against the directory of
the configuration file.  Every preset is such a file, packaged as
``presets/<command>-<name>.cfg`` and read through the same parser.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from importlib import resources

from .errors import ConfigError
from .experiments import StudyConfig, format_float
from .scheme import EpsilonSchedule, passes, sha256

__all__ = [
    "parse_config_text",
    "load_config_file",
    "config_from_mapping",
    "keys_read",
    "preset_config",
    "RunManifest",
    "build_manifest",
]


def _list_of(kind):
    return lambda value: tuple(kind(v) for v in value.split(",") if v.strip())


# Config key -> (StudyConfig field, parser, the commands that read it).  The
# Monte Carlo studies draw their own paths from (seed, path index), so they
# take no path_file.  The eps keys together set ``epsilon``.
_STUDIES = ("simulate", "expectation", "convergence", "splitting-error")
_KEYS = {
    "domain_half_width": ("half_width", float, _STUDIES),
    "T": ("horizon", float, _STUDIES),
    "L": ("cells_per_axis", int, _STUDIES),
    "N": ("n_steps", int, ("simulate", "expectation")),
    "N_max": ("n_fine", int, _STUDIES),
    "N_list": ("n_steps_list", _list_of(int), ("convergence", "splitting-error")),
    "N_p": ("n_paths", int, _STUDIES[1:]),
    "a": ("amplitudes", _list_of(float), _STUDIES),
    "eps_rule": ("epsilon", str, _STUDIES),
    "eps_c": ("epsilon", float, _STUDIES),
    "eps_p": ("epsilon", float, _STUDIES),
    "seed": ("seed", int, _STUDIES),
    "variant": ("variant", str, ("simulate", "expectation", "convergence")),
    "checkpoints": ("checkpoints", _list_of(int), ("expectation",)),
    "path_file": ("path_file", str, ("table-repro", "simulate")),
    "out_dir": ("out_dir", str, ("table-repro", *_STUDIES)),
}


def keys_read(command: str, with_path_file: bool = False) -> set:
    """The config keys ``command`` reads; simulate on an injected path reads no seed."""
    read = {key for key, (_, _, commands) in _KEYS.items() if command in commands}
    if command == "simulate" and with_path_file:
        read.discard("seed")
    return read


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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        key_lines[key] = lineno
        try:
            out[key] = _KEYS[key][1](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if command is not None:
        read = keys_read(command, "path_file" in out)
        for key, lineno in key_lines.items():
            if key not in read:
                raise ConfigError(f"line {lineno}: {command} does not read {key!r}")
    return out


def config_from_mapping(mapping: dict, base_dir: str = ".") -> StudyConfig:
    """Build a StudyConfig from a parsed mapping; its ``validate`` checks the values.

    Validation waits for the command line's overrides.
    """
    mapping = dict(mapping)
    rule = mapping.pop("eps_rule", None)
    eps_c = mapping.pop("eps_c", None)
    eps_p = mapping.pop("eps_p", None)
    if eps_c is not None and not 0 < eps_c < float("inf"):
        raise ConfigError(f"'eps_c' must be positive and finite, got {eps_c}")
    if eps_p is not None and not abs(eps_p) < float("inf"):
        raise ConfigError(f"'eps_p' must be finite, got {eps_p}")
    if rule is None:
        if eps_c is not None or eps_p is not None:
            raise ConfigError(f"'{'eps_c' if eps_c is not None else 'eps_p'}' needs eps_rule")
        epsilon = StudyConfig().epsilon
    elif rule == "fixed":
        if eps_c is None:
            raise ConfigError("eps_rule = fixed needs eps_c")
        if eps_p is not None:
            raise ConfigError("eps_rule = fixed does not read 'eps_p'")
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

    try:
        values = {_KEYS[key][0]: value for key, value in mapping.items()}
    except KeyError as exc:
        raise ConfigError(f"unknown key {exc}") from None
    return StudyConfig(epsilon=epsilon, path_file=path_file, **values)


def load_config_file(path, command: str | None = None) -> StudyConfig:
    """The StudyConfig of a config file; with a ``command``, only keys it reads pass.

    table-repro runs the file's path_file and out_dir on ``benchmark.SCENARIO``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            mapping = parse_config_text(handle.read(), command)
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    config = config_from_mapping(mapping, base_dir=os.path.dirname(os.path.abspath(path)))
    if command == "table-repro":
        from . import benchmark  # loaded only by table-repro

        config = replace(benchmark.SCENARIO, path_file=config.path_file,
                         out_dir=config.out_dir)
    return config


def preset_config(command: str, name: str) -> StudyConfig:
    """The packaged ``presets/<command>-<name>.cfg``: 'desk' scale or full 'paper' scale."""
    path = resources.files("acfv").joinpath("presets", f"{command}-{name}.cfg")
    if not path.is_file():
        raise ConfigError(f"no {name!r} preset for command {command!r}")
    return load_config_file(str(path), command).validate()


@dataclass
class RunManifest:
    """Resolved configuration of one run plus its content hash.

    ``passes`` names the step passes the process loaded (see
    ``scheme.passes``); it is recorded, but kept out of the hash.
    """

    command: str
    config: StudyConfig
    run_id: str
    passes: str

    def text(self) -> str:
        lines = [f"command = {self.command}", f"run_id = {self.run_id}",
                 f"passes = {self.passes}"]
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
    """The run's manifest; ``run_id`` hashes the command and the config.

    ``path_file`` enters the hash as the sha256 of the file's bytes, not
    as its path, so that a run has the same id in every checkout.
    """
    lines = _canonical_lines(config)
    if config.path_file is not None:
        try:
            with open(config.path_file, "rb") as fh:
                digest = sha256(fh.read()).hexdigest()
        except OSError as exc:
            raise ConfigError(f"increment file {config.path_file}: {exc.strerror}") from exc
        lines = [f"path_file = sha256:{digest}" if line.startswith("path_file = ") else line
                 for line in lines]
    payload = "\n".join([command] + lines)
    run_id = sha256(payload.encode("utf-8")).hexdigest()[:12]
    return RunManifest(command=command, config=config, run_id=run_id, passes=passes())

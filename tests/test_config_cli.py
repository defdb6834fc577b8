"""Configuration parsing, presets, manifests and the command-line interface."""

import dataclasses
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from acfv import benchmark, cli
from acfv import config as config_module
from acfv.config import (build_manifest, config_from_mapping, keys_read, load_config_file,
                         packaged_increments_path, parse_config_text,
                         preset_config)
from acfv.errors import ConfigError
from acfv.experiments import PATH_BLOCK, StudyConfig, format_float
from acfv.scheme import EpsilonSchedule


def test_parse_config_text():
    text = """
    # study parameters
    L = 4
    T = 1.0
    N_list = 8,16,32
    a = 1,5
    eps_rule = power
    eps_c = 0.1
    eps_p = 0.4
    path_file = paths.csv
    """
    mapping = parse_config_text(text)
    assert mapping["L"] == 4
    assert mapping["N_list"] == (8, 16, 32)
    assert mapping["a"] == (1.0, 5.0)
    assert mapping["eps_rule"] == "power"


@pytest.mark.parametrize("bad, match", [
    ("wavelength = 7", "unknown key"),
    ("L = 4\nL = 5", "duplicate"),
    ("L = four", "bad value"),
    ("just some words", "expected"),
])
def test_parse_rejects_malformed_input(bad, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(bad)


def test_parser_names_the_line_of_an_unread_key():
    # With a path_file simulate reads no seed, wherever the two lines stand.
    with pytest.raises(ConfigError, match="line 2: simulate does not read 'seed'"):
        parse_config_text("N = 4\nseed = 3\npath_file = p.csv\n", "simulate")
    assert parse_config_text("N = 4\nseed = 3\n", "simulate") == {"N": 4, "seed": 3}
    with pytest.raises(ConfigError, match="line 1: table-repro does not read 'N'"):
        parse_config_text("N = 4\npath_file = p.csv\n", "table-repro")


def test_documented_keys_match_parser():
    table = config_module.__doc__.split("Recognized keys::")[1]
    doc_keys = {line.split()[0] for line in table.splitlines()
                if re.match(r"    \S", line)}
    assert doc_keys == config_module._ALL_KEYS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"the keys\s*\(([^)]*)\)", readme).group(1)
    assert set(re.findall(r"`([^`]+)`", listed)) == config_module._ALL_KEYS


def test_mapping_to_config():
    config = config_from_mapping({
        "L": 3, "N": 8, "N_max": 16, "N_p": 2, "a": (1.0,),
        "eps_rule": "fixed", "eps_c": 0.05,
    })
    assert config.cells_per_axis == 3
    assert config.epsilon == EpsilonSchedule.fixed(0.05)
    with pytest.raises(ConfigError, match="eps_c"):
        config_from_mapping({"N": 8, "eps_rule": "fixed"})
    with pytest.raises(ConfigError, match="eps_rule"):
        config_from_mapping({"N": 8, "eps_rule": "cubic", "eps_c": 1.0})


def test_path_file_resolved_relative_to_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 4\npath_file = paths.csv\n")
    config = load_config_file(cfg)
    assert config.path_file == str(tmp_path / "paths.csv")
    with pytest.raises(ConfigError, match="not found"):
        load_config_file(tmp_path / "missing.cfg")


def test_presets_are_valid():
    for command in ("table-repro", "simulate", "expectation", "convergence",
                    "splitting-error"):
        for name in ("desk", "paper"):
            preset_config(command, name)
    with pytest.raises(ConfigError):
        preset_config("expectation", "galaxy")


def test_manifest_hash_tracks_content():
    config = preset_config("expectation", "desk")
    m1 = build_manifest("expectation", config)
    m2 = build_manifest("expectation", config)
    assert m1.run_id == m2.run_id
    assert m1.text() == m2.text()
    m3 = build_manifest("expectation", replace(config, seed=99))
    assert m3.run_id != m1.run_id
    assert "seed = 99" in m3.text()


def run_cli(*argv):
    return cli.main(list(argv))


def test_validate_command(capsys):
    assert run_cli("validate") == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "[FAIL]" not in out


def test_validate_takes_only_a_seed(tmp_path):
    cfg = tmp_path / "x.cfg"
    cfg.write_text("N = 4\n")
    for option in ("--config", "--preset", "--out", "--paths"):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("validate", option, str(cfg) if option == "--config" else "desk")
        assert exit_info.value.code == 2


def test_table_repro_preset_passes(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run_cli("table-repro", "--preset", "desk", "--out", out) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed
    for name in ("splitting_n2", "heat_n2", "splitting_n4", "manifest"):
        assert any(f.startswith(name) for f in os.listdir(out))
    first = (tmp_path / "run" / "splitting_n4.csv").read_bytes()
    assert run_cli("table-repro", "--preset", "desk", "--out", out) == 0
    assert (tmp_path / "run" / "splitting_n4.csv").read_bytes() == first


def test_table_repro_manifest_records_the_scenario_that_ran(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"path_file = {packaged_increments_path()}\n")
    out = tmp_path / "run"
    assert run_cli("table-repro", "--config", str(cfg), "--out", str(out)) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "cells_per_axis = 2" in manifest
    assert "amplitudes = 10" in manifest
    assert "n_steps = 4" in manifest
    assert (f"epsilon = power(c={format_float(0.1)}, p={format_float(1.0 / 3.0)})"
            in manifest)


def test_table_repro_requires_path_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("out_dir = o\n")
    assert run_cli("table-repro", "--config", str(cfg), "--out", str(tmp_path)) == 2

    cfg.write_text("path_file = nowhere.csv\n")
    assert run_cli("table-repro", "--config", str(cfg), "--out", str(tmp_path)) == 2


def test_table_repro_detects_perturbed_increments(tmp_path, capsys):
    values = [float(line) for line in
              open(packaged_increments_path(), encoding="ascii")]
    values[2] += 1e-3
    perturbed = tmp_path / "paths.csv"
    perturbed.write_text("".join(f"{v:.17g}\n" for v in values))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("path_file = paths.csv\n")
    code = run_cli("table-repro", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_simulate_writes_trajectory(tmp_path):
    out = str(tmp_path / "sim")
    assert run_cli("simulate", "--preset", "desk", "--out", out) == 0
    lines = (tmp_path / "sim" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "n,cell_index,value"
    assert len(lines) == 1 + 5 * 4  # steps 0..4 on four cells


def test_simulate_non_finite_path_exits_numerical(tmp_path):
    (tmp_path / "paths.csv").write_text("0.1\nnan\n-0.2\n0.3\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN = 4\na = 5\npath_file = paths.csv\n")
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 3
    assert not out.exists()


@pytest.mark.parametrize("command, keys, lines", [
    ("simulate", "L = 2\nN = 4\n", None),
    ("simulate", "L = 2\nN = 4\n", "abc\n"),
    ("table-repro", "", "abc\n"),
    ("table-repro", "", "0.1\n0.2\n0.3\n"),
], ids=["simulate-missing", "simulate-not-a-number", "table-repro-not-a-number",
        "table-repro-three-increments"])
def test_bad_path_file_is_a_configuration_error(tmp_path, capsys, command, keys, lines):
    path = tmp_path / "paths.csv"
    if lines is not None:
        path.write_text(lines)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys + "path_file = paths.csv\n")
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


def test_out_naming_a_file_is_rejected_before_the_study(tmp_path, capsys, monkeypatch):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")

    def no_study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "splitting_error_study", no_study)
    assert run_cli("splitting-error", "--preset", "desk", "--paths", "4",
                   "--out", str(afile)) == 2
    assert f"output directory {afile} exists and is not a directory" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"


def test_out_below_a_file_is_a_configuration_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN = 4\nN_p = 2\n")
    out = afile / "sub"
    assert run_cli("expectation", "--config", str(cfg), "--out", str(out)) == 2
    assert f"output directory {out}: Not a directory" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("command, keys", [
    ("expectation", "N = 8\n"),
    ("convergence", "N_max = 32\nN_list = 8,16\n"),
    ("splitting-error", "N_max = 32\nN_list = 8,16\neps_rule = fixed\neps_c = 0.05\n"),
])
def test_monte_carlo_commands_reject_path_file(tmp_path, command, keys):
    (tmp_path / "paths.csv").write_text("0.1\n0.2\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys + "L = 2\nN_p = 2\na = 10\npath_file = paths.csv\n")
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    cfg.write_text(keys + "L = 2\nN_p = 2\na = 10\n")
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 0


# What each command needs to run; a case adds the key under test.
BASE_KEYS = {
    "table-repro": f"path_file = {packaged_increments_path()}\n",
    "simulate": "L = 2\nN = 4\n",
}
MONTE_CARLO_BASE = "L = 2\nN_p = 2\na = 10\n"


@pytest.mark.parametrize("command, keys, key", [
    ("convergence", "N_max = 32\nN_list = 8,16\ncheckpoints = 5\n", "checkpoints"),
    ("splitting-error", "N_max = 32\nN_list = 8,16\neps_rule = fixed\neps_c = 0.05\n"
     "variant = heat\n", "variant"),
    ("splitting-error", "N_max = 32\nN_list = 8,16\neps_rule = fixed\neps_c = 0.05\n"
     "variant = coupled\n", "variant"),
    ("table-repro", "L = 3\n", "L"),
    ("table-repro", "L = 4\n", "L"),
    ("table-repro", "T = 2\n", "T"),
    ("table-repro", "a = 3\n", "a"),
    ("table-repro", "variant = heat\n", "variant"),
    ("table-repro", "eps_rule = fixed\neps_c = 0.05\n", "eps_rule"),
    ("table-repro", "seed = 3\n", "seed"),
    ("table-repro", "seed = 0\n", "seed"),
    ("simulate", "a = 10,20\n", "a"),
    ("simulate", "N_p = 7\n", "N_p"),
    ("simulate", "N_p = 1\n", "N_p"),
    ("simulate", "checkpoints = 2\n", "checkpoints"),
    ("simulate", f"path_file = {packaged_increments_path()}\nseed = 3\n", "seed"),
    ("simulate", f"path_file = {packaged_increments_path()}\nN_max = 8\n", "N_max"),
    ("expectation", "N = 8\nN_list = 8\n", "N_list"),
    ("convergence", "N = 8\nN_max = 32\nN_list = 8,16\n", "N"),
], ids=["convergence-checkpoints", "splitting-error-heat", "splitting-error-coupled",
        "table-repro-L", "table-repro-L-default", "table-repro-T", "table-repro-a",
        "table-repro-variant", "table-repro-eps", "table-repro-seed",
        "table-repro-seed-default", "simulate-a", "simulate-N_p", "simulate-N_p-default",
        "simulate-checkpoints", "simulate-path-seed", "simulate-path-N_max",
        "expectation-N_list", "convergence-N"])
def test_commands_reject_keys_they_ignore(tmp_path, capsys, command, keys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys + BASE_KEYS.get(command, MONTE_CARLO_BASE))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, option, value, key", [
    ("table-repro", "--seed", "0", "seed"),
    ("table-repro", "--paths", "1", "N_p"),
    ("simulate", "--paths", "1", "N_p"),
    ("simulate", "--seed", "0", "seed"),  # the desk preset injects its path
])
def test_overrides_reject_keys_the_command_does_not_read(tmp_path, capsys, command, option,
                                                         value, key):
    out = tmp_path / "o"
    assert run_cli(command, "--preset", "desk", option, value, "--out", str(out)) == 2
    assert f"'{key}' ({option})" in capsys.readouterr().err
    assert not out.exists()


def test_shipped_configs_and_presets_pass_the_key_check():
    configs = Path(__file__).resolve().parents[1] / "configs"
    for name, command in [("table_repro", "table-repro"), ("desk_expectation", "expectation"),
                          ("desk_convergence", "convergence"),
                          ("full_convergence", "convergence"),
                          ("desk_splitting_error", "splitting-error")]:
        load_config_file(configs / f"{name}.cfg", command)
    # A preset sets only fields its command reads; table-repro's is the scenario.
    fields = {"T": "horizon", "L": "cells_per_axis", "N": "n_steps", "N_max": "n_fine",
              "N_list": "n_steps_list", "N_p": "n_paths", "a": "amplitudes",
              "domain_half_width": "half_width", "eps_rule": "epsilon"}
    default = StudyConfig()
    for command in ("simulate", "expectation", "convergence", "splitting-error"):
        for preset in ("desk", "paper"):
            config = preset_config(command, preset)
            read = {fields.get(key, key)
                    for key in keys_read(command, config.path_file is not None)}
            assert all(getattr(config, f.name) == getattr(default, f.name)
                       for f in dataclasses.fields(config) if f.name not in read)
    for preset in ("desk", "paper"):
        assert preset_config("table-repro", preset) == replace(
            benchmark.SCENARIO, path_file=packaged_increments_path(), out_dir="out")


def test_non_finite_results_exit_numerical(tmp_path, capsys):
    # Every state stays finite, but the squared errors overflow.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 4\nN_max = 64\nN_list = 8,16,32\nN_p = 6\na = 1e160\n")
    out = tmp_path / "o"
    with np.errstate(over="ignore"):
        assert run_cli("convergence", "--config", str(cfg), "--out", str(out)) == 3
    assert "non-finite error at a=1e+160, N=8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("keys", ["N_max = 64\nN_list = 8,16,64\n", "N_list = 8,16,64\n"],
                         ids=["N_max", "N_max-unset"])
def test_convergence_rejects_n_max_in_n_list(tmp_path, capsys, keys):
    # The N_max run is the reference, so its error is zero and no fit can take it.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys + "L = 2\nN_p = 2\na = 1\n")
    out = tmp_path / "o"
    assert run_cli("convergence", "--config", str(cfg), "--out", str(out)) == 2
    assert "'N_list' holds N_max = 64" in capsys.readouterr().err
    assert not out.exists()


def test_convergence_rejects_a_repeated_step_count(tmp_path, capsys):
    # Two equal step sizes leave the log-log fit one point short.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN_max = 32\nN_list = 8,16,8\nN_p = 2\na = 1\n")
    out = tmp_path / "o"
    assert run_cli("convergence", "--config", str(cfg), "--out", str(out)) == 2
    assert "'N_list' repeats step count 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, keys", [
    ("expectation", "N_max = 8\n"),
    ("splitting-error", "N_max = 32\nN_list = 16,32\neps_rule = power\neps_c = 0.1\n"
     "eps_p = 0.4\n"),
    ("convergence", "N_max = 32\nN_list = 8\n"),
], ids=["expectation-without-N", "splitting-error-power-eps", "convergence-one-N"])
def test_failed_command_writes_nothing(tmp_path, command, keys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys + MONTE_CARLO_BASE)
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert not out.exists()


def test_zero_gap_exits_numerical(tmp_path, capsys):
    # Without noise the state stays in [0, 1], so both methods agree exactly.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN_max = 32\nN_list = 16,32\nN_p = 2\na = 0\n"
                   "eps_rule = fixed\neps_c = 0.05\n")
    out = tmp_path / "gap"
    assert run_cli("splitting-error", "--config", str(cfg), "--out", str(out)) == 3
    assert "error 0 at a=0, N=16 is not positive" in capsys.readouterr().err
    assert not out.exists()


def test_expectation_zero_amplitude(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 3\nN = 16\nN_max = 16\nN_p = 6\na = 0\n"
                   "checkpoints = 2,16\n")
    out = tmp_path / "exp"
    assert run_cli("expectation", "--config", str(cfg), "--out", str(out)) == 0
    lines = (out / "expectation.csv").read_text().splitlines()
    assert lines[0] == "a,n,N,E,absdiff"
    assert len(lines) == 3
    for line in lines[1:]:
        assert float(line.split(",")[4]) <= 1e-9


def test_convergence_desk_single_amplitude(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 4\nN_max = 4032\nN_list = 42,56,84,112,168,252,336,504\n"
                   "N_p = 20\na = 1\n")
    out = tmp_path / "conv"
    assert run_cli("convergence", "--config", str(cfg), "--out", str(out)) == 0
    error_lines = (out / "error.csv").read_text().splitlines()
    assert error_lines[0] == "a,N,tau,E"
    assert len(error_lines) == 9  # eight (tau, E) rows
    fit_lines = (out / "fit.csv").read_text().splitlines()
    assert fit_lines[0] == "a,m,intercept"
    assert len(fit_lines) == 2  # one fit row


def test_splitting_error_cli(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN_max = 32\nN_list = 16,32\nN_p = 4\na = 10\n"
                   "eps_rule = fixed\neps_c = 0.05\n")
    out = tmp_path / "gap"
    assert run_cli("splitting-error", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "splitting_error.csv").exists()
    assert (out / "splitting_error_fit.csv").exists()

    cfg.write_text("L = 2\nN_max = 32\nN_list = 16,32\nN_p = 4\na = 10\n"
                   "eps_rule = power\neps_c = 0.1\neps_p = 0.4\n")
    assert run_cli("splitting-error", "--config", str(cfg), "--out", str(out)) == 2


def test_config_and_preset_are_exclusive(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 4\n")
    assert run_cli("simulate", "--config", str(cfg), "--preset", "desk") == 2
    assert run_cli("simulate") == 2


@pytest.mark.parametrize("command, keys, outputs", [
    ("convergence", "N_max = 32\nN_list = 8,16\na = 3\n", ("error.csv", "fit.csv")),
    ("expectation", "N = 16\ncheckpoints = 2,16\na = 3\n", ("expectation.csv",)),
    ("splitting-error",
     "N_max = 32\nN_list = 8,16\neps_rule = fixed\neps_c = 0.05\na = 3\n",
     ("splitting_error.csv", "splitting_error_fit.csv")),
    ("convergence", "N_max = 32\nN_list = 8,16\na = 1,3\n", ("error.csv", "fit.csv")),
    ("expectation", "N = 16\ncheckpoints = 2,16\na = 1,3\n", ("expectation.csv",)),
], ids=["convergence", "expectation", "splitting-error", "convergence-two-amplitudes",
        "expectation-two-amplitudes"])
def test_outputs_identical_across_worker_counts(tmp_path, monkeypatch, command, keys,
                                                outputs):
    # More paths than two blocks, so the pool really splits the work.
    assert 600 > 2 * PATH_BLOCK
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys + "L = 2\nN_p = 600\nseed = 9\n")
    for workers in ("1", "2"):
        monkeypatch.setenv("ACFV_WORKERS", workers)
        assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / workers)) == 0
    for name in outputs:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_bad_worker_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ACFV_WORKERS", "many")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN = 8\nN_p = 2\na = 1\n")
    assert run_cli("expectation", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    from acfv.errors import NumericalFailure

    def explode(config, workers):
        raise NumericalFailure("solver stalled", residual=0.5)

    monkeypatch.setattr(cli, "convergence_study", explode)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN_max = 32\nN_list = 8,16\nN_p = 2\na = 1\n")
    assert run_cli("convergence", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
    assert not (tmp_path / "o").exists()


def test_seed_and_paths_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN = 8\nN_p = 4\na = 1\nseed = 3\n")
    out = tmp_path / "a"
    assert run_cli("expectation", "--config", str(cfg), "--out", str(out),
                   "--seed", "4", "--paths", "2") == 0
    manifest = (out / "manifest.txt").read_text()
    assert "seed = 4" in manifest
    assert "n_paths = 2" in manifest

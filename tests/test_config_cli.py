"""Configuration parsing, presets, manifests and the command-line interface."""

import argparse
import hashlib
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import acfv
from acfv import benchmark, cli, experiments, scheme
from acfv import config as config_module
from acfv.config import (build_manifest, config_from_mapping, load_config_file,
                         parse_config_text, preset_config)
from acfv.errors import ConfigError
from acfv.experiments import PATH_BLOCK, format_float
from acfv.scheme import EpsilonSchedule

INCREMENTS = str(benchmark.increments_file())


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
    assert doc_keys == set(config_module._KEYS)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"the keys\s*\(([^)]*)\)", readme).group(1)
    assert set(re.findall(r"`([^`]+)`", listed)) == set(config_module._KEYS)


def test_package_exports_match_the_readme_library():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n")[1].split("\n## ")[0]
    for name in acfv.__all__:
        assert f"`{name}`" in library, name
    listed = re.search(r"The package root exports (.*?)\n\n", library, re.S).group(1)
    exports = re.findall(r"`([^`]+)`", listed)
    assert sorted(exports) == sorted(acfv.__all__)
    for name in exports:
        assert getattr(acfv, name) is not None


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
    with pytest.raises(ConfigError, match="unknown key 'wavelength'"):
        config_from_mapping({"N": 8, "wavelength": 7})


def test_path_file_resolved_relative_to_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 4\npath_file = paths.csv\n")
    config = load_config_file(cfg)
    assert config.path_file == str(tmp_path / "paths.csv")
    with pytest.raises(ConfigError, match="missing.cfg: No such file or directory"):
        load_config_file(tmp_path / "missing.cfg")


@pytest.mark.parametrize("make, message", [
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"N = 4\n# caf\xe9\n"),
     "is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 11"),
], ids=["directory", "latin-1"])
def test_unreadable_config_file_is_a_configuration_error(tmp_path, capsys, make, message):
    cfg = tmp_path / "run.cfg"
    make(cfg)
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"configuration error: config file {cfg}" in err and message in err
    assert not out.exists()


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


def test_run_id_is_unchanged_and_the_passes_stay_out_of_it(monkeypatch, tmp_path):
    # The run_ids of the desk presets: the three Monte Carlo ones from before
    # the manifest recorded the passes, and those of simulate and table-repro
    # since their path_file enters the hash by its bytes, so the same in any
    # checkout and for a copy of the file elsewhere.  The passes line
    # follows run_id.
    run_ids = {"convergence": "f7daef2fe3e5", "expectation": "4bdfac6f626f",
               "splitting-error": "b46d8433821b", "simulate": "4a604cc45d01",
               "table-repro": "e6892db5a246"}
    copy = tmp_path / "increments.csv"
    copy.write_bytes(Path(INCREMENTS).read_bytes())
    for passes in (scheme.passes(), "compiled (clang, -O2)"):
        monkeypatch.setattr(config_module, "passes", lambda: passes)
        for command, run_id in run_ids.items():
            config = preset_config(command, "desk")
            manifest = build_manifest(command, config)
            assert manifest.run_id == run_id
            assert manifest.text().splitlines()[1:3] == [f"run_id = {run_id}",
                                                         f"passes = {passes}"]
            if config.path_file is not None:
                assert f"\npath_file = {config.path_file}\n" in manifest.text()
                moved = build_manifest(command, replace(config, path_file=str(copy)))
                assert moved.run_id == run_id


def test_run_id_is_the_sha256_of_the_command_and_its_config():
    # acfv takes sha256 from CPython's own module; hashlib's is the oracle.
    for command in ("convergence", "simulate"):  # without and with a path_file
        config = preset_config(command, "desk")
        manifest = build_manifest(command, config)
        lines = manifest.text().splitlines()[3:]  # the config, after the header
        if config.path_file is not None:
            digest = hashlib.sha256(Path(config.path_file).read_bytes()).hexdigest()
            lines = [f"path_file = sha256:{digest}" if line.startswith("path_file = ")
                     else line for line in lines]
        payload = "\n".join([command, *lines]).encode()
        assert manifest.run_id == hashlib.sha256(payload).hexdigest()[:12]


def test_a_desk_run_loads_neither_openssl_nor_numpy_polynomial(tmp_path):
    # hashlib maps OpenSSL's libcrypto for two digests, numpy.polynomial
    # costs 6 ms of import for one Horner loop.
    child = ("import sys\nfrom acfv import cli\n"
             f"code = cli.main(['convergence', '--preset', 'desk', '--out', {str(tmp_path)!r}])\n"
             "print(code, [m for m in ('_hashlib', 'numpy.polynomial') if m in sys.modules])\n")
    env = dict(os.environ, ACFV_WORKERS="1",
               PYTHONPATH=os.pathsep.join([str(Path(acfv.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 []", done.stderr


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
    assert run_cli("validate", "--seed", "-1") == 2  # a configuration error, not a failed check


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
    cfg.write_text(f"path_file = {INCREMENTS}\n")
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
              open(INCREMENTS, encoding="ascii")]
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


@pytest.mark.parametrize("command, keys, lines, named", [
    ("simulate", "L = 2\nN = 4\n", None, ""),
    ("simulate", "L = 2\nN = 4\n", "abc\n", ", line 1: 'abc' is not a finite number"),
    ("table-repro", "", "\n0.1\nabc\n", ", line 3: 'abc' is not a finite number"),
    ("table-repro", "", "0.1\n0.2\n0.3\n", ""),
    ("simulate", "L = 2\nN = 4\na = 5\n", "0.1\nnan\n-0.2\n0.3\n", ", line 2: 'nan'"),
    ("simulate", "L = 2\nN = 4\na = 5\n", "0.1\n-0.2\n-inf\n0.3\n", ", line 3: '-inf'"),
    ("table-repro", "", "# a comment\n0.1\nnan\n-0.2\n0.3\n", ", line 3: 'nan'"),
    ("table-repro", "", "0.1\n-0.2\n1e400\n0.3\n", ", line 3: '1e400'"),
], ids=["simulate-missing", "simulate-not-a-number", "table-repro-not-a-number",
        "table-repro-three-increments", "simulate-nan", "simulate-inf", "table-repro-nan",
        "table-repro-overflow"])
def test_bad_path_file_is_a_configuration_error(tmp_path, capsys, command, keys, lines, named):
    path = tmp_path / "paths.csv"
    if lines is not None:
        path.write_text(lines)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys + "path_file = paths.csv\n")
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert f"{path}{named}" in capsys.readouterr().err
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
    "table-repro": f"path_file = {INCREMENTS}\n",
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
    ("simulate", f"path_file = {INCREMENTS}\nseed = 3\n", "seed"),
    ("simulate", f"path_file = {INCREMENTS}\nN_max = 8\n", "N_max"),
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


def test_table_repro_presets_are_the_scenario_on_its_packaged_path():
    for preset in ("desk", "paper"):
        config = preset_config("table-repro", preset)
        assert Path(config.path_file).resolve() == Path(INCREMENTS).resolve()
        assert config == replace(benchmark.SCENARIO, path_file=config.path_file)


def test_presets_are_one_file_per_command_and_name():
    commands = next(action for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    offered = {(command, name) for command, parser in commands.choices.items()
               for action in parser._actions if action.dest == "preset"
               for name in action.choices}
    assert len(offered) == 10
    presets = Path(config_module.__file__).parent / "presets"
    assert sorted(p.name for p in presets.iterdir()) == sorted(
        f"{command}-{name}.cfg" for command, name in offered)


def test_paper_preset_run_ids_are_pinned():
    # Computed when the presets were Python literals; the files give the same configs.
    run_ids = {"table-repro": "e6892db5a246", "simulate": "ae8da315a735",
               "expectation": "5a1e87eb475f", "convergence": "000bb4c8ab7f",
               "splitting-error": "a16fb4c4713e"}
    for command, run_id in run_ids.items():
        assert build_manifest(command, preset_config(command, "paper")).run_id == run_id


def test_a_csv_that_cannot_be_written_exits_2_without_a_manifest(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "fit.csv").mkdir(parents=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN_max = 32\nN_list = 8,16\nN_p = 2\na = 1\n")
    assert run_cli("convergence", "--config", str(cfg), "--out", str(out)) == 2
    assert f"output file {out / 'fit.csv'}: Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["error.csv", "fit.csv"]


@pytest.mark.parametrize("width, message", [
    ("1e-8", "M + tau A does not factor at tau=0.125, N=8"),
    ("1e60", "non-finite start field at domain_half_width=1e+60, L=5"),
], ids=["tiny", "huge"])
def test_a_domain_the_scheme_cannot_run_exits_numerical(tmp_path, capsys, width, message):
    # At 1e-8 the mass term vanishes beside tau A, so M + tau A is singular
    # to rounding; at 1e60 the start field overflows before any step.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"L = 5\nN = 8\nN_p = 2\na = 1\ndomain_half_width = {width}\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():  # no numpy warning: the message says it all
        warnings.simplefilter("error")
        assert run_cli("expectation", "--config", str(cfg), "--out", str(out)) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["table-repro", "simulate", "expectation", "convergence",
                                     "splitting-error"])
def test_a_run_too_large_for_memory_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                               command):
    # As numpy fails to allocate the cells of L = 100000; nothing is allocated here.
    def build_uniform_mesh(cells_per_axis, half_width):
        raise MemoryError(f"Unable to allocate the cells of L = {cells_per_axis}")

    monkeypatch.setattr(experiments, "build_uniform_mesh", build_uniform_mesh)
    out = tmp_path / "o"
    assert run_cli(command, "--preset", "desk", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {command} does not fit in memory: ")
    assert "Unable to allocate the cells of L = " in err
    assert not out.exists()


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


@pytest.mark.parametrize("keys, message", [
    ("checkpoints = 4,2,4\na = 1\n", "'checkpoints' repeats checkpoint 4"),
    ("a = 1,1\n", "'a' repeats amplitude 1"),
], ids=["checkpoints", "a"])
def test_expectation_rejects_a_repeated_checkpoint_or_amplitude(tmp_path, capsys, keys, message):
    # A repeat would write its expectation.csv rows twice.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN = 8\nN_max = 8\nN_p = 2\n" + keys)
    out = tmp_path / "o"
    assert run_cli("expectation", "--config", str(cfg), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
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


@pytest.mark.parametrize("command, keys, message", [
    ("expectation", "N = 0\nN_max = 8\nN_p = 2\na = 1\n", "'N' must be a positive step count"),
    ("simulate", "N = 0\nN_max = 8\na = 1\n", "'N' must be a positive step count"),
    ("expectation", "N = 8\nN_p = 2\na = nan\n", "'a' must be nonempty, nonnegative and finite"),
    ("expectation", "N = 8\nN_p = 2\na = 1\ndomain_half_width = nan\n",
     "'domain_half_width' must be positive and finite"),
    ("expectation", "N = 8\nN_p = 2\na = 1\ndomain_half_width = 1e-200\n",
     "'domain_half_width' must be positive and finite, with a positive and finite cell area"),
    ("expectation", "N = 8\nN_p = 2\na = 1\ndomain_half_width = 1e200\n",
     "'domain_half_width' must be positive and finite, with a positive and finite cell area"),
    ("expectation", "N = 8\nN_p = 2\na = 1\nT = nan\neps_rule = fixed\neps_c = 0.05\n",
     "'T' must be positive and finite"),
    ("expectation", "N = 8\nN_p = 2\na = 1\neps_rule = fixed\neps_c = nan\n",
     "'eps_c' must be positive and finite"),
    ("expectation", "N = 8\nN_p = 2\na = 1\neps_rule = power\neps_c = 0.1\neps_p = nan\n",
     "'eps_p' must be finite"),
    ("convergence", "T = 2e8\nN_max = 4\nN_list = 1,2\nN_p = 1\na = 1\neps_rule = power\n"
     "eps_c = 0.1\neps_p = -40\n", "epsilon schedule produced invalid value 0.0 at N=1"),
    ("expectation", "T = 1e-320\nN = 100000\nN_max = 100000\na = 1\neps_rule = fixed\n"
     "eps_c = 0.1\n", "the step size T/N is 0 at N=100000"),
], ids=["expectation-N-0", "simulate-N-0", "a-nan", "domain_half_width-nan",
        "domain_half_width-cell-area-underflows", "domain_half_width-cell-area-overflows",
        "T-nan-fixed-eps", "eps_c-nan", "eps_p-nan", "eps-underflows-at-coarse-N",
        "step-size-underflows"])
def test_values_that_cannot_run_are_configuration_errors(tmp_path, capsys, command, keys,
                                                         message):
    # N = 0 is a step count, not an unset N; NaN fails every range check.
    # At L = 2 a half width of 1e-200 gives a cell area of 0 (every study
    # value would read 0) and one of 1e200 an infinite one.  A power-rule eps
    # that is positive at N_max may underflow at a coarser step count, and
    # a tiny T makes a step size of 0.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\n" + keys)
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
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
    # Three blocks, split 2/1 at two workers and 1/1/1 at three.
    assert 2 * PATH_BLOCK < 600 <= 3 * PATH_BLOCK
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys + "L = 2\nN_p = 600\nseed = 9\n")
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("ACFV_WORKERS", workers)
        assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / workers)) == 0
    for name in outputs:
        assert ((tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
                == (tmp_path / "3" / name).read_bytes())


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


@pytest.mark.parametrize("keys, message", [
    ("eps_c = 0.5\neps_p = 0.2\n", "'eps_c' needs eps_rule"),
    ("eps_p = 0.2\n", "'eps_p' needs eps_rule"),
    ("eps_rule = fixed\neps_c = 0.05\neps_p = 0.2\n", "eps_rule = fixed does not read 'eps_p'"),
], ids=["eps_c-and-eps_p-without-rule", "eps_p-without-rule", "eps_p-with-fixed-rule"])
def test_eps_keys_the_rule_does_not_read_are_rejected(tmp_path, capsys, keys, message):
    # Without eps_rule the run takes the default power(c=0.1, p=0.4), and a
    # fixed rule has no exponent: the keys would be ignored.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN = 8\nN_max = 8\nN_p = 2\na = 1\n" + keys)
    out = tmp_path / "o"
    assert run_cli("expectation", "--config", str(cfg), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_seed_beyond_64_bits_is_a_configuration_error(tmp_path, capsys):
    # The seed is a 64-bit word of each path's Philox key.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 2\nN = 4\nN_max = 4\nN_p = 2\na = 1\n")
    out = tmp_path / "o"
    assert run_cli("expectation", "--config", str(cfg), "--seed", str(2 ** 64),
                   "--out", str(out)) == 2
    assert "seed must be an integer in 0..2^64 - 1" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("expectation", "--config", str(cfg), "--seed", str(2 ** 64 - 1),
                   "--out", str(out)) == 0
    assert (out / "expectation.csv").exists()

"""The compiled passes: their build cache, concurrent and failed builds, and
whole commands against the numpy form of every compiled stage."""

import hashlib
import os
import runpy
import shlex
import subprocess
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import acfv
from acfv import cli, scheme, validation
from acfv.assembly import assemble_mass, assemble_stiffness
from acfv.linalg import ShiftedSolver
from acfv.mesh import build_uniform_mesh
from acfv.scheme import FLAGS, EpsilonSchedule, StepKernel, build_passes
from acfv.stochastic import sample_increment_block
from oracles import numpy_route

CC = os.environ.get("CC") or "cc"
ROOT = Path(__file__).parents[1]

# One splitting step of a lone run; prints the passes loaded and the
# state's bytes.
CHILD = """
from acfv import scheme
from acfv.assembly import assemble_mass, assemble_stiffness
from acfv.linalg import ShiftedSolver
from acfv.mesh import build_uniform_mesh
mesh = build_uniform_mesh(2)
solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), 0.125)
kernel = scheme.StepKernel("splitting", (4.0,), scheme.EpsilonSchedule.fixed(0.05), solver, 2)
(_, out), = kernel.run([[0.5, -0.5, 1.5, 0.25], [-0.0, 1.0, 0.9, 0.1]], [[0.3], [-0.2]])
print(scheme.passes(), out.tobytes().hex())
"""


def test_build_flags_keep_ieee_semantics():
    assert FLAGS == ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
    assert not any("fast-math" in flag or "march" in flag for flag in FLAGS)


def child_env(**env):
    """The environment of a child process that imports this checkout's acfv, with ``env``."""
    return dict(os.environ, **env,
                PYTHONPATH=os.pathsep.join([str(Path(acfv.__file__).parents[1]),
                                            os.environ.get("PYTHONPATH", "")]))


def test_concurrent_builds_into_an_empty_cache_both_load(tmp_path):
    cache = tmp_path / "cache"
    env = child_env(XDG_CACHE_HOME=str(cache))
    children = [subprocess.Popen([sys.executable, "-c", CHILD], env=env, text=True,
                                 stdout=subprocess.PIPE) for _ in range(2)]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(f"compiled ({CC}, {' '.join(FLAGS)}) ")
    [lib] = (cache / "acfv").iterdir()  # one library, no temporary file left
    assert lib.name.startswith("passes-") and lib.suffix == ".so"


def test_changed_source_or_flags_builds_a_new_library(tmp_path):
    # The cache key, on a stand-in source that builds in a fraction of the
    # time of passes.c.
    cache, source = tmp_path / "cache", tmp_path / "stand-in.c"
    source.write_text("int stand_in(void) { return 0; }\n")
    lib = build_passes(CC, source=source, directory=cache)
    built = lib.stat().st_mtime_ns
    assert build_passes(CC, source=source, directory=cache) == lib
    assert lib.stat().st_mtime_ns == built
    flagged = build_passes(CC, flags=("-O2", *FLAGS[1:]), source=source, directory=cache)
    source.write_text(source.read_text() + "/* changed */\n")
    changed = build_passes(CC, source=source, directory=cache)
    assert len({lib, changed, flagged}) == 3
    assert sorted(cache.iterdir()) == sorted([lib, changed, flagged])


def stage_bytes():
    """The states of three splitting and coupled steps of 9 paths (a full group of
    eight lanes and one row), dense (L = 4) and banded (L = 9), and 9 paths' increments."""
    out, rng = [], np.random.default_rng(9)
    for L in (4, 9):
        mesh = build_uniform_mesh(L)
        solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), 1 / 16)
        start, d_w = rng.uniform(-0.6, 1.6, (9, L * L)), rng.standard_normal((9, 3)) * 0.3
        for variant in ("splitting", "coupled"):
            kernel = StepKernel(variant, (7.0,), EpsilonSchedule.fixed(0.05), solver, 9)
            out += [state.tobytes() for _, state in kernel.run(start, d_w)]
    return out + [sample_increment_block(0, range(9), 1.0, 64).tobytes()]


@pytest.mark.parametrize("define", ["-DCLONES="], ids=["default"])
def test_every_clone_gives_the_bytes_of_the_host_library(monkeypatch, define):
    # The library picks the AVX-512 clone where the host has it, so the
    # plain one may never run here: built alone by a CLONES defined on the
    # command line, plain x86-64 code steps, solves and samples to the bytes
    # of the host's clone.
    host, host_library = stage_bytes(), scheme.compiled_library()
    scheme.compiled_library.cache_clear()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(scheme, "build_passes", partial(build_passes,
                                                            flags=(*FLAGS, define)))
            assert scheme.compiled_library()._name != host_library._name
            assert stage_bytes() == host
    finally:
        scheme.compiled_library.cache_clear()


def test_a_warm_cache_starts_no_compiler(tmp_path):
    # $CC is a wrapper that logs each call: a fresh process with the library
    # cached neither runs it nor imports subprocess, and a rewritten
    # compiler builds a new library.
    cache, log, wrapper = tmp_path / "cache", tmp_path / "calls.log", tmp_path / "logged-cc"

    def write_wrapper(note):
        wrapper.write_text(f'#!/bin/sh\n# {note}\necho "$@" >> {shlex.quote(str(log))}\n'
                           f'exec {CC} "$@"\n')
        wrapper.chmod(0o755)

    def fresh_process():
        child = subprocess.run(
            [sys.executable, "-c", "import sys\nfrom acfv import scheme\n"
             "scheme.compiled_library()\nprint('subprocess' in sys.modules)"],
            env=child_env(CC=str(wrapper), XDG_CACHE_HOME=str(cache)), capture_output=True,
            text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        return child.stdout.strip()

    write_wrapper("first")
    assert fresh_process() == "True"  # a cold cache builds
    calls = log.read_text()
    assert len(calls.splitlines()) == 1
    assert fresh_process() == "False"
    assert log.read_text() == calls
    write_wrapper("rewritten")
    assert fresh_process() == "True"
    assert len(log.read_text().splitlines()) == 2
    assert len(list((cache / "acfv").iterdir())) == 2


def test_a_failed_build_exits_2_and_says_why(tmp_path):
    # With one compiled route, the error is the user's only diagnosis: a
    # compiler that is not there, a cache path that is a file, and a
    # compiler that fails, whose last lines of stderr the message quotes.
    # Nothing is written.
    cache, not_a_directory, broken = tmp_path / "cache", tmp_path / "a-file", tmp_path / "broken-cc"
    not_a_directory.write_text("")
    broken.write_text('#!/bin/sh\necho "broken-cc: error: out of registers" >&2\nexit 3\n')
    broken.chmod(0o755)
    cases = [({"CC": str(tmp_path / "no-such-cc"), "XDG_CACHE_HOME": str(cache)},
              f"C compiler {str(tmp_path / 'no-such-cc')!r} ($CC, else cc) cannot run: "
              "No such file or directory"),
             ({"XDG_CACHE_HOME": str(not_a_directory)},
              f"cache directory {not_a_directory / 'acfv'} of the compiled passes: "
              "Not a directory"),
             ({"CC": str(broken), "XDG_CACHE_HOME": str(cache)},
              f"C compiler {str(broken)!r} ($CC, else cc) failed with exit 3:\n"
              "broken-cc: error: out of registers\n")]
    for env, cause in cases:
        out = tmp_path / "out"
        child = subprocess.run([sys.executable, "-m", "acfv.cli", "convergence", "--preset",
                                "desk", "--out", str(out)], env=child_env(**env),
                               capture_output=True, text=True, timeout=120)
        assert (child.returncode, child.stdout) == (2, ""), child.stderr
        assert child.stderr.startswith(f"configuration error: {cause}"), child.stderr
        assert not out.exists()


# Tiny runs of four commands in one process at two workers, scipy blocked;
# prints (marked by @) the exit codes, the scipy modules loaded, and which
# of numpy.random, the process pools' modules, subprocess and the validate
# and table-repro code were loaded after the import and after the runs.  The
# expectation run's 300 paths are two blocks, so it forks a worker.
NO_SCIPY_CHILD = """
import sys
sys.modules["scipy"] = None
from pathlib import Path
from acfv import cli
LAZY = ("numpy.random", "concurrent.futures", "multiprocessing", "subprocess",
        "acfv.validation", "acfv.benchmark")
print("@lazy", *[name for name in LAZY if name in sys.modules])
runs = {"convergence": "L = 3\\nN_max = 48\\nN_list = 6,12,24\\nN_p = 6\\na = 1,30\\n",
        "splitting-error": "L = 3\\nN_max = 32\\nN_list = 16,32\\nN_p = 4\\na = 10\\n"
                           "eps_rule = fixed\\neps_c = 0.05\\n",
        "expectation": "L = 9\\nN = 4\\nN_max = 4\\nN_p = 300\\na = 1\\ncheckpoints = 2,4\\n",
        "simulate": "L = 2\\nN = 8\\nN_max = 8\\n"}
for command, keys in runs.items():
    config = Path(sys.argv[1], command + ".cfg")
    config.write_text(keys)
    out = str(Path(sys.argv[1], command))
    print("@exit", cli.main([command, "--config", str(config), "--out", out]))
print("@lazy", *[name for name in LAZY if name in sys.modules])
print("@scipy", *sorted(name for name, module in sys.modules.items()
              if name.split(".")[0] == "scipy" and module is not None))
"""


def run_scipy_child(tmp_path):
    """NO_SCIPY_CHILD's output: {"exit": its four exit codes, "scipy": the
    scipy modules it loaded, "lazy": [the LAZY modules loaded after the
    import, and after the runs]}."""
    child = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD, str(tmp_path)],
                           env=child_env(ACFV_WORKERS="2"), text=True, capture_output=True,
                           timeout=300)
    assert child.returncode == 0, child.stderr
    out = {"exit": [], "scipy": [], "lazy": []}
    for tag, *rest in (line[1:].split() for line in child.stdout.splitlines()
                       if line.startswith("@")):
        out[tag].append(rest)
    return {"exit": [code for code, in out["exit"]], "scipy": out["scipy"][0],
            "lazy": out["lazy"]}


def test_compiled_route_imports_no_scipy(tmp_path):
    # With scipy blocked, tiny convergence, coupled splitting-error, banded
    # (d = 81) expectation and simulate runs exit 0: their factors come
    # from the compiled band Cholesky, their increments from the compiled
    # sampler and their operators from numpy arrays.  Nor is numpy.random loaded,
    # or concurrent.futures or multiprocessing, although the expectation run
    # forks a worker, or, with the library cached, subprocess, or the code of
    # validate and table-repro.
    scheme.compiled_library()
    child = run_scipy_child(tmp_path)
    assert child == {"exit": ["0"] * 4, "scipy": [], "lazy": [[], []]}


# A banded (d = 81) expectation run of two 256-path blocks, and a banded
# coupled gap of two blocks, 256 paths and one.
BANDED = "L = 9\nN = 64\nN_max = 64\nN_p = 300\na = 1,10\ncheckpoints = 8,64\n"
BANDED_GAP = ("L = 9\nN_max = 16\nN_list = 4,8\nN_p = 257\na = 10\n"
              "eps_rule = fixed\neps_c = 0.05\n")


@pytest.mark.parametrize("command, options, stages", [
    ("convergence", ["--preset", "desk"], {"bind", "draw", "ladder"}),
    ("expectation", ["--preset", "desk"], {"bind", "draw", "ladder"}),
    ("splitting-error", ["--preset", "desk"], {"bind", "draw", "ladder"}),
    ("simulate", ["--preset", "desk"], {"bind", "ladder"}),
    ("table-repro", ["--preset", "desk"], {"bind", "ladder"}),
    ("convergence", ["--preset", "desk", "--paths", "257"], {"bind", "draw", "ladder"}),
    ("expectation", ["--config", "banded.cfg"], {"bind", "draw", "ladder"}),
    ("splitting-error", ["--config", "banded-gap.cfg"], {"bind", "draw", "ladder"}),
], ids=["convergence", "expectation", "splitting-error", "simulate", "table-repro",
        "convergence-257", "banded-expectation", "banded-splitting-error"])
def test_commands_write_the_csvs_of_their_numpy_form(monkeypatch, tmp_path, command, options,
                                                      stages):
    # Each command's CSVs, from the compiled stages and from their numpy
    # forms: the desk presets (simulate and table-repro take one path); 257
    # paths, whose second block holds one path; and banded runs of two
    # blocks, the heat product by the band solve and the coupled Newton
    # solves by the band factor and solve.  The coupled rounds run their Newton
    # iteration in C, which its numpy form runs itself: no stage calls
    # band_product.  One worker, in this process.
    monkeypatch.setenv("ACFV_WORKERS", "1")
    monkeypatch.chdir(tmp_path)
    Path("banded.cfg").write_text(BANDED)
    Path("banded-gap.cfg").write_text(BANDED_GAP)

    def csvs(out):
        assert cli.main([command, *options, "--out", out]) == 0
        return {path.name: path.read_bytes() for path in Path(out).glob("*.csv")}

    compiled = csvs("compiled")
    with numpy_route(monkeypatch) as calls:
        assert csvs("numpy") == compiled and compiled
    assert set(calls) == stages


@contextmanager
def digest(monkeypatch):
    """For the block, a sha256 over every state ``StepKernel.run`` yields and every
    ``band_product`` result, in call order: what a printed summary rounds away."""
    sha = hashlib.sha256()
    run = StepKernel.run

    def hashed_run(self, *args, **kwargs):
        for n, state in run(self, *args, **kwargs):
            sha.update(state.tobytes())
            yield n, state

    def hashed(product):
        def call(*args):
            out = product(*args)
            sha.update(out.tobytes())
            return out
        return call

    with monkeypatch.context() as patched:
        patched.setattr(StepKernel, "run", hashed_run)
        for module in (acfv, scheme, validation):  # each holds band_product by name
            patched.setattr(module, "band_product", hashed(module.band_product))
        yield sha


def test_validate_prints_the_bytes_of_its_numpy_form(monkeypatch, capsys):
    # The structure suite steps one-path kernels, splitting and coupled, and
    # the matrix checks take band products; every state and product, not
    # only the printed summary, keeps its bytes.
    with digest(monkeypatch) as compiled_sha:
        assert cli.main(["validate"]) == 0
    compiled = capsys.readouterr().out
    with numpy_route(monkeypatch) as calls, digest(monkeypatch) as numpy_sha:
        assert cli.main(["validate"]) == 0
    assert capsys.readouterr().out == compiled
    assert numpy_sha.hexdigest() == compiled_sha.hexdigest() != hashlib.sha256().hexdigest()
    assert set(calls) == {"bind", "band_product"}


@pytest.mark.parametrize("demo", ["01_mesh_and_operators", "03_structure_properties"])
def test_demos_print_the_bytes_of_their_numpy_form(monkeypatch, capsys, demo):
    # Demos 01 and 03 reach the band product and the kernels through the
    # public API; every state and product keeps its bytes.
    path = str(ROOT / "demos" / f"{demo}.py")
    with digest(monkeypatch) as compiled_sha:
        runpy.run_path(path, run_name="__main__")
    compiled = capsys.readouterr().out
    with numpy_route(monkeypatch) as calls, digest(monkeypatch) as numpy_sha:
        runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out == compiled
    assert numpy_sha.hexdigest() == compiled_sha.hexdigest() != hashlib.sha256().hexdigest()
    assert calls

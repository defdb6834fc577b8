"""The compiled step passes: their build cache, concurrent builds and the numpy fallback."""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import acfv
from acfv import cli, linalg, scheme
from acfv.scheme import FLAGS, SOURCE, build_passes

CC = os.environ.get("CC") or "cc"
needs_cc = pytest.mark.skipif(shutil.which(shlex.split(CC)[0]) is None,
                              reason="no C compiler")

# One splitting step of a lone run; prints the passes loaded, the kernel's
# rounds and the state's bytes.
CHILD = """
from acfv import scheme
from acfv.assembly import assemble_mass, assemble_stiffness
from acfv.linalg import ShiftedSolver
from acfv.mesh import build_uniform_mesh
mesh = build_uniform_mesh(2)
solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), 0.125)
kernel = scheme.StepKernel("splitting", (4.0,), scheme.EpsilonSchedule.fixed(0.05), solver, 2)
(_, out), = kernel.run([[0.5, -0.5, 1.5, 0.25], [-0.0, 1.0, 0.9, 0.1]], [[0.3], [-0.2]])
print(scheme.passes(), kernel._bind.func.__name__, out.tobytes().hex())
"""


def test_build_flags_keep_ieee_semantics():
    assert FLAGS == ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
    assert not any("fast-math" in flag or "march" in flag for flag in FLAGS)


@needs_cc
def test_concurrent_builds_into_an_empty_cache_both_load(tmp_path):
    cache = tmp_path / "cache"
    env = dict(os.environ, XDG_CACHE_HOME=str(cache),
               PYTHONPATH=os.pathsep.join([str(Path(acfv.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    children = [subprocess.Popen([sys.executable, "-c", CHILD], env=env, text=True,
                                 stdout=subprocess.PIPE) for _ in range(2)]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert outputs[0] == outputs[1]
    rounds = "_compiled_passes" if scheme._dgemm() is not None else "_numpy_passes"
    assert outputs[0].startswith(f"compiled ({CC}, {' '.join(FLAGS)}) {rounds} ")
    [lib] = (cache / "acfv").iterdir()  # one library, no temporary file left
    assert lib.name.startswith("passes-") and lib.suffix == ".so"


@needs_cc
def test_changed_source_or_flags_builds_a_new_library(tmp_path):
    cache = tmp_path / "cache"
    lib = build_passes(CC, directory=cache)
    built = lib.stat().st_mtime_ns
    assert build_passes(CC, directory=cache) == lib and lib.stat().st_mtime_ns == built
    source = tmp_path / "passes.c"
    source.write_text(SOURCE.read_text() + "/* changed */\n")
    changed = build_passes(CC, source=source, directory=cache)
    flagged = build_passes(CC, flags=("-O2", *FLAGS[1:]), directory=cache)
    assert len({lib, changed, flagged}) == 3
    assert sorted(cache.iterdir()) == sorted([lib, changed, flagged])


def test_missing_compiler_falls_back_to_numpy_with_the_same_bytes(tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("L = 3\nN_max = 48\nN_list = 6,12,24\nN_p = 6\na = 1,30\n"
                      "eps_rule = power\neps_c = 0.1\neps_p = 0.4\n")

    def run(out):
        assert cli.main(["convergence", "--config", str(config), "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    built = run(tmp_path / "built")
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    scheme.compiled_library.cache_clear()
    try:
        fallback = run(tmp_path / "fallback")
    finally:
        scheme.compiled_library.cache_clear()
    assert b"\npasses = numpy\n" in fallback.pop("manifest.txt")
    built.pop("manifest.txt")
    assert fallback == built and set(built) == {"error.csv", "fit.csv"}


# Tiny runs of four commands in one process, scipy optionally blocked;
# prints (marked by @) the exit codes, the scipy modules loaded, and which
# of numpy.random and the process pool's module were loaded after the
# import and after the runs.
NO_SCIPY_CHILD = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from pathlib import Path
from acfv import cli
LAZY = ("numpy.random", "concurrent.futures.process")
print("@lazy", *[name for name in LAZY if name in sys.modules])
runs = {"convergence": "L = 3\\nN_max = 48\\nN_list = 6,12,24\\nN_p = 6\\na = 1,30\\n",
        "splitting-error": "L = 3\\nN_max = 32\\nN_list = 16,32\\nN_p = 4\\na = 10\\n"
                           "eps_rule = fixed\\neps_c = 0.05\\n",
        "expectation": "L = 9\\nN = 4\\nN_max = 4\\nN_p = 4\\na = 1\\ncheckpoints = 2,4\\n",
        "simulate": "L = 2\\nN = 8\\nN_max = 8\\n"}
for command, keys in runs.items():
    config = Path(sys.argv[2], command + ".cfg")
    config.write_text(keys)
    out = str(Path(sys.argv[2], command))
    print("@exit", cli.main([command, "--config", str(config), "--out", out]))
print("@lazy", *[name for name in LAZY if name in sys.modules])
print("@scipy", *sorted(name for name, module in sys.modules.items()
              if name.split(".")[0] == "scipy" and module is not None))
"""


def run_scipy_child(tmp_path, mode, **env):
    """NO_SCIPY_CHILD's output: {"exit": its four exit codes, "scipy": the
    scipy modules it loaded, "lazy": [the LAZY modules loaded after the
    import, and after the runs]}."""
    env = dict(os.environ, ACFV_WORKERS="1", **env,
               PYTHONPATH=os.pathsep.join([str(Path(acfv.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD, mode, str(tmp_path)], env=env,
                           text=True, capture_output=True, timeout=300)
    assert child.returncode == 0, child.stderr
    out = {"exit": [], "scipy": [], "lazy": []}
    for tag, *rest in (line[1:].split() for line in child.stdout.splitlines()
                       if line.startswith("@")):
        out[tag].append(rest)
    return {"exit": [code for code, in out["exit"]], "scipy": out["scipy"][0],
            "lazy": out["lazy"]}


@needs_cc
@pytest.mark.skipif(linalg.lapack().route == "scipy.linalg.lapack",
                    reason="numpy's BLAS exports no 64-bit LAPACK here")
def test_compiled_route_imports_no_scipy(tmp_path):
    # With scipy blocked, tiny convergence, coupled splitting-error, banded
    # (d = 81) expectation and simulate runs exit 0: their factors come
    # from numpy's own LAPACK, their increments from the compiled sampler
    # and their operators from numpy arrays.  Nor is numpy.random loaded,
    # not even by the dgemm probe of the first dense kernel of more than
    # one path, or the process pool, which one-worker runs never open.
    child = run_scipy_child(tmp_path, "blocked")
    assert child == {"exit": ["0"] * 4, "scipy": [], "lazy": [[], []]}


def test_numpy_passes_import_scipy_special_only(tmp_path):
    # Without a C compiler the Gaussians come from numpy's Philox and
    # scipy.special.ndtri, loaded by the first run; nothing imports
    # scipy.linalg or scipy.sparse.
    child = run_scipy_child(tmp_path, "open", CC=str(tmp_path / "no-such-cc"))
    assert child["exit"] == ["0"] * 4 and "scipy.special" in child["scipy"]
    assert not [name for name in child["scipy"]
                if name.startswith(("scipy.linalg", "scipy.sparse"))]
    assert child["lazy"] == [[], ["numpy.random"]]

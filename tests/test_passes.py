"""The compiled step passes: their build cache, concurrent builds and the numpy fallback."""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import acfv
from acfv import cli, scheme
from acfv.scheme import FLAGS, SOURCE, build_passes

CC = os.environ.get("CC") or "cc"
needs_cc = pytest.mark.skipif(shutil.which(shlex.split(CC)[0]) is None,
                              reason="no C compiler")

# One splitting step of a lone run; prints the passes that ran and the state's bytes.
CHILD = """
from acfv import scheme
from acfv.assembly import assemble_mass, assemble_stiffness
from acfv.linalg import ShiftedSolver
from acfv.mesh import build_uniform_mesh
mesh = build_uniform_mesh(2)
solver = ShiftedSolver(assemble_mass(mesh), assemble_stiffness(mesh), 0.125)
kernel = scheme.StepKernel("splitting", (4.0,), scheme.EpsilonSchedule.fixed(0.05), solver, 2)
print(scheme.passes()[1], kernel([[0.5, -0.5, 1.5, 0.25], [-0.0, 1.0, 0.9, 0.1]], [0.3, -0.2]).tobytes().hex())
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
    assert outputs[0].startswith(f"compiled ({CC}, {' '.join(FLAGS)}); ")
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
    scheme.passes.cache_clear()
    try:
        fallback = run(tmp_path / "fallback")
    finally:
        scheme.passes.cache_clear()
    assert b"\npasses = numpy\n" in fallback.pop("manifest.txt")
    built.pop("manifest.txt")
    assert fallback == built and set(built) == {"error.csv", "fit.csv"}

"""Tests of the benchmark itself: tiny-size smoke runs and the output checker.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import output_problems  # noqa: E402
from run import Child, Invocation  # noqa: E402
from workloads import OUTPUTS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_outputs_pass_the_checker(workload, tmp_path):
    names = OUTPUTS[WORKLOADS[workload].command]
    reference = BENCH / "reference" / workload
    for name in names:
        shutil.copyfile(reference / name, tmp_path / name)
    assert output_problems(tmp_path, names, reference) == []


def test_injected_nan_is_a_failure(tmp_path):
    reference = BENCH / "reference" / "conv-paper-reduced"
    names = OUTPUTS["convergence"]
    for name in names:
        shutil.copyfile(reference / name, tmp_path / name)
    lines = (tmp_path / "error.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[-1] = "nan"
    lines[3] = ",".join(fields)
    (tmp_path / "error.csv").write_text("\n".join(lines) + "\n")
    for reference_dir in (None, reference):
        problems = output_problems(tmp_path, names, reference_dir)
        assert len(problems) == 1 and "not finite" in problems[0]

    job = Invocation(WORKLOADS["conv-paper-reduced"], seed=0, tiny=False)
    try:
        job.check("copy", Child(1.0, 0, 50.0, "", ""), tmp_path)
    finally:
        shutil.rmtree(job.work)
    assert (job.attempted, job.failed) == (1, 1)


def test_value_off_the_reference_is_a_failure(tmp_path):
    reference = BENCH / "reference" / "gap-coupled"
    names = OUTPUTS["splitting-error"]
    for name in names:
        shutil.copyfile(reference / name, tmp_path / name)
    text = (tmp_path / "splitting_error_fit.csv").read_text()
    header, row = text.splitlines()
    a, slope, intercept = row.split(",")
    changed = f"{a},{float(slope) * (1 + 1e-6)!r},{intercept}"
    (tmp_path / "splitting_error_fit.csv").write_text(f"{header}\n{changed}\n")
    assert len(output_problems(tmp_path, names, reference)) == 1
    assert output_problems(tmp_path, names, None) == []

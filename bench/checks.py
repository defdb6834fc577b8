"""Correctness checks on the CSV files one CLI run leaves in its output directory.

A run passes when every expected CSV exists and every value in it is
finite.  For the default seed the values must also agree with the stored
reference outputs to REL_TOL relative (ABS_TOL absolute): later changes
may move the last bits of a result, never more.  Worker invariance is
checked separately by comparing bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

REL_TOL = 1e-7
ABS_TOL = 1e-12


def read_csv(path: Path):
    """Header and data rows (lists of fields) of one CSV file."""
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines:
        return "", []
    return lines[0], [line.split(",") for line in lines[1:]]


def finite_problems(path: Path) -> list:
    """Fields of a CSV that are not finite numbers."""
    _, rows = read_csv(path)
    problems = []
    for lineno, row in enumerate(rows, start=2):
        for field in row:
            try:
                value = float(field)
            except ValueError:
                problems.append(f"{path.name}:{lineno}: not a number: {field!r}")
                continue
            if not math.isfinite(value):
                problems.append(f"{path.name}:{lineno}: not finite: {field!r}")
    if not rows:
        problems.append(f"{path.name}: no data rows")
    return problems


def reference_problems(path: Path, reference: Path) -> list:
    """Disagreements between a CSV and its stored reference."""
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{path.name}: shape differs from the reference"]
    problems = []
    for lineno, (row, ref_row) in enumerate(zip(rows, ref_rows), start=2):
        if len(row) != len(ref_row):
            problems.append(f"{path.name}:{lineno}: field count differs")
            continue
        for field, ref_field in zip(row, ref_row):
            value, ref = float(field), float(ref_field)
            if not abs(value - ref) <= REL_TOL * abs(ref) + ABS_TOL:
                problems.append(f"{path.name}:{lineno}: {field} != reference {ref_field}")
    return problems


def output_problems(out_dir: Path, names, reference_dir: Path | None = None) -> list:
    """Every problem found in the named CSVs of one run; empty when it passes."""
    problems = []
    for name in names:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        found = finite_problems(path)
        if not found and reference_dir is not None:
            found = reference_problems(path, reference_dir / name)
        problems += found
    return problems

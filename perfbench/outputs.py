"""Checks on what one program process left behind, against recorded references.

A run is correct when it exits 0 or 1 (1 only with a FAIL verdict in its
report), every artifact exists, each point has the expected number of
samples, and the final ``Em``, ``u_Hm`` and ``u_mean`` of ``timeseries.csv``
lie within ``RTOL`` of the reference, measured against the largest magnitude
that series reached in the reference run.  That scale makes roundoff-level
reorderings pass while a wrong diagnostic fails.  Verdicts are not part of
correctness: they are counted (FAIL verdicts) and compared with the reference
(verdicts that changed), so a run that moves a verdict shows in the trace.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

RTOL = 1e-8
FINAL = ("Em", "u_Hm", "u_mean")
RUN_ARTIFACTS = ("timeseries.csv", "report.txt", "report.csv", "constants.txt", "resolved.cfg")


def read_timeseries(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as src:
        rows = [line for line in src if not line.startswith("#")]
    return list(csv.DictReader(rows))


def _point_dirs(command: str, out: Path, points: int) -> list[Path]:
    if command == "sweep":
        return [out / f"point-{i:03d}" for i in range(points)]
    return [out]


def _verdicts(command: str, out: Path, point_dirs: list[Path]) -> list[dict[str, str]]:
    if command == "sweep":
        with open(out / "summary.csv", newline="") as src:
            rows = list(csv.DictReader(line for line in src if not line.startswith("#")))
        fixed = {"point", "exit_code", "all_passed", "t_max_empirical"}
        return [{k: v for k, v in row.items() if k not in fixed and "." not in k} for row in rows]
    with open(point_dirs[0] / "report.csv", newline="") as src:
        return [{row["check_id"]: row["status"] for row in csv.DictReader(src)}]


def summarize(command: str, out: Path, points: int) -> list[dict]:
    """Per point: sample count, final diagnostics, each series' scale, verdicts."""
    dirs = _point_dirs(command, out, points)
    verdicts = _verdicts(command, out, dirs)
    summary = []
    for directory, checks in zip(dirs, verdicts):
        rows = read_timeseries(directory / "timeseries.csv")
        summary.append({
            "samples": len(rows),
            "final": {key: float(rows[-1][key]) for key in FINAL},
            "scale": {key: max(abs(float(r[key])) for r in rows) for key in FINAL},
            "verdicts": checks,
        })
    return summary


def check(command: str, out: Path, exit_code: int, points: int, n_samples: int,
          reference: list[dict] | None) -> tuple[list[str], int, int]:
    """(problems, FAIL verdicts, verdicts changed from the reference)."""
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"], 0, 0
    dirs = _point_dirs(command, out, points)
    expected = [d / name for d in dirs for name in RUN_ARTIFACTS]
    if command == "sweep":
        expected += [out / "summary.csv", out / "constants.txt"]
    missing = [str(p.relative_to(out)) for p in expected if not p.is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"], 0, 0
    try:
        summary = summarize(command, out, points)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], 0, 0

    problems = []
    if len(summary) != points:
        problems.append(f"{len(summary)} points in the summary, expected {points}")
    fails = sum(v == "FAIL" for point in summary for v in point["verdicts"].values())
    if (exit_code == 1) != (fails > 0):
        problems.append(f"exit code {exit_code} with {fails} FAIL verdicts")
    changed = 0
    for index, point in enumerate(summary):
        label = f"point {index}"
        if point["samples"] != n_samples:
            problems.append(f"{label}: {point['samples']} samples, expected {n_samples}")
        for key, value in point["final"].items():
            if not math.isfinite(value):
                problems.append(f"{label}: final {key} = {value}")
        if reference is None:
            continue
        ref = reference[index]
        for key, value in point["final"].items():
            tolerance = RTOL * max(ref["scale"][key], 1e-300)
            if not abs(value - ref["final"][key]) <= tolerance:
                problems.append(
                    f"{label}: final {key} = {value!r}, reference {ref['final'][key]!r} "
                    f"(tolerance {tolerance:.3g})"
                )
        changed += sum(point["verdicts"].get(k) != v for k, v in ref["verdicts"].items())
    return problems, fails, changed

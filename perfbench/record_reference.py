"""Record the reference outputs of every workload variant into reference.json.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

Run it only when the program's results are meant to change; the benchmark
compares every later run against what this writes.
"""

from __future__ import annotations

import json
import shutil
import sys

import outputs
import run
import workloads


def record(name: str, variant: int) -> dict:
    shape = workloads.WORKLOADS[name]
    work = run.WORK / f"reference-{name}-{variant}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = run.prepare(name, variant, shape, work)
        out = work / "iter" / "out"
        result = run.run_process(workloads.cli_args(shape, config, out), work / "iter",
                                 f"reference/{name}/{variant}", False, timeout=600.0)
        problems = run.program_problems(result) or outputs.check(
            shape.command, out, result["exit_code"], shape.points, shape.n_samples, None)[0]
        if problems:
            raise SystemExit(f"{name} variant {variant}: {'; '.join(problems)}")
        entries = workloads.scenario(name, variant, shape, None)
        return {
            "exit_code": result["exit_code"],
            "inputs": {k: entries[k] for k in ("initial.mode", "source.preset", "source.seed") if k in entries},
            "points": outputs.summarize(shape.command, out, shape.points),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    table = {}
    for name, shape in workloads.WORKLOADS.items():
        table[name] = {}
        for variant in range(shape.variants):
            table[name][str(variant)] = entry = record(name, variant)
            verdicts = [v for p in entry["points"] for v in p["verdicts"].values()]
            print(f"{name} variant {variant}: exit {entry['exit_code']}, "
                  f"{verdicts.count('FAIL')} FAIL verdicts", flush=True)
    document = {
        "machine": run.machine_info(),
        "workloads": table,
    }
    (run.HERE / "reference.json").write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""toruswave benchmark: end-to-end timings and an outside-in per-layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 20 --trace 0

Each iteration is one fresh program process running ``toruswave.cli.main``
on the generated scenario, so it pays interpreter start, import, the cold
caches and any on-the-fly calibration, as ``toruswave run`` does.  The loop
is closed: one process at a time, and another starts while the previous
one's duration still fits in ``--seconds``.  Every timing is scaled to the
reference machine speed by ``speed.Sampler``, and each metric is the median
over the iterations; the wall-clock medians are printed beside them.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
iterations alternate traced and untraced (at least one of each) and the
metrics are the per-layer ones from the traced processes, plus the tracing
overhead.  The last line of standard output is the JSON result.
``--workload all`` runs every workload in turn and prints one JSON line each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0  # every run exits well inside 180 s
MIN_SETUPS = 3  # set-up-only processes top up runs with fewer iterations
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else {}
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in BENCHMARK.get(key, [])}


def machine_info() -> dict[str, str]:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as src:
            cpu = next(line.split(":", 1)[1].strip() for line in src if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import numpy.fft._pocketfft_umath  # noqa: F401
        backend = "pocketfft"
    except ImportError:
        backend = "unknown"
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft": f"{backend} via {np.fft.fftn.__module__}",
    }


def run_process(cli_args: list[str], run_dir: Path, run_id: str, traced: bool, timeout: float,
                setup_only: bool = False) -> dict:
    """Launch one program process and wait for it.

    Records wall times of the whole process, its set-up and its solve, each
    also scaled to the reference speed, and peak RSS from wait4.  With
    ``setup_only`` the process runs only the set-up of the scenario file
    ``cli_args[0]``.
    """
    run_dir.mkdir(parents=True)
    result = run_dir / "result.json"
    span_dir = run_dir / "spans"
    if traced:
        span_dir.mkdir()
    argv = [sys.executable, str(HERE / "shim.py"), str(result),
            str(span_dir) if traced else "-", run_id, "--setup" if setup_only else "--", *cli_args]
    with open(run_dir / "program.log", "wb") as log, speed.Sampler() as sampler:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=run_dir, env=workloads.program_env(ROOT),
                                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        # the whole session, so anything the program starts dies with it
        killer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    record = {"exit_code": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0, "traced": traced}
    windows = {"total": (start, end)}
    if result.is_file():
        marks = json.loads(result.read_text())
        record["module"] = marks["module"]
        windows["setup"] = (marks["setup_start"], marks["setup_end"])
        windows["solve"] = (marks["setup_end"], marks["done"])
    record["probe_s"] = statistics.median(seconds for _, seconds in sampler.samples)
    for key, (begin, finish) in windows.items():
        record[f"wall_{key}_s"] = finish - begin
        record[f"{key}_s"] = sampler.scale(finish - begin, begin, finish)
    if traced:
        record["span_files"] = sorted(span_dir.glob("*.spans"))
    return record


def program_problems(record: dict) -> list[str]:
    if "setup_s" not in record:
        return [f"no result from the program process (exit {record['exit_code']})"]
    module = Path(record["module"]).resolve()
    if ROOT / "src" not in module.parents:
        return [f"imported toruswave from {module}, not this checkout"]
    return []


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def prepare(name: str, seed: int, shape: workloads.Shape, work: Path) -> Path:
    """Write the generated scenario (and any ahead-of-time constants) into ``work``."""
    constants = None
    if shape.calibrate_ahead:
        constants = workloads.ensure_constants(ROOT, WORK / "cache", shape.grid_n, DEADLINE_S / 2)
    config = work / f"{name}.cfg"
    workloads.write_config(config, workloads.scenario(name, seed, shape, constants))
    return config


def benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
              reference: dict | None) -> dict:
    began = time.perf_counter()
    shape = (workloads.TINY if tiny else workloads.WORKLOADS)[name]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        config = prepare(name, seed, shape, work)
        ref = None
        if reference is not None:
            ref = reference[name][str(shape.variant(seed))]["points"]

        records, problems = [], []
        fails = changed = 0
        measure_start = time.perf_counter()
        while True:
            # stop when another iteration as long as the last would overrun
            last = records[-1]["wall_total_s"] if records else 0.0
            elapsed = time.perf_counter() - measure_start
            kinds = {r["traced"] for r in records}
            enough = elapsed + last > seconds and (not trace or kinds == {True, False})
            if records and (enough or time.perf_counter() - began + 1.2 * last > DEADLINE_S):
                break
            index = len(records)
            traced = trace and index % 2 == 0
            run_dir = work / f"iter-{index:03d}"
            out = run_dir / "out"
            record = run_process(workloads.cli_args(shape, config, out), run_dir,
                                 f"{name}/seed-{seed}/iter-{index}", traced,
                                 DEADLINE_S - (time.perf_counter() - began))
            found = program_problems(record)
            if not found:
                found, n_fail, n_changed = outputs.check(
                    shape.command, out, record["exit_code"], shape.points, shape.n_samples, ref)
                fails, changed = max(fails, n_fail), max(changed, n_changed)
            record["failed"] = bool(found)
            problems += [f"iteration {index}: {p}" for p in found]
            if traced and not found:
                import spans

                record["layers"] = spans.metrics(
                    record["span_files"], n_steps=shape.n_steps * shape.points,
                    n_samples=shape.n_samples * shape.points, grid_n=shape.grid_n)
            records.append(record)
            if out.exists():
                shutil.rmtree(out)

        # Long iterations leave few set-up times in a run; time more set-ups alone.
        setups = []
        while not trace and len(records) + len(setups) < MIN_SETUPS:
            last = setups[-1]["wall_total_s"] if setups else records[-1].get("wall_setup_s", 0.0) + 1.0
            if time.perf_counter() - began + 1.2 * last > DEADLINE_S:
                break
            index = len(setups)
            record = run_process([str(config)], work / f"setup-{index:03d}",
                                 f"{name}/seed-{seed}/setup-{index}", False,
                                 DEADLINE_S - (time.perf_counter() - began), setup_only=True)
            found = program_problems(record)
            if not found and record["exit_code"] != 0:
                found = [f"exit code {record['exit_code']}"]
            record["failed"] = bool(found)
            problems += [f"set-up {index}: {p}" for p in found]
            setups.append(record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in records if not r["failed"]]
    untraced = [r for r in ok if not r["traced"]]
    set_up = untraced + [r for r in setups if not r["failed"]]
    if trace:
        traced_ok = [r for r in ok if r["traced"]]
        layer_names = traced_ok[0]["layers"] if traced_ok else {}
        values = {k: _median(r["layers"][k] for r in traced_ok) for k in layer_names}
        values["verify.checks_failed"] = fails
        values["verify.verdicts_changed"] = changed
        traced_total = _median(r["total_s"] for r in traced_ok)
        values["trace.total_s"] = traced_total
        values["trace.overhead_s"] = traced_total - _median(r["total_s"] for r in untraced)
    else:
        values = {
            "total_s": _median(r["total_s"] for r in untraced),
            "setup_s": _median(r["setup_s"] for r in set_up),
            "solve_s": _median(r["solve_s"] for r in untraced),
            "peak_rss_mb": _median(r["peak_rss_mb"] for r in untraced),
        }
    wall = {
        "total_s": _median(r["wall_total_s"] for r in untraced),
        "setup_s": _median(r["wall_setup_s"] for r in set_up),
        "solve_s": _median(r["wall_solve_s"] for r in untraced),
        "probe_s": _median(r["probe_s"] for r in untraced),
    }
    failed = sum(r["failed"] for r in records + setups)
    return {
        "correct": failed == 0 and bool(records),
        "attempted": len(records) + len(setups),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "")} for k, v in values.items()},
        "problems": problems,
        "wall": wall,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="8-cube, few-step shapes with no reference values (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "toruswave" / "cli.py").is_file():
        print(f"no toruswave source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    reference = None
    if not args.tiny:
        reference = json.loads((HERE / "reference.json").read_text())["workloads"]

    info = machine_info()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = benchmark(name, args.seed, args.seconds, bool(args.trace), args.tiny, reference)
        for problem in result.pop("problems"):
            print(f"{name}: incorrect: {problem}")
        print(f"{name}: attempted={result['attempted']} failed={result['failed']} "
              f"failed_frac={result['failed'] / max(result['attempted'], 1):.3g}")
        for key, metric in result["metrics"].items():
            print(f"{name}: {key} = {metric['value']:.6g} {metric['unit']}")
        for key, value in result.pop("wall").items():
            print(f"{name}: unscaled {key} = {value:.6g} s")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

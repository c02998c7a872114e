"""The benchmark's own tests: python3 -m pytest -q perfbench/selftest.py

Smoke runs use the 8-cube ``--tiny`` shapes, which take the same code paths
as the full workloads in about a second each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_smoke_run_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["attempted"] >= run.MIN_SETUPS  # set-up-only processes top up


def _one_process(tmp_path: Path, name: str, traced: bool) -> tuple[dict, Path]:
    shape = workloads.TINY[name]
    config = run.prepare(name, 1, shape, tmp_path)
    out = tmp_path / "iter" / "out"
    record = run.run_process(workloads.cli_args(shape, config, out), tmp_path / "iter",
                             "selftest", traced, timeout=120.0)
    assert not run.program_problems(record)
    return record, out


@pytest.mark.parametrize("workload", ["flagship", "sweep"])
def test_self_times_sum_to_the_traced_total(tmp_path, workload):
    record, _ = _one_process(tmp_path, workload, traced=True)
    files = record["span_files"]
    assert len(files) == 1
    for path in files:
        header, name_id, parent, start, end = spans.load(path)
        roots = parent < 0
        assert roots.sum() == 1  # cli.main
        assert np.all(end >= start)
        own = spans.self_times(parent, end - start)
        total = float((end - start)[roots][0])
        assert abs(own.sum() - total) <= 1e-9 * total
        assert np.all(own >= -1e-9)
    layers = spans.metrics(files, n_steps=1, n_samples=1, grid_n=8)
    layer_self = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    all_self = sum(spans.self_times(p, e - s).sum() for _, _, p, s, e in map(spans.load, files))
    assert abs(layer_self - all_self) <= 1e-9 * all_self


def test_scale_uses_the_probe_samples_of_its_window():
    sampler = speed.Sampler()
    sampler.samples = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 4.0), (4.0, 4.0)]
    assert sampler.scale(10.0, 0.0, 3.0) == pytest.approx(10.0 * speed.REFERENCE_S / 1.0)
    assert sampler.scale(10.0, 3.0, 5.0) == pytest.approx(10.0 * speed.REFERENCE_S / 1.0)  # < 3: all
    sampler.samples.append((3.5, 4.0))
    assert sampler.scale(10.0, 3.0, 5.0) == pytest.approx(10.0 * speed.REFERENCE_S / 4.0)


def test_perturbed_diagnostic_is_a_failed_run(tmp_path):
    shape = workloads.TINY["flagship"]
    record, out = _one_process(tmp_path, "flagship", traced=False)
    reference = outputs.summarize(shape.command, out, shape.points)
    args = (shape.command, out, record["exit_code"], shape.points, shape.n_samples)
    assert outputs.check(*args, reference)[0] == []

    series = out / "timeseries.csv"
    lines = series.read_text().splitlines()
    header = lines[1].split(",")
    column = header.index("Em")

    def rewrite(relative: float) -> list[str]:
        row = lines[-1].split(",")
        row[column] = repr(float(row[column]) + relative * reference[0]["scale"]["Em"])
        series.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
        return outputs.check(*args, reference)[0]

    assert rewrite(1e-13) == []  # roundoff-level reordering still counts as correct
    problems = rewrite(1e-6)
    assert len(problems) == 1 and "final Em" in problems[0]
    series.write_text("\n".join(lines[:-1]) + "\n")
    assert any("samples" in p for p in outputs.check(*args, reference)[0])


def test_exit_1_needs_a_fail_verdict(tmp_path):
    shape = workloads.TINY["flagship"]
    record, out = _one_process(tmp_path, "flagship", traced=False)
    assert record["exit_code"] == 0
    problems, fails, _ = outputs.check(shape.command, out, 1, shape.points, shape.n_samples, None)
    assert fails == 0 and problems == ["exit code 1 with 0 FAIL verdicts"]
    assert outputs.check(shape.command, out, 2, shape.points, shape.n_samples, None)[0]


def test_flagship_inputs_are_the_bundled_scenario():
    from toruswave.cli import load_config, parse_config

    shape = workloads.WORKLOADS["flagship"]
    for seed in (0, 7, 12345):
        entries = workloads.scenario("flagship", seed, shape, None)
        text = "".join(f"{k} = {v}\n" for k, v in entries.items())
        assert parse_config(text) == load_config("flagship")


def test_seeded_inputs_are_deterministic_and_representable():
    for name, shape in workloads.WORKLOADS.items():
        if shape.variants == 1:
            continue
        configs = [workloads.scenario(name, seed, shape, None) for seed in range(2 * shape.variants)]
        assert configs[: shape.variants] == configs[shape.variants:]
        assert len({json.dumps(c) for c in configs}) > 1  # small grids can repeat a mode
        for config in configs:
            mode = [int(k) for k in config["initial.mode"].split(",")]
            assert any(mode) and all(3 * abs(k) < shape.grid_n for k in mode)


def test_reference_covers_every_variant():
    table = json.loads((HERE / "reference.json").read_text())["workloads"]
    assert set(table) == set(workloads.WORKLOADS)
    for name, shape in workloads.WORKLOADS.items():
        assert set(table[name]) == {str(v) for v in range(shape.variants)}
        for entry in table[name].values():
            assert len(entry["points"]) == shape.points
            assert all(p["samples"] == shape.n_samples for p in entry["points"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "flagship", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

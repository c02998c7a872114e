"""The benchmark's four workloads: seeded scenario files and CLI arguments.

A workload turns ``--seed`` into the exact inputs the program sees: one
generated ``.cfg`` (and, for ``grid32-steps``, a constants file calibrated
once per program version).  Except on ``flagship``, which is the bundled
scenario unchanged, the seed picks one of ``VARIANTS`` input variants, whose
reference outputs ``reference.json`` records.  A variant fixes the ``band``
source seed and the initial single mode, never the amount of work, so the
spread of timings across seeds is measurement noise.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 8
CALIBRATION_SEED = 2024  # the seed `toruswave run` calibrates with on the fly
SWEEP_AXES = ("params.omega=0.25,0.5,0.75", "source.amplitude=budget:0.5,budget:4.0")
SWEEP_POINTS = 6

# Byte-for-byte the key = value lines of the bundled flagship scenario.
FLAGSHIP = {
    "format": "toruswave-scenario-1",
    "name": "flagship",
    "grid.n": "16",
    "params.omega": "0.5",
    "params.k_eos": "0.66666666666666663",
    "source.preset": "uniform",
    "source.amplitude": "budget:0.5",
    "initial.preset": "single-mode",
    "initial.part": "velocity",
    "initial.mode": "2,2,1",
    "initial.e_m0": "0.05",
    "solver.dt": "0.05",
    "solver.t_end": "100",
    "solver.sample_every": "4",
}


@dataclass(frozen=True)
class Shape:
    """Grid and time span of one workload; everything else is seeded."""

    command: str  # "run" or "sweep"
    grid_n: int
    dt: float
    t_end: float
    sample_every: int
    source: str  # "flagship", "band" or "uniform"
    calibrate_ahead: bool = False  # constants from a file, not on the fly

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def n_samples(self) -> int:
        return -(-self.n_steps // self.sample_every) + 1

    @property
    def points(self) -> int:
        return SWEEP_POINTS if self.command == "sweep" else 1

    @property
    def variants(self) -> int:
        return 1 if self.source == "flagship" else VARIANTS

    def variant(self, seed: int) -> int:
        return seed % self.variants


WORKLOADS = {
    "flagship": Shape("run", 16, 0.05, 100.0, 4, "flagship"),
    "grid32-steps": Shape("run", 32, 0.05, 50.0, 40, "band", calibrate_ahead=True),
    "long-horizon": Shape("run", 8, 0.1, 500.0, 1, "uniform"),
    "sweep": Shape("sweep", 8, 0.05, 40.0, 4, "uniform"),
}

# Same code paths on an 8-cube and a few steps, for the benchmark's own tests.
TINY = {
    "flagship": Shape("run", 8, 0.05, 2.0, 4, "flagship"),
    "grid32-steps": Shape("run", 8, 0.05, 2.0, 8, "band", calibrate_ahead=True),
    "long-horizon": Shape("run", 8, 0.1, 5.0, 1, "uniform"),
    "sweep": Shape("sweep", 8, 0.05, 1.0, 4, "uniform"),
}


def seeded_inputs(workload: str, variant: int, grid_n: int) -> tuple[tuple[int, int, int], int]:
    """Initial mode with every |n_i| < n/3, and a band-source seed."""
    rng = random.Random(f"{workload}:{variant}")
    limit = (grid_n - 1) // 3
    mode = (0, 0, 0)
    while mode == (0, 0, 0):
        mode = tuple(rng.randint(-limit, limit) for _ in range(3))
    return mode, rng.randrange(2**31)


def _fmt(value: float) -> str:
    return str(int(value)) if value.is_integer() else repr(value)


def scenario(workload: str, seed: int, shape: Shape, constants_path: Path | None) -> dict[str, str]:
    """The generated config, as ordered key -> value text."""
    if shape.source == "flagship":
        entries = dict(FLAGSHIP)
    else:
        mode, band_seed = seeded_inputs(workload, shape.variant(seed), shape.grid_n)
        entries = dict(FLAGSHIP, name=workload, **{
            "source.preset": shape.source,
            "initial.mode": ",".join(str(k) for k in mode),
        })
        if shape.source == "band":
            entries["source.seed"] = str(band_seed)
    entries["grid.n"] = str(shape.grid_n)
    entries["solver.dt"] = _fmt(shape.dt)
    entries["solver.t_end"] = _fmt(shape.t_end)
    entries["solver.sample_every"] = str(shape.sample_every)
    if constants_path is not None:
        entries["constants.path"] = str(constants_path)
    return entries


def cli_args(shape: Shape, config: Path, out: Path) -> list[str]:
    """Arguments for ``toruswave.cli.main``."""
    args = [shape.command, str(config), "--out", str(out)]
    if shape.command == "sweep":
        for axis in SWEEP_AXES:
            args += ["--axis", axis]
        args += ["--jobs", "1"]  # points in turn, so one core is busy at a time
    return args


def program_env(root: Path) -> dict[str, str]:
    """Environment for program processes: the checkout's source, no preset constants."""
    env = dict(os.environ)
    env.pop("TORUSWAVE_CONSTANTS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_digest(root: Path) -> str:
    """Hash of the program's source, so cached calibrations follow code changes."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "toruswave").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_constants(root: Path, cache: Path, grid_n: int, timeout: float) -> Path:
    """Calibrate once per program version and grid, outside any timed run."""
    path = cache / f"constants-{source_digest(root)}-n{grid_n}.txt"
    if path.is_file():
        return path
    cache.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.partial")
    code = (
        "import sys\n"
        "from toruswave.calibration import calibrate, save_constants\n"
        "from toruswave.fields import GridSpec\n"
        f"save_constants(calibrate(GridSpec({grid_n}), 3, seed={CALIBRATION_SEED}), sys.argv[1])\n"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(partial)],
        env=program_env(root), check=True, timeout=timeout,
        stdout=subprocess.DEVNULL,
    )
    partial.replace(path)
    return path


def write_config(path: Path, entries: dict[str, str]) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))

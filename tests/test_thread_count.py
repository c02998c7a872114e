"""Artifacts that do not depend on the BLAS thread count.

No norm or energy sum calls BLAS (``fields.weighted_sums``); the only BLAS
calls left are the loop's dense DFT products on grids up to
``solver.DFT_MAX_N``.  Each case runs in two fresh processes, one with
``OPENBLAS_NUM_THREADS=1`` and one with 2, since OpenBLAS reads the variable
once, when it loads, and must give the same bytes in both:

* a 10-step band-source run at n = 32, sampled every step, through the
  console entry point.  While the sums were BLAS products its E_m column
  moved in the last bit at t = 0.15 with the thread count.
* the DFT products: one run at n = 18, and the largest batch at n = 8
  (``solver.batch_size(8)`` runs in one loop), whose stacked products are
  the largest the loop makes.
"""

import os
import subprocess
import sys
from pathlib import Path

import toruswave
from toruswave.calibration import CalibratedConstants, save_constants

SRC = str(Path(toruswave.__file__).resolve().parents[1])

# The DFT cases: a digest of every table and final state, printed by a fresh process.
DFT_CASES = """
import hashlib
import numpy as np
from toruswave.fields import GridSpec, random_band_limited
from toruswave.solver import SolverConfig, batch_size, simulate_batch
from toruswave.source import ModelParams, SourceSpec

for n, b in ((18, 1), (8, batch_size(8))):
    grid = GridSpec(n)
    u0, u1 = (np.stack([random_band_limited(grid, seed=s, band=n // 2 - 1, amplitude=0.05)
                        for s in range(offset, offset + b)]) for offset in (0, 1000))
    params = [ModelParams(omega=0.3 + 0.004 * s, kappa=0.25, mu=0.5) for s in range(b)]
    sources = [SourceSpec(amplitude=0.05, preset="band", seed=s) for s in range(b)]
    config = SolverConfig(grid=grid, dt=0.05, t_end=0.5, sample_every=1)
    digest = hashlib.sha256()
    for trajectory in simulate_batch(u0, u1, params, sources, config):
        for array in (trajectory.table, trajectory.final_state.u_hat, trajectory.final_state.ut_hat):
            digest.update(array.tobytes())
    print(n, b, digest.hexdigest())
"""


def run(args, threads, cwd):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode in (0, 1), result.stderr  # 1: a check failed, the run is whole
    return result.stdout


def test_band_source_run_at_n_32_writes_the_same_bytes_on_one_and_two_threads(tmp_path):
    n = 32
    constants = tmp_path / "constants.txt"
    save_constants(
        CalibratedConstants(grid_n=n, m=3, seed=2024, n_fields=0, safety=1.5, c_sobolev=0.21,
                            c_algebra=0.131, c_moser={k: 1.485 for k in range(1, 4)}),
        constants,
    )
    config = tmp_path / "band.cfg"
    config.write_text(
        "format = toruswave-scenario-1\nname = band32\n"
        f"grid.n = {n}\nparams.omega = 0.5\nparams.k_eos = 0.66666666666666663\n"
        "source.preset = band\nsource.seed = 1298823183\nsource.amplitude = budget:0.5\n"
        "initial.preset = single-mode\ninitial.part = velocity\ninitial.mode = 1,0,0\n"
        "initial.e_m0 = 0.05\nsolver.dt = 0.05\nsolver.t_end = 0.5\nsolver.sample_every = 1\n"
        f"constants.path = {constants}\n"
    )
    outs = [tmp_path / f"threads-{threads}" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        run(["-m", "toruswave", "run", str(config), "--out", str(out)], threads, tmp_path)
    for name in ("timeseries.csv", "report.txt", "report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    assert len((outs[0] / "timeseries.csv").read_text().splitlines()) > 10


def test_dense_dft_products_give_the_same_bits_on_one_and_two_threads(tmp_path):
    one, two = (run(["-c", DFT_CASES], threads, tmp_path) for threads in (1, 2))
    assert [line.split()[:2] for line in one.splitlines()] == [["18", "1"], ["8", "102"]]
    assert one == two

"""The S_m sum of the two verification norms, and the in-place sample means.

``fields.reduce_sobolev`` is column 0 of ``reduce_power`` alone, with its
weight built for the call: verification reads ||u^2||_{H^m} on the doubled
grid and the spectral tail's order-(m + 1) totals through it, so it leaves no
weight matrix cached for them.  The grid means of ``SampleBlock.reduce`` are
each run's ``grid_sums`` over n^3, summed straight from the force's arrays;
the stacked copy they replaced is kept here as the reference.
"""

import math

import numpy as np
import pytest

from reference import white_noise
from toruswave.calibration import CalibratedConstants, save_constants
from toruswave.cli import run_scenario
from toruswave.energy import COLUMNS, SampleBlock, grid_sums
from toruswave.fields import hm_norms, norm_weights, reduce_sobolev, spectral_power


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_sobolev_sum_matches_the_h_m_norm(n, m):
    raw = np.fft.rfftn(white_noise(n, 10 * n + m))
    power = spectral_power(raw)
    kept = power.copy()
    misses = norm_weights.cache_info().misses
    got = math.sqrt(reduce_sobolev(power, m))
    assert norm_weights.cache_info().misses == misses  # no weight matrix looked up
    assert power.tobytes() == kept.tobytes()
    assert got == pytest.approx(hm_norms(raw, m)[0], rel=1e-13, abs=0.0)


def test_verification_caches_no_doubled_grid_or_higher_order_weights(tmp_path):
    # a grid no other test uses, with constants loaded from a file: the run's
    # set-up, loop and verification look up norm_weights(n, 0) and (n, m) only
    n, m = 22, 3
    constants = tmp_path / "constants.txt"
    save_constants(
        CalibratedConstants(grid_n=n, m=m, seed=2024, n_fields=0, safety=1.5, c_sobolev=0.2,
                            c_algebra=0.13, c_moser={k: 1.5 for k in range(1, m + 1)}),
        constants,
    )
    config = tmp_path / "run.cfg"
    config.write_text(
        "format = toruswave-scenario-1\nname = cache\n"
        f"grid.n = {n}\nparams.omega = 0.5\nparams.k_eos = 0.66666666666666663\n"
        "source.preset = uniform\nsource.amplitude = budget:0.5\n"
        "initial.preset = single-mode\ninitial.part = velocity\ninitial.mode = 2,2,1\n"
        "initial.e_m0 = 0.05\nsolver.dt = 0.05\nsolver.t_end = 0.5\nsolver.sample_every = 2\n"
        f"constants.path = {constants}\n"
    )
    out = tmp_path / "out"
    assert run_scenario(str(config), out) in (0, 1)
    report = (out / "report.txt").read_text()
    assert "algebra_final: PASS" in report or "algebra_final: FAIL" in report
    assert "spectral_tail_fraction = " in report
    # every lookup below is a miss: none of these matrices was cached by the run
    misses = norm_weights.cache_info().misses
    lookups = [(2 * n, order) for order in range(m + 2)] + [(n, m + 1)]
    for key in lookups:
        norm_weights(*key)
    assert norm_weights.cache_info().misses == misses + len(lookups)


def stacked_means(grids, n, b):
    """The grid means as ``SampleBlock.reduce`` once took them: every u and F
    of ``grids`` copied into one (2, j, b, n^3) stack, summed along its last
    axis, over n^3."""
    stack = np.empty((2, len(grids), b, n**3))
    for i, (u, f) in enumerate(grids):
        stack[0, i], stack[1, i] = u.reshape(b, -1), f.reshape(b, -1)
    return np.add.reduce(stack, axis=-1) / float(n**3)


@pytest.mark.parametrize("depth", [1, 4])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_sample_means_match_the_stacked_copy_bit_for_bit(n, b, depth):
    rng = np.random.default_rng(100 * n + 10 * b + depth)
    grids, entries = [], []
    for _ in range(depth):
        u = 0.3 * rng.standard_normal((b, n, n, n)) + 0.01
        f = 0.1 * rng.standard_normal((b, n, n, n))
        u_hat, ut_hat, f_hat = (np.fft.rfftn(x, axes=(1, 2, 3)) for x in (u, u, f))
        grids.append((u, f))
        entries.append((grid_sums(u), grid_sums(f), u_hat, ut_hat, f_hat,
                        list(u.reshape(b, -1).min(axis=-1))))
    rows = SampleBlock(n, [0.5] * b, 3).reduce(entries)  # (j, b, columns)
    means = rows[..., [COLUMNS.index("u_mean"), COLUMNS.index("f_mean")]]
    assert means.transpose(2, 0, 1).tobytes() == stacked_means(grids, n, b).tobytes()


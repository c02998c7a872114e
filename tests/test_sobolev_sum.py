"""The one weighted sum of every norm and energy, and the in-place sample means.

``fields.weighted_sums`` reduces each density of a stack against explicit
weight rows: the rows of the cached ``norm_weights(n, m)`` in the loop, the
energies and calibration, and an S_m row built for the call and dropped for
verification's ||u^2||_{H^m} on the doubled grid and its spectral tail's
order-(m + 1) totals.  ``reference.sobolev_sum`` is the formula those two
verification sums had before, kept to show their bits did not move.  The
means of ``SampleBlock.reduce`` are the real parts of the k = 0 coefficients
of each run's u and F spectra over n^3, read from a stacked copy of the
spectra here as the reference.
"""

import math

import numpy as np
import pytest

from reference import sobolev_sum, white_noise
from test_half_layout import final_state_trajectory
from toruswave.calibration import CalibratedConstants, save_constants
from toruswave.cli import run_scenario
from toruswave.energy import COLUMNS, SampleBlock
from toruswave.fields import _symbol_weight, hm_norms, norm_weights, spectral_power, weighted_sums
from toruswave.solver import dealias_mask
from toruswave.verify import _spectral_tail_fraction


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_sobolev_sum_matches_the_h_m_norm(n, m):
    # an S_m row built for the call, as verification builds it: the formula
    # that sum replaced, bit for bit, with a fresh product array or with the
    # density's own, and the cached row's H^m norm to roundoff
    raw = np.fft.rfftn(white_noise(n, 10 * n + m))
    power = spectral_power(raw)
    kept = power.copy()
    weight = [_symbol_weight(n, m, hermitian=True)]
    got = weighted_sums(power, weight)
    assert power.tobytes() == kept.tobytes()
    assert got.shape == (1,)
    assert float(got[0]).hex() == sobolev_sum(power, m).hex()
    assert weighted_sums(kept, weight, kept).tobytes() == got.tobytes()
    assert math.sqrt(got[0]) == pytest.approx(hm_norms(raw, m)[0], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [8, 16])
def test_spectral_tail_keeps_the_sums_it_had_bit_for_bit(n):
    u = white_noise(n, 90 + n)
    power = spectral_power(np.fft.rfftn(u))
    tail = np.where(dealias_mask(n), 0.0, power)
    want = math.sqrt(sobolev_sum(tail, 4) / sobolev_sum(power, 4))  # order m + 1
    assert _spectral_tail_fraction(final_state_trajectory(u, m=3)).hex() == want.hex()


@pytest.mark.parametrize("n", [8, 16, 32])
def test_a_density_gets_the_same_sums_alone_in_a_block_and_in_a_batch(n):
    # every density is summed alone along its own flattened layout, so its
    # sums have the same bits in any stack, with or without a scratch buffer
    rng = np.random.default_rng(n)
    densities = rng.standard_normal((3, 4, n, n, n // 2 + 1))  # (times, runs, layout)
    weights = norm_weights(n, 3)
    stacked = weighted_sums(densities, weights)
    assert stacked.shape == (3, 4, 4)
    scratch = np.empty(2 * densities.size)
    assert weighted_sums(densities, weights, scratch).tobytes() == stacked.tobytes()
    for j in range(3):
        assert weighted_sums(densities[j], weights).tobytes() == stacked[j].tobytes()  # a batch
        for b in range(4):
            alone = weighted_sums(densities[j, b], weights[1:3])
            assert alone.tobytes() == stacked[j, b, 1:3].tobytes()
    for b in range(4):  # a block of sample times of one run
        assert weighted_sums(densities[:, b], weights).tobytes() == stacked[:, b].tobytes()


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


def stacked_means(spectra, n):
    """The means of the pairs (u_hat, f_hat) of raw half spectra in
    ``spectra``, each of shape (b, n, n, n/2 + 1): the real parts of their
    k = 0 coefficients over n^3, read from one (2, j, b, ...) stacked copy."""
    stack = np.stack([np.stack(pair) for pair in spectra], axis=1)
    return stack[..., 0, 0, 0].real / float(n**3)


@pytest.mark.parametrize("depth", [1, 4])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_sample_means_match_the_stacked_copy_bit_for_bit(n, b, depth):
    rng = np.random.default_rng(100 * n + 10 * b + depth)
    spectra, entries = [], []
    for _ in range(depth):
        u = 0.3 * rng.standard_normal((b, n, n, n)) + 0.01
        f = 0.1 * rng.standard_normal((b, n, n, n))
        u_hat, ut_hat, f_hat = (np.fft.rfftn(x, axes=(1, 2, 3)) for x in (u, u, f))
        spectra.append((u_hat, f_hat))
        entries.append((u_hat, ut_hat, f_hat, list(u.reshape(b, -1).min(axis=-1))))
    rows = SampleBlock(n, [0.5] * b, 3).reduce(entries)  # (j, b, columns)
    means = rows[..., [COLUMNS.index("u_mean"), COLUMNS.index("f_mean")]]
    assert means.transpose(2, 0, 1).tobytes() == stacked_means(spectra, n).tobytes()


"""Transforms on the doubled grid in place: the same bits as ``np.fft.rfftn`` /
``irfftn``, and a working set of about two (2n)^3 arrays.

``fields.rfftn`` makes ``np.fft.rfftn``'s 1-D calls into one complex array;
``fields.refine`` runs ``np.fft.irfftn``'s complex passes in its own
zero-padded buffer; ``fields.spectral_power`` adds |Im c|^2 in place.  The
formulas they replaced are kept here as references.  Peaks are measured with
``tracemalloc`` in units of one real (2n)^3 array.
"""

import math
import tracemalloc

import numpy as np
import pytest

from reference import sobolev_sum, white_noise
from toruswave import fields
from toruswave.calibration import CalibratedConstants
from toruswave.verify import check_algebra_final
from test_half_layout import final_state_trajectory

GRIDS = [4, 6, 8, 10, 12, 14, 16, 32]  # odd factors 3, 5 and 7 included


def irfftn_refine(raw, n):
    """``fields.refine`` as one ``np.fft.irfftn`` call on the padded spectrum."""
    half = n // 2
    keep = np.r_[0:half, half + 1 : n]
    dest = np.r_[0:half, n + half + 1 : 2 * n]
    fine = np.zeros((2 * n, 2 * n, n + 1), dtype=np.complex128)
    fine[dest[:, None], dest, :half] = 8.0 * raw[keep[:, None], keep, :half]
    return np.fft.irfftn(fine, s=(2 * n,) * 3, axes=(0, 1, 2))


def constants_for(n, c_algebra):
    return CalibratedConstants(
        grid_n=n, m=3, seed=2024, n_fields=0, safety=1.5,
        c_sobolev=1.0, c_algebra=c_algebra, c_moser={1: 1.0, 2: 1.0, 3: 1.0},
    )


def peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("n", GRIDS)
def test_rfftn_matches_numpy_bit_for_bit(n):
    u = white_noise(n, 40 + n)
    for values in (u, fields.refine(np.fft.rfftn(u), n)):  # an n-cube and a (2n)-cube
        assert fields.rfftn(values).tobytes() == np.fft.rfftn(values).tobytes()


@pytest.mark.parametrize("n", GRIDS)
def test_refine_matches_irfftn_bit_for_bit(n):
    raw = np.fft.rfftn(white_noise(n, 50 + n))
    new = fields.refine(raw, n)
    assert new.shape == (2 * n,) * 3
    assert new.tobytes() == irfftn_refine(raw, n).tobytes()


@pytest.mark.parametrize("n", GRIDS)
def test_spectral_power_matches_the_sum_of_squares_bit_for_bit(n):
    raw = np.fft.rfftn(white_noise(n, 60 + n))
    old = np.square(raw.real) + np.square(raw.imag)
    assert fields.spectral_power(raw).tobytes() == old.tobytes()


@pytest.mark.parametrize("n", [8, 16])
def test_algebra_check_measures_the_product_norm_bit_for_bit(n):
    # the check squares its refined samples in place; the reference multiplies
    # two refined copies, as calibrate's pairs do, and sums their S_m power as
    # the check did before its sum became a ``fields.weighted_sums``
    u = 0.5 * white_noise(n, 70 + n)
    constants = constants_for(n, c_algebra=1.0)
    result = check_algebra_final(final_state_trajectory(u), constants)
    raw = np.fft.rfftn(u)
    refined = fields.refine(raw, n)
    rhs = fields.hm_norms(raw, 3)[0] ** 2
    power = fields.spectral_power(fields.rfftn(refined * refined))
    lhs = math.sqrt(sobolev_sum(power, 3))
    assert result.worst_margin == (rhs - lhs) / rhs


@pytest.mark.parametrize("n", [16, 32])
def test_refine_holds_its_buffer_and_the_samples(n):
    # np.fft.irfftn held three complex (2n, 2n, n + 1) arrays: 3.1-3.2 arrays
    raw = np.fft.rfftn(white_noise(n, 80 + n))
    samples, peak = peak_bytes(lambda: fields.refine(raw, n))
    assert peak < 2.2 * samples.nbytes


@pytest.mark.parametrize("n", [16, 32])
def test_rfftn_holds_one_complex_array(n):
    # np.fft.rfftn holds two: 2.0 times its output
    values = white_noise(2 * n, 90 + n)
    raw, peak = peak_bytes(lambda: fields.rfftn(values))
    assert peak < 1.1 * raw.nbytes


@pytest.mark.parametrize("n", [16, 32])
def test_spectral_power_holds_two_outputs(n):
    # the sum of two fresh squares held three outputs; from about 256 KB
    # numpy's temporary elision already reused one (n = 32 read 2.0 before)
    raw = np.fft.rfftn(white_noise(2 * n, 100 + n))
    power, peak = peak_bytes(lambda: fields.spectral_power(raw))
    assert peak < 2.2 * power.nbytes


@pytest.mark.parametrize("n", [16, 32])
def test_algebra_check_holds_two_doubled_grid_arrays(n):
    # refine, u^2 beside the refined samples and np.fft.rfftn of it read 4.1
    # real (2n)^3 arrays; in place, the padded buffer and the samples, then the
    # samples and their spectrum, then the spectrum and its |c|^2, about 2.1;
    # the S_m weight, built in the call, comes after the spectrum is dropped
    u = 0.5 * white_noise(n, 110 + n)
    trajectory, constants = final_state_trajectory(u), constants_for(n, c_algebra=1.0)
    _, peak = peak_bytes(lambda: check_algebra_final(trajectory, constants))
    assert peak < 2.5 * 8 * (2 * n) ** 3

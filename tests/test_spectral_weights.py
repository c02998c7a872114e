"""The cached spectral weights against the per-multi-index derivative sums.

Every energy and norm is one weighted reduction of the half-layout
coefficients.  The reference implementations below are the plain loops over
multi-indices that call the full-complex ``reference.spectral_derivative``
once per term; the weighted reductions must reproduce them to roundoff, on
white-noise fields that carry Nyquist content.
"""

import math

import numpy as np
import pytest

from toruswave import calibration, fields, verify
from toruswave.calibration import SAFETY_MARGIN, calibrate
from toruswave.energy import modified_energy, sample_half_spectrum, standard_energy
from toruswave.fields import (
    Field, GridSpec, VOLUME, hm_norms, norm_weights, sobolev_norm, sobolev_weight, sup_norm
)
from toruswave.solver import SolverConfig, SolverState, Trajectory
from toruswave.source import ModelParams
from toruswave.verify import check_algebra_final, check_wirtinger_final
from reference import multi_indices, spectral_derivative, spectrum_norm, transform, white_noise

AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
REL = 1e-14
OMEGA = 0.62


def loop_l2_sq(spectrum):
    return float(VOLUME * np.sum(np.abs(spectrum.coeffs) ** 2))


def loop_modified_energy(u, ut, omega, m):
    u_spec, ut_spec = transform(u), transform(ut)
    total = 0.0
    for alpha in multi_indices(m):
        du = spectral_derivative(u_spec, alpha)
        dut = spectral_derivative(ut_spec, alpha)
        total += 0.5 * loop_l2_sq(dut)
        total += 0.5 * omega * float(VOLUME * np.sum((du.coeffs * np.conj(dut.coeffs)).real))
        total += 0.25 * omega**2 * loop_l2_sq(du)
        for axis in AXES:
            total += 0.5 * loop_l2_sq(spectral_derivative(du, axis))
    return total


def loop_standard_energy(u, ut, m):
    u_spec = transform(u)
    grad_sq = sum(spectrum_norm(spectral_derivative(u_spec, axis), m) ** 2 for axis in AXES)
    return 0.5 * (sobolev_norm(ut, m) ** 2 + grad_sq)


def loop_block_norm(spectrum, order):
    total = sum(
        spectrum_norm(spectral_derivative(spectrum, alpha)) ** 2
        for alpha in multi_indices(order)
        if sum(alpha) == order
    )
    return math.sqrt(total)


def rel_err(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
class TestMatchesDerivativeLoops:
    def test_modified_energy(self, n, m):
        u, ut = white_noise(n, 1), white_noise(n, 2)
        want = loop_modified_energy(u, ut, OMEGA, m)
        assert rel_err(modified_energy(u, ut, OMEGA, m), want) <= REL

    def test_standard_energy(self, n, m):
        u, ut = white_noise(n, 3), white_noise(n, 4)
        assert rel_err(standard_energy(u, ut, m), loop_standard_energy(u, ut, m)) <= REL

    def test_derivative_block_norm(self, n, m):
        # calibration's blocks: column m of its weight matrix (S_0 when m = 0)
        u = white_noise(n, 5)
        got = hm_norms(np.fft.rfftn(u.values), m)[m]
        assert rel_err(got, loop_block_norm(transform(u), m)) <= REL


@pytest.mark.parametrize("n", [8, 16, 32])
def test_wirtinger_gradient_matches_loop(n):
    u = white_noise(n, 6)
    lhs = fields.l2_norm(fields.mean_decompose(u).oscillatory)
    rhs = loop_block_norm(transform(u), 1)
    grid = u.grid
    raw = np.fft.rfftn(u.values)
    trajectory = Trajectory(
        params=ModelParams(omega=OMEGA, kappa=0.3, mu=0.5),
        config=SolverConfig(grid, dt=0.1, t_end=0.1),
        samples=[sample_half_spectrum(0.1, u.values, u.values, raw, raw, raw, OMEGA, 1)],
        final_state=SolverState(0.1, u, u),
    )
    result = check_wirtinger_final(trajectory)
    assert abs(result.worst_margin - (rhs - lhs) / rhs) <= REL


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_one_hm_norm_bit_for_bit(n, m, monkeypatch):
    # sobolev_norm, the u_hm a sample records, and the norm calibrate and
    # check_algebra_final take are one float: one reduction, not three
    ut, f = white_noise(n, 20 + m), white_noise(n, 30 + m)
    # scaled so that calibrate's compositions (1 + a u)^mu stay defined
    u = Field(ut.grid, white_noise(n, 10 + m).values / 16.0)
    raw = np.fft.rfftn(u.values)
    norm = sobolev_norm(u, m)
    sample = sample_half_spectrum(
        0.1, u.values, f.values, raw, np.fft.rfftn(ut.values), np.fft.rfftn(f.values), OMEGA, m
    )
    assert sample.u_hm == norm

    # a family of u alone: c_sobolev is the safety margin times sup|u| / ||u||
    monkeypatch.setattr(calibration, "_field_family", lambda *args: iter([u]))
    constants = calibrate(u.grid, m)
    assert constants.c_sobolev == SAFETY_MARGIN * (sup_norm(u) / norm)

    taken = []

    def recording(raw_in, order):
        norms = hm_norms(raw_in, order)
        if np.array_equal(raw_in, raw):
            taken.append(norms[0])
        return norms

    monkeypatch.setattr(verify, "hm_norms", recording)
    trajectory = Trajectory(
        params=ModelParams(omega=OMEGA, kappa=0.3, mu=0.5, m=m),
        config=SolverConfig(u.grid, dt=0.1, t_end=0.1),
        samples=[sample],
        final_state=SolverState(0.1, u, ut),
    )
    check_algebra_final(trajectory, constants)
    assert taken == [norm]


def column(m, k):
    """Column k of ``norm_weights(8, m)`` on the (8, 8, 5) half layout: S_m for
    k = 0, the block D_k otherwise."""
    return norm_weights(8, m)[:, k].reshape(8, 8, 5)


def derivative_weight(m, lowest=0):
    """D_lowest + ... + D_m from the columns, with D_0 = S_0."""
    return sum(column(0 if k == 0 else m, k) for k in range(lowest, m + 1))


class TestNyquistConventions:
    """At n = 8 the wave vector (-4, 0, 0) sits on the Nyquist plane of axis 1.

    The weights are the columns of ``norm_weights``, laid out on the (8, 8, 5)
    half grid: index 4 of the last axis is the k3 = 4 Nyquist plane, and they
    count each k3 plane strictly between 0 and 4 twice, once for k and once
    for -k.
    """

    def test_sobolev_weight_counts_nyquist_in_full(self):
        assert sobolev_weight(8, 1).shape == (8, 8, 5)
        assert np.array_equal(sobolev_weight(8, 1), column(1, 0))
        assert column(1, 0)[4, 0, 0] == 1.0 + 16.0
        assert column(2, 0)[4, 0, 0] == 1.0 + 16.0 + 256.0
        assert column(1, 0)[0, 0, 4] == 1.0 + 16.0
        assert column(1, 0)[4, 0, 1] == 2 * (1.0 + 16.0 + 1.0)

    def test_derivative_weight_zeroes_odd_exponents(self):
        assert derivative_weight(1)[4, 0, 0] == 1.0
        assert derivative_weight(2)[4, 0, 0] == 1.0 + 256.0
        assert derivative_weight(1, lowest=1)[4, 0, 0] == 0.0
        assert derivative_weight(1, lowest=1)[0, 0, 4] == 0.0
        assert derivative_weight(2)[0, 0, 4] == 1.0 + 256.0
        # the other axes keep their first derivatives
        assert derivative_weight(1, lowest=1)[4, 1, 2] == 2 * (1.0 + 4.0)

    def test_conventions_agree_off_nyquist(self):
        interior = np.ones((8, 8, 5), dtype=bool)
        for axis in range(3):
            index = [slice(None)] * 3
            index[axis] = 4
            interior[tuple(index)] = False
        for m in range(4):
            assert np.array_equal(column(m, 0)[interior], derivative_weight(m)[interior])

    def test_weights_are_read_only(self):
        with pytest.raises(ValueError):
            norm_weights(8, 2)[0, 0] = 5.0
        with pytest.raises(ValueError):
            sobolev_weight(8, 2)[0, 0, 0] = 5.0

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="order"):
            norm_weights(8, -1)


def test_calibration_constants_unchanged():
    # calibrate(GridSpec(8), 3) as computed with per-multi-index derivatives
    constants = calibrate(GridSpec(8), 3)
    assert rel_err(constants.c_sobolev, 0.20896518005695017) <= REL
    assert rel_err(constants.c_algebra, 0.1309874519491145) <= REL
    frozen = {1: 1.4847293127201202, 2: 1.4847897613650947, 3: 1.485031580580865}
    assert constants.c_moser.keys() == frozen.keys()
    for k, value in frozen.items():
        assert rel_err(constants.c_moser[k], value) <= REL


def test_energies_take_one_rfftn_per_field(monkeypatch):
    counts = {"fftn": 0, "ifftn": 0, "rfftn": 0, "irfftn": 0}
    for name in counts:
        original = getattr(np.fft, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, wrapper)

    u, ut = white_noise(8, 7), white_noise(8, 8)
    modified_energy(u, ut, OMEGA, 3)
    standard_energy(u, ut, 3)
    assert counts == {"fftn": 0, "ifftn": 0, "rfftn": 4, "irfftn": 0}

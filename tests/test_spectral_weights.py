"""The cached spectral weights against the per-multi-index derivative sums.

Every energy and norm is one weighted reduction of the coefficients.  The
reference implementations below are the plain loops over multi-indices that
call ``spectral_derivative`` once per term; the weighted reductions must
reproduce them to roundoff, on white-noise fields that carry Nyquist content.
"""

import math
import sys

import numpy as np
import pytest

from toruswave import fields
from toruswave.calibration import _derivative_block_norm, calibrate
from toruswave.energy import modified_energy, sample_energies, standard_energy
from toruswave.fields import (
    Field,
    GridSpec,
    VOLUME,
    derivative_weight,
    l2_norm,
    multi_indices,
    sobolev_norm,
    sobolev_weight,
    spectral_derivative,
    transform,
)
from toruswave.solver import SolverConfig, SolverState, Trajectory
from toruswave.source import ModelParams
from toruswave.verify import check_wirtinger_final

AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
REL = 1e-14
OMEGA = 0.62


def white_noise(n, seed):
    """Unfiltered Gaussian samples: every mode is populated, Nyquist planes too."""
    grid = GridSpec(n)
    return Field(grid, np.random.default_rng(seed).standard_normal(grid.shape))


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
    grad_sq = sum(sobolev_norm(spectral_derivative(u_spec, axis), m) ** 2 for axis in AXES)
    return 0.5 * (sobolev_norm(ut, m) ** 2 + grad_sq)


def loop_block_norm(spectrum, order):
    total = sum(
        l2_norm(spectral_derivative(spectrum, alpha)) ** 2
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
        spectrum = transform(white_noise(n, 5))
        assert rel_err(_derivative_block_norm(spectrum, m), loop_block_norm(spectrum, m)) <= REL


@pytest.mark.parametrize("n", [8, 16, 32])
def test_wirtinger_gradient_matches_loop(n):
    u = white_noise(n, 6)
    lhs = l2_norm(fields.mean_decompose(u).oscillatory)
    rhs = loop_block_norm(transform(u), 1)
    grid = u.grid
    trajectory = Trajectory(
        params=ModelParams(omega=OMEGA, kappa=0.3, mu=0.5),
        config=SolverConfig(grid, dt=0.1, t_end=0.1),
        samples=[sample_energies(0.1, u, u, u, OMEGA, 1)],
        final_state=SolverState(0.1, u, u),
    )
    result = check_wirtinger_final(trajectory)
    assert abs(result.worst_margin - (rhs - lhs) / rhs) <= REL


class TestNyquistConventions:
    """At n = 8 the wave vector (-4, 0, 0) sits on the Nyquist plane of axis 1."""

    def test_sobolev_weight_counts_nyquist_in_full(self):
        assert sobolev_weight(8, 1)[4, 0, 0] == 1.0 + 16.0
        assert sobolev_weight(8, 2)[4, 0, 0] == 1.0 + 16.0 + 256.0

    def test_derivative_weight_zeroes_odd_exponents(self):
        assert derivative_weight(8, 1)[4, 0, 0] == 1.0
        assert derivative_weight(8, 2)[4, 0, 0] == 1.0 + 256.0
        assert derivative_weight(8, 1, lowest=1)[4, 0, 0] == 0.0
        # the other axes keep their first derivatives
        assert derivative_weight(8, 1, lowest=1)[4, 1, 2] == 1.0 + 4.0

    def test_conventions_agree_off_nyquist(self):
        interior = np.ones((8, 8, 8), dtype=bool)
        for axis in range(3):
            index = [slice(None)] * 3
            index[axis] = 4
            interior[tuple(index)] = False
        for m in range(4):
            assert np.array_equal(sobolev_weight(8, m)[interior], derivative_weight(8, m)[interior])

    def test_weights_are_read_only(self):
        with pytest.raises(ValueError):
            derivative_weight(8, 2)[0, 0, 0] = 5.0

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="order"):
            derivative_weight(8, -1)


def test_calibration_constants_unchanged():
    # calibrate(GridSpec(8), 3) as computed with per-multi-index derivatives
    constants = calibrate(GridSpec(8), 3)
    assert rel_err(constants.c_sobolev, 0.20896518005695017) <= REL
    assert rel_err(constants.c_algebra, 0.1309874519491145) <= REL
    frozen = {1: 1.4847293127201202, 2: 1.4847897613650947, 3: 1.485031580580865}
    assert constants.c_moser.keys() == frozen.keys()
    for k, value in frozen.items():
        assert rel_err(constants.c_moser[k], value) <= REL


def test_one_sample_costs_three_transforms(monkeypatch):
    counts = {"transform": 0, "spectral_derivative": 0}

    def counted(name):
        original = getattr(fields, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return original, wrapper

    # rebind the name in every toruswave module that imported it
    modules = [module for key, module in sys.modules.items() if key.startswith("toruswave")]
    for name in counts:
        original, wrapper = counted(name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)

    u, ut, f = white_noise(8, 7), white_noise(8, 8), white_noise(8, 9)
    sample_energies(0.0, u, ut, f, OMEGA, 3)
    assert counts == {"transform": 3, "spectral_derivative": 0}

"""Energy functional checks: frozen values, mode additivity, norm control."""

import numpy as np
import pytest

from toruswave.energy import modified_energy
from toruswave.fields import GridSpec, VOLUME, hm_norms, random_band_limited
from toruswave.solver import SolverConfig, simulate
from toruswave.source import ModelParams, SourceSpec
from reference import (
    block_sample,
    full_laplacian_symbol,
    full_sobolev_weight,
    sample_energies,
    spectrum_norm,
    transform,
)


def mode_weight_energy(u, ut, omega, m):
    """Independent oracle: the same quadratic form, diagonalized per mode of
    the full spectrum."""
    n = u.shape[0]
    uc = transform(u).coeffs
    vc = transform(ut).coeffs
    q = (
        0.5 * np.abs(vc) ** 2
        + 0.5 * omega * (uc * np.conj(vc)).real
        + 0.25 * omega**2 * np.abs(uc) ** 2
        + 0.5 * full_laplacian_symbol(n) * np.abs(uc) ** 2
    )
    return float(VOLUME * np.sum(full_sobolev_weight(n, m) * q))


def sampled(u, ut, m):
    """The package's diagnostic row of (u, u_t) with no forcing."""
    zero = np.zeros(u.shape)
    raw = [np.fft.rfftn(x) for x in (u, ut, zero)]
    return block_sample(0.0, u, *raw, omega=0.5, m=m)


def l2(u):
    """The full-complex L2 norm of ``reference``."""
    return spectrum_norm(transform(u))


def random_pair(grid, seed, amplitude=1.0):
    u = random_band_limited(grid, seed=seed, band=grid.n // 4, amplitude=amplitude)
    ut = random_band_limited(grid, seed=seed + 1000, band=grid.n // 4, amplitude=amplitude)
    return u, ut


class TestFrozenValues:
    def test_constant_displacement(self):
        # E^2(c, 0) = omega^2 c^2 (2pi)^3 / 4
        grid = GridSpec(8)
        omega, c = 0.7, 1.3
        u = np.full(grid.shape, c)
        ut = np.zeros(grid.shape)
        expected = 0.25 * omega**2 * c**2 * VOLUME
        assert modified_energy(u, ut, omega) == pytest.approx(expected, rel=1e-13)

    def test_constant_velocity(self):
        # E^2(0, c) = c^2 (2pi)^3 / 2
        grid = GridSpec(8)
        c = -0.4
        u = np.zeros(grid.shape)
        ut = np.full(grid.shape, c)
        expected = 0.5 * c**2 * VOLUME
        assert modified_energy(u, ut, omega=0.5) == pytest.approx(expected, rel=1e-13)

    def test_standard_energy_single_mode_velocity(self):
        # Estd^2(0, sin x1) = (2pi)^3 / 4 at m = 0
        grid = GridSpec(8)
        x1 = grid.coordinates()[0]
        u = np.zeros(grid.shape)
        ut = np.broadcast_to(np.sin(x1), grid.shape).copy()
        assert sampled(u, ut, m=0).e_std_sq == pytest.approx(VOLUME / 4, rel=1e-13)


class TestModeAdditivity:
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_matches_diagonal_weight_form(self, m):
        grid = GridSpec(16)
        u, ut = random_pair(grid, seed=31)
        omega = 0.5
        assert modified_energy(u, ut, omega, m) == pytest.approx(
            mode_weight_energy(u, ut, omega, m), rel=1e-10
        )

    def test_standard_energy_matches_norms(self):
        grid = GridSpec(16)
        u, ut = random_pair(grid, seed=77)
        row = sampled(u, ut, m=2)
        grad_sq = 2 * row.e_std_sq - row.ut_hm**2
        # Recover ||grad u||_{H^m}^2 and check it is the weighted sum itself.
        n = grid.n
        uc = transform(u).coeffs
        expected = VOLUME * np.sum(
            full_sobolev_weight(n, 2) * full_laplacian_symbol(n) * np.abs(uc) ** 2
        )
        assert grad_sq == pytest.approx(expected, rel=1e-11)


class TestPositivityAndControl:
    def test_completed_square_identity(self):
        grid = GridSpec(16)
        omega = 0.62
        u, ut = random_pair(grid, seed=5)
        lhs = modified_energy(u, ut, omega)
        zero = np.zeros(grid.shape)
        e_std_sq = sample_energies(0.0, u, ut, zero, omega, 0).e_std_sq
        rhs = (
            0.5 * l2(ut + 0.5 * omega * u) ** 2
            + omega**2 / 8.0 * l2(u) ** 2
            + 0.5 * (2 * e_std_sq - l2(ut) ** 2)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_l2_controlled_by_energy(self, seed):
        grid = GridSpec(8)
        omega = 0.5
        u, ut = random_pair(grid, seed=seed)
        root = np.sqrt(modified_energy(u, ut, omega))
        assert l2(u) <= np.sqrt(8.0) / omega * root * (1 + 1e-12)
        combination = l2(ut + 0.5 * omega * u)
        assert combination <= np.sqrt(2.0) * root * (1 + 1e-12)

    @pytest.mark.parametrize("m", [0, 2])
    def test_velocity_controlled_by_energy(self, m):
        grid = GridSpec(8)
        omega = 0.5
        u, ut = random_pair(grid, seed=9)
        e_m = np.sqrt(modified_energy(u, ut, omega, m))
        ut_norm = spectrum_norm(transform(ut), m)
        assert ut_norm <= 2.0 * np.sqrt(2.0) * e_m * (1 + 1e-12)
        assert ut_norm <= 4.0 * e_m


class TestValidation:
    def test_rejects_grid_mismatch(self):
        u = np.zeros((8, 8, 8))
        ut = np.zeros((16, 16, 16))
        with pytest.raises(ValueError, match="grids differ"):
            modified_energy(u, ut, omega=0.5)

    def test_rejects_nonpositive_omega(self):
        grid = GridSpec(8)
        z = np.zeros(grid.shape)
        with pytest.raises(ValueError, match="omega"):
            modified_energy(z, z, omega=0.0)


@pytest.mark.parametrize("omega", [1e-3, 0.5, 3.0])
@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_sample_row_is_consistent(n, m, omega):
    # the loop's E_m and modified_energy run one density pass and one reduction
    grid = GridSpec(n)
    u, ut = random_pair(grid, seed=3, amplitude=0.3)
    f = random_band_limited(grid, seed=8, band=min(2, n // 2 - 1), amplitude=0.1)
    raw = [np.fft.rfftn(x) for x in (u, ut, f)]
    row = block_sample(1.5, u, *raw, omega=omega, m=m)
    assert row.t == 1.5
    assert row.e_m_sq == modified_energy(u, ut, omega, m)
    assert row.u_hm == pytest.approx(hm_norms(raw[0], m)[0], rel=1e-14)
    assert row.u_min == pytest.approx(float(np.min(u)))
    assert row.f_mean == pytest.approx(f.mean())


@pytest.mark.parametrize("n, m, omega", [(8, 0, 0.5), (8, 3, 3.0), (16, 6, 1e-3), (32, 3, 0.5)])
def test_first_sample_of_simulate_is_modified_energy(n, m, omega):
    # the initial data a scenario scales with modified_energy start the table
    # at the same E_m, bit for bit
    grid = GridSpec(n)
    u0, u1 = random_pair(grid, seed=11, amplitude=0.2)
    params = ModelParams(omega=omega, kappa=0.25, mu=0.5, m=m)
    config = SolverConfig(grid=grid, dt=0.05, t_end=0.05)
    trajectory = simulate(u0, u1, params, SourceSpec(amplitude=0.01), config)
    assert trajectory.series("e_m_sq")[0] == modified_energy(u0, u1, omega, m)

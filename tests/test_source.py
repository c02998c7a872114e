"""Forcing-term checks: exponent algebra, normalization, breakdown."""

import numpy as np
import pytest

from toruswave.fields import GridSpec
from toruswave.source import (
    ModelParams,
    SourceSpec,
    derive_exponents,
    eval_prepared,
    prepare_source,
)
from reference import spectrum_norm, transform


def constant_field(grid, value):
    return np.full(grid.shape, float(value))


def zero_field(grid):
    return np.zeros(grid.shape)


class TestExponents:
    @pytest.mark.parametrize(
        "k_eos, omega, kappa, mu",
        [
            (0.5, 0.5, 0.5, 0.0),
            (2.0 / 3.0, 1.0, 0.5, 0.5),
            (2.0 / 3.0, 0.5, 0.25, 0.5),
        ],
    )
    def test_known_values(self, k_eos, omega, kappa, mu):
        got_kappa, got_mu = derive_exponents(k_eos, omega)
        assert got_kappa == pytest.approx(kappa, rel=1e-14)
        assert got_mu == pytest.approx(mu, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("k_eos", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_state_parameter(self, k_eos):
        with pytest.raises(ValueError, match="0 < K < 1"):
            derive_exponents(k_eos, omega=0.5)

    def test_decay_rate_positive_on_admissible_range(self):
        for k_eos in np.linspace(0.05, 0.95, 19):
            kappa, mu = derive_exponents(float(k_eos), omega=0.7)
            assert kappa > 0.0
            assert mu < 1.0


class TestModelParams:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ModelParams(omega=0.5, kappa=0.5, mu=0.5, k_eos=2.0 / 3.0)

    def test_from_equation_of_state(self):
        params = ModelParams.from_equation_of_state(2.0 / 3.0, omega=0.5)
        assert params.kappa == pytest.approx(0.25)
        assert params.mu == pytest.approx(0.5)
        assert params.m == 3

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError, match="kappa"):
            ModelParams(omega=0.5, kappa=-0.25, mu=0.5)


class TestPreparation:
    @pytest.mark.parametrize("preset", ["uniform", "single-mode", "bump", "band"])
    def test_profile_hits_requested_amplitude(self, preset):
        grid = GridSpec(16)
        spec = SourceSpec(amplitude=0.03, preset=preset, seed=4)
        prepared = prepare_source(spec, grid, m=3)
        profile = prepared.profile
        assert spectrum_norm(transform(profile), 3) == pytest.approx(0.03, rel=1e-12)

    def test_zero_amplitude_is_zero_source(self):
        grid = GridSpec(8)
        spec = SourceSpec(amplitude=0.0)
        params = ModelParams(omega=0.5, kappa=0.25, mu=0.5)
        f, _, failed = eval_prepared(0.7, zero_field(grid)[None], [params],
                                     [prepare_source(spec, grid, 3)])
        assert np.all(f[0] == 0.0) and failed == {}

    def test_sigma_envelope_bounded(self):
        spec = SourceSpec(amplitude=1.0, sigma="cos", sigma_rate=0.9)
        prepared = prepare_source(spec, GridSpec(8), m=1)
        times = np.linspace(0.0, 20.0, 200)
        assert max(abs(prepared.sigma(float(t))) for t in times) <= 1.0


class TestEvaluation:
    def test_decay_envelope_and_power(self):
        grid = GridSpec(8)
        params = ModelParams(omega=0.5, kappa=0.25, mu=0.5)
        spec = SourceSpec(amplitude=0.6, preset="uniform")
        prepared = prepare_source(spec, grid, m=0)
        u = constant_field(grid, 0.44)
        f = eval_prepared(2.0, u[None], [params], [prepared])[0][0]
        profile = prepared.profile[0, 0, 0]
        expected = np.exp(-0.5) * profile * 1.44**0.5
        assert np.allclose(f, expected, rtol=1e-13)

    def test_breakdown_returns_location_data(self):
        grid = GridSpec(8)
        params = ModelParams(omega=0.5, kappa=0.25, mu=0.5)
        spec = SourceSpec(amplitude=1.0, preset="uniform")
        u = constant_field(grid, -1.25)
        _, u_min, failed = eval_prepared(3.0, u[None], [params], [prepare_source(spec, grid, 3)])
        assert list(failed) == [0]
        assert failed[0] == "1 + u reached -0.25 at t = 3"
        assert u_min[0] == pytest.approx(-1.25)

    def test_integer_power_skips_positivity_gate(self):
        grid = GridSpec(8)
        params = ModelParams(omega=0.5, kappa=0.1, mu=2.0)
        spec = SourceSpec(amplitude=1.0, preset="uniform")
        u = constant_field(grid, -3.0)
        f = eval_prepared(0.0, u[None], [params], [prepare_source(spec, grid, 3)])[0][0]
        assert np.isfinite(f).all()
        assert np.max(np.abs(f)) > 0.0

    def test_grid_mismatch_rejected(self):
        params = ModelParams(omega=0.5, kappa=0.25, mu=0.5)
        spec = SourceSpec(amplitude=1.0)
        prepared = prepare_source(spec, GridSpec(8), m=0)
        with pytest.raises(ValueError, match="does not match"):
            eval_prepared(0.0, zero_field(GridSpec(16))[None], [params], [prepared])


class TestSpecValidation:
    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            SourceSpec(amplitude=1.0, preset="vortex")

    def test_negative_amplitude(self):
        with pytest.raises(ValueError, match="amplitude"):
            SourceSpec(amplitude=-0.1)

    def test_negative_seed(self):
        # numpy's generators take no negative seed, so the band preset could not draw
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SourceSpec(amplitude=1.0, preset="band", seed=-1)


"""Forcing-term checks: exponent algebra, normalization, breakdown."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from toruswave import solver
from toruswave.fields import GridSpec
from toruswave.solver import SolverConfig, simulate
from toruswave.source import (
    ModelParams,
    SourceSpec,
    _simplest_ratio,
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


def exact_exponents(k_eos, omega):
    """(kappa, mu) in exact rational arithmetic at the floats K and omega."""
    k, w = Fraction(k_eos), Fraction(omega)
    return (1 - k) * w / k, (2 * k - 1) / k


class TestExponentRule:
    """``derive_exponents`` rounds the exact exponents of the simplest rationals
    that round to K and omega once."""

    def test_simplest_ratio_is_a_best_approximation_that_rounds_to_x(self):
        rng = np.random.default_rng(7)
        drawn = [*rng.uniform(0.0, 1.0, 200), *(10.0 ** rng.uniform(-6, 6, 200))]
        for x in [0.66666666666666663, 0.1, 0.3, 1.7, 1e-300, 1e300, 5e-324, *map(float, drawn)]:
            p, q = _simplest_ratio(x)
            assert p / q == x and Fraction(p, q) == Fraction(x).limit_denominator(q), x
        assert _simplest_ratio(0.66666666666666663) == (2, 3)
        assert _simplest_ratio(0.1) == (1, 10) and _simplest_ratio(0.75) == (3, 4)

    def test_two_thirds_gives_the_square_root(self):
        assert derive_exponents(0.66666666666666663, 0.5) == (0.25, 0.5)
        assert derive_exponents(2.0 / 3.0, 1.0) == (0.5, 0.5)

    @pytest.mark.parametrize("k_eos", [0.5, 0.625, 0.75, 0.875])
    @pytest.mark.parametrize("omega", [0.5, 0.3, 1.7])
    def test_binary_exact_k_is_correctly_rounded(self, k_eos, omega):
        kappa, mu = exact_exponents(k_eos, Fraction(str(omega)))
        assert derive_exponents(k_eos, omega) == (float(kappa), float(mu))

    def test_exact_three_quarters(self):
        # (2K - 1)/K = 2/3 correctly rounded; 2 - 1/K in floats gives 0.6666666666666667
        assert derive_exponents(0.75, 1.0)[1] == 0.6666666666666666 == float(Fraction(2, 3))

    def test_decimal_inputs_are_read_as_decimals(self):
        assert derive_exponents(0.1, 0.3) == (2.7, -8.0)
        assert derive_exponents(0.6, 0.4) == (float(Fraction(4, 15)), float(Fraction(1, 3)))

    def test_sweep_stays_within_the_stated_bounds(self):
        # against the exact values at the float K and omega: |mu - mu(K)| <=
        # 2^-52 (1/K + 1) and |kappa - kappa(K)| <= 2^-52 (1 + 1/(1 - K)) kappa(K)
        rng = np.random.default_rng(26)
        ks = np.concatenate([rng.uniform(0.0, 1.0, 1500), 10.0 ** rng.uniform(-12, 0, 300),
                             1.0 - 10.0 ** rng.uniform(-12, 0, 300)])
        eps = Fraction(2) ** -52
        for k_eos, omega in zip(ks.tolist(), (10.0 ** rng.uniform(-3, 2, ks.size)).tolist()):
            if not 0.0 < k_eos < 1.0:
                continue
            kappa, mu = derive_exponents(k_eos, omega)
            exact_kappa, exact_mu = exact_exponents(k_eos, omega)
            k = Fraction(k_eos)
            assert abs(Fraction(mu) - exact_mu) <= eps * (1 / k + 1), k_eos
            assert abs(Fraction(kappa) - exact_kappa) <= eps * (1 + 1 / (1 - k)) * exact_kappa

    def test_exponents_beyond_the_float_range_are_refused(self):
        with pytest.raises(ValueError, match="beyond the float range"):
            derive_exponents(1e-320, 0.5)

    def test_float_rule_exponents_still_pass_the_cross_check(self):
        # what (2K - 1)/K and (1 - K) omega/K gave in floats at K = float(2/3)
        params = ModelParams(omega=0.5, kappa=0.25000000000000006, mu=0.49999999999999989,
                             k_eos=0.66666666666666663)
        assert (params.kappa, params.mu) == (0.25000000000000006, 0.49999999999999989)


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

    def test_infinite_grid_value_fails_at_its_own_force(self):
        # mu = 0.5 > 0: (1 + u)^mu is largest at max u, here +inf
        grid = GridSpec(8)
        params = [ModelParams(omega=0.5, kappa=0.25, mu=0.5)] * 3
        prepared = [prepare_source(SourceSpec(amplitude=0.5, preset="bump"), grid, 3)] * 3
        u = np.stack([constant_field(grid, 0.1 * b) for b in range(3)])
        u[1, 2, 3, 4] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, _, failed = eval_prepared(0.5, u, params, prepared)
            alone = eval_prepared(0.5, u[2][None], params[:1], prepared[:1])[0]
        assert failed == {1: "(1 + u)^mu overflows at t = 0.5: 1 + u = inf, mu = 0.5"}
        assert np.array_equal(f[2], alone[0]) and np.isfinite(f[[0, 2]]).all()

    def test_finite_overflow_of_a_fractional_power(self):
        grid = GridSpec(8)
        params = ModelParams(omega=0.5, kappa=0.25, mu=1.5)
        prepared = prepare_source(SourceSpec(amplitude=0.5), grid, 3)
        u = constant_field(grid, 0.0)
        u[0, 0, 0] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, failed = eval_prepared(0.0, u[None], [params], [prepared])
        assert failed == {0: "(1 + u)^mu overflows at t = 0: 1 + u = 1e+300, mu = 1.5"}

    def test_simulate_reports_the_force_that_met_infinity(self, monkeypatch):
        # +inf enters the grid at t = 0.3, the predictor of the step from
        # t = 0.2: the run stops there with the force's reason, not one step
        # later with a non-finite state
        grid = GridSpec(8)
        evaluate = solver.eval_prepared

        def injecting(t, u, *args, **kwargs):
            if abs(t - 0.3) < 1e-9:
                u[0, 1, 2, 3] = np.inf
            return evaluate(t, u, *args, **kwargs)

        monkeypatch.setattr(solver, "eval_prepared", injecting)
        trajectory = simulate(
            constant_field(grid, 0.1), zero_field(grid), ModelParams(omega=0.5, kappa=0.25, mu=0.5),
            SourceSpec(amplitude=0.01, preset="bump"),
            SolverConfig(grid=grid, dt=0.1, t_end=1.0, sample_every=5),
        )
        assert trajectory.breakdown == solver.BreakdownInfo(
            0.30000000000000004, 2, "(1 + u)^mu overflows at t = 0.3: 1 + u = inf, mu = 0.5"
        )
        assert trajectory.times().tolist() == [0.0]

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


"""Integrator checks: exact mode propagation, forcing order, mean dynamics."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from toruswave.energy import COLUMNS
from toruswave.fields import (
    GridSpec,
    TWO_PI,
    hm_norms,
    random_band_limited,
)
from toruswave.solver import (
    ZERO_MODE_SERIES_X,
    SolverConfig,
    _propagator_pieces,
    dealias_mask,
    simulate,
)
from toruswave.source import ModelParams, SourceSpec
from toruswave.verify import mean_mode_reference
from reference import Sample, trajectory_from_rows, transform


def free_mode_exact(v0, v1, n_sq, omega, t):
    """Closed-form damped oscillator, written out independently of the solver."""
    if n_sq == 0.0:
        v = v0 + v1 * (1.0 - np.exp(-2.0 * omega * t)) / (2.0 * omega)
        vp = v1 * np.exp(-2.0 * omega * t)
        return v, vp
    disc = n_sq - omega**2
    decay = np.exp(-omega * t)
    if disc > 0.0:
        wd = np.sqrt(disc)
        c, s = np.cos(wd * t), np.sin(wd * t) / wd
    elif disc < 0.0:
        wd = np.sqrt(-disc)
        c, s = np.cosh(wd * t), np.sinh(wd * t) / wd
    else:
        c, s = 1.0, t
    v = decay * (v0 * c + (v1 + omega * v0) * s)
    vp = decay * (v1 * c - (n_sq * v0 + omega * v1) * s)
    return v, vp


def mode_propagator(n_sq, omega, dt):
    """The loop's propagator as (2 x 2 matrix, forcing weights), batched over ``n_sq``."""
    p11, p12, p21, p22, wu, wv = _propagator_pieces(n_sq, omega, dt)
    matrix = np.stack([np.stack([p11, p12], axis=-1), np.stack([p21, p22], axis=-1)], axis=-2)
    return matrix, np.stack([wu, wv], axis=-1)


def zero_source():
    return SourceSpec(amplitude=0.0)


class TestModePropagator:
    @pytest.mark.parametrize("n_sq", [0.0, 0.2, 0.36, 1.0, 9.0, 147.0])
    def test_matches_closed_form(self, n_sq):
        omega, dt = 0.6, 0.37
        matrix, _ = mode_propagator(n_sq, omega, dt)
        v0, v1 = 0.8, -1.1
        got = matrix @ np.array([v0, v1])
        expected = free_mode_exact(v0, v1, n_sq, omega, dt)
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-15)

    def test_semigroup_property(self):
        n_sq = np.array([0.0, 0.25, 1.0, 4.0, 27.0])
        omega = 0.5
        m1, _ = mode_propagator(n_sq, omega, 0.3)
        m2, _ = mode_propagator(n_sq, omega, 0.45)
        m3, _ = mode_propagator(n_sq, omega, 0.75)
        assert np.allclose(m2 @ m1, m3, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("n_sq", [0.0, 0.36, 2.0, 16.0])
    def test_forcing_weights_against_rk(self, n_sq):
        omega, dt, f = 0.6, 0.5, 0.83
        matrix, weights = mode_propagator(n_sq, omega, dt)
        x0 = np.array([0.2, -0.4])

        def rhs(_, y):
            return [y[1], f - 2.0 * omega * y[1] - n_sq * y[0]]

        ref = solve_ivp(rhs, (0.0, dt), x0, rtol=1e-12, atol=1e-14, dense_output=True)
        expected = ref.y[:, -1]
        got = matrix @ x0 + f * weights
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)


def zero_mode_exact(omega, dt):
    """The zero mode's forcing weights (wu, wv) to 50 digits in decimal arithmetic:
    wv = (1 - e^-x) / (2 omega) and wu = (dt - wv) / (2 omega), x = 2 omega dt.
    Each closed form cancels about log10(1 / x) digits, so it carries that
    many more twice over."""
    with localcontext() as ctx:
        ctx.prec = 50 + 2 * max(0, -math.floor(math.log10(2.0 * omega * dt)))
        w, h = Decimal(omega), Decimal(dt)
        wv = (1 - (-2 * w * h).exp()) / (2 * w)
        return (h - wv) / (2 * w), wv


def zero_mode_weights(omega, dt):
    _, _, _, _, wu, wv = _propagator_pieces(np.zeros(1), omega, dt)
    return float(wu[0]), float(wv[0])


def relative_error(got, exact):
    return float(abs((Decimal(got) - exact) / exact))


class TestZeroModeWeights:
    # below the crossover the closed forms cancel: at dt = 0.1 they once gave
    # wu = -0.136 at omega = 1e-8 and 5e298 at omega = 1e-300, for about dt^2 / 2
    @pytest.mark.parametrize("omega", [1e-300, 1e-12, 1e-8, 1e-4, 0.01])
    @pytest.mark.parametrize("dt", [0.1, 0.05])
    def test_small_omega_matches_decimal(self, omega, dt):
        got = zero_mode_weights(omega, dt)
        for value, exact in zip(got, zero_mode_exact(omega, dt)):
            assert relative_error(value, exact) <= 1e-14

    @pytest.mark.parametrize("side", [1 - 1e-9, 1 - 1e-3, 0.5])
    def test_series_side_of_the_crossover_matches_decimal(self, side):
        dt = 0.1
        omega = side * ZERO_MODE_SERIES_X / (2 * dt)
        assert 2.0 * omega * dt < ZERO_MODE_SERIES_X
        for value, exact in zip(zero_mode_weights(omega, dt), zero_mode_exact(omega, dt)):
            assert relative_error(value, exact) <= 1e-14

    @pytest.mark.parametrize(
        "omega, dt",
        # the crossover itself, just above it, and every benchmark omega dt
        [(ZERO_MODE_SERIES_X / 0.2, 0.1), ((1 + 1e-9) * ZERO_MODE_SERIES_X / 0.2, 0.1),
         (0.25, 0.05), (0.5, 0.05), (0.75, 0.05), (0.5, 0.1), (3.0, 0.37)],
    )
    def test_closed_forms_keep_their_bits_above_the_crossover(self, omega, dt):
        x = 2.0 * omega * dt
        assert x >= ZERO_MODE_SERIES_X
        decay2 = np.exp(-2.0 * omega * dt)
        wv = (1.0 - decay2) / (2.0 * omega)
        wu = (dt - wv) / (2.0 * omega)
        got = zero_mode_weights(omega, dt)
        assert got == (wu, wv)
        # what the closed forms lose there: wu takes dt - wv ~ dt x / 2, so the
        # rounding of exp(-x) grows by 1 / x^2 (measured at most 0.46 eps / x^2)
        eps = np.finfo(float).eps
        exact_wu, exact_wv = zero_mode_exact(omega, dt)
        assert relative_error(got[0], exact_wu) <= eps / x**2
        assert relative_error(got[1], exact_wv) <= eps / x


class TestLinearExactness:
    def test_every_mode_matches_closed_form(self):
        grid = GridSpec(8)
        omega = 0.5
        u0 = random_band_limited(grid, seed=40, band=3, amplitude=0.4)
        u0 = u0 + 0.2
        u1 = random_band_limited(grid, seed=41, band=3, amplitude=0.3)
        params = ModelParams(omega=omega, kappa=0.25, mu=0.5)
        config = SolverConfig(grid=grid, dt=0.05, t_end=5.0, sample_every=20)
        traj = simulate(u0, u1, params, zero_source(), config)
        assert traj.breakdown is None

        c0 = transform(u0).coeffs
        c1 = transform(u1).coeffs
        # the raw half spectra: k3 = 0 .. 4, the modes k3 < 0 being their conjugates
        got_u = traj.final_state.u_hat / 8**3
        got_ut = traj.final_state.ut_hat / 8**3
        k = np.fft.fftfreq(8, d=1 / 8)
        scale = np.sqrt(np.max(np.abs(c0)) ** 2 + np.max(np.abs(c1)) ** 2)
        for i1 in range(8):
            for i2 in range(8):
                for i3 in range(8 // 2 + 1):
                    n_sq = float(k[i1] ** 2 + k[i2] ** 2 + k[i3] ** 2)
                    ev, evp = free_mode_exact(c0[i1, i2, i3], c1[i1, i2, i3], n_sq, omega, 5.0)
                    err = np.hypot(abs(got_u[i1, i2, i3] - ev), abs(got_ut[i1, i2, i3] - evp))
                    # Relative per mode, with an absolute floor for the
                    # modes the band-limited data never excites.
                    assert err < 1e-11 * np.hypot(abs(ev), abs(evp)) + 1e-15 * scale


class TestForcingOrder:
    def test_second_order_self_convergence(self):
        grid = GridSpec(8)
        params = ModelParams.from_equation_of_state(2.0 / 3.0, omega=0.5, m=2)
        spec = SourceSpec(amplitude=0.5, preset="bump")
        u0 = random_band_limited(grid, seed=11, band=2, amplitude=0.2, zero_mean=True)
        u1 = random_band_limited(grid, seed=12, band=2, amplitude=0.2, zero_mean=True)

        def endpoint(dt):
            config = SolverConfig(grid=grid, dt=dt, t_end=2.0, sample_every=10**6)
            traj = simulate(u0, u1, params, spec, config)
            assert traj.breakdown is None
            return traj.final_state.u_hat

        reference = endpoint(0.0125 / 4.0)
        errors = [hm_norms(endpoint(dt) - reference, 0)[0] for dt in (0.1, 0.05, 0.025)]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        for ratio in ratios:
            assert 3.2 < ratio < 4.8, f"convergence ratios {ratios}"


class TestMeanMode:
    def test_exponentially_forced_mean_matches_closed_form(self):
        # mu = 0 makes the forcing independent of u, so the mean obeys
        # v'' + 2 omega v' = abar exp(-kappa t) exactly.
        grid = GridSpec(8)
        omega = 0.5
        params = ModelParams.from_equation_of_state(0.5, omega=omega, m=1)
        kappa = params.kappa
        eps = 0.3
        spec = SourceSpec(amplitude=eps, preset="uniform")
        config = SolverConfig(grid=grid, dt=0.02, t_end=8.0, sample_every=5)
        zero = np.zeros(grid.shape)
        traj = simulate(zero, zero, params, spec, config)
        abar = eps / TWO_PI**1.5
        t = traj.times()
        expected = (abar / (2 * omega)) * (
            (1.0 - np.exp(-kappa * t)) / kappa
            - (np.exp(-kappa * t) - np.exp(-2 * omega * t)) / (2 * omega - kappa)
        )
        recorded = traj.series("u_mean")
        assert np.max(np.abs(recorded - expected)) < 5e-5 * abar

        reference = mean_mode_reference(traj)
        assert np.max(np.abs(reference - expected)) < 5e-4 * abar
        assert np.max(np.abs(recorded - reference)) < 5e-4 * abar

    def test_discrete_mean_equation(self):
        # Second difference + 2 omega first difference reproduces Fbar to O(h^2).
        grid = GridSpec(8)
        params = ModelParams.from_equation_of_state(2.0 / 3.0, omega=0.5, m=1)
        spec = SourceSpec(amplitude=0.4, preset="bump")
        config = SolverConfig(grid=grid, dt=0.02, t_end=4.0, sample_every=1)
        u0 = random_band_limited(grid, seed=3, band=2, amplitude=0.1, zero_mean=True)
        u1 = random_band_limited(grid, seed=4, band=2, amplitude=0.1, zero_mean=True)
        traj = simulate(u0, u1, params, spec, config)
        t = traj.times()
        ubar = traj.series("u_mean")
        fbar = traj.series("f_mean")
        h = t[1] - t[0]
        second = (ubar[2:] - 2 * ubar[1:-1] + ubar[:-2]) / h**2
        first = (ubar[2:] - ubar[:-2]) / (2 * h)
        residual = second + 2 * params.omega * first - fbar[1:-1]
        scale = np.max(np.abs(fbar)) * (1.0 + 2 * params.omega + params.kappa) ** 2
        assert np.max(np.abs(residual)) < 5.0 * h**2 * scale

    def test_reference_rejects_nonzero_means(self):
        grid = GridSpec(8)
        params = ModelParams(omega=0.5, kappa=0.25, mu=0.5)
        config = SolverConfig(grid=grid, dt=0.1, t_end=1.0)
        u0 = np.full(grid.shape, 0.2)
        zero = np.zeros(grid.shape)
        traj = simulate(u0, zero, params, zero_source(), config)
        with pytest.raises(ValueError, match="zero-mean"):
            mean_mode_reference(traj)


def outer_product_mean_reference(t, fbar, omega):
    """Duhamel trapezoid through the P x P kernel matrix, row by row."""
    weight = 1.0 - np.exp(-2.0 * omega * (t[:, None] - t[None, :]))
    out = [0.0]
    for i in range(1, len(t)):
        integrand = weight[i, : i + 1] * fbar[: i + 1]
        out.append(float(np.trapezoid(integrand, t[: i + 1])) / (2.0 * omega))
    return np.array(out)


class TestMeanModeQuadrature:
    def test_matches_outer_product_trapezoid(self):
        # t_end is no multiple of sample_every, so the last interval is shorter
        grid = GridSpec(8)
        params = ModelParams.from_equation_of_state(2.0 / 3.0, omega=0.5, m=1)
        spec = SourceSpec(amplitude=0.4, preset="bump", sigma="cos")
        config = SolverConfig(grid=grid, dt=0.02, t_end=4.0, sample_every=7)
        u0 = random_band_limited(grid, seed=3, band=2, amplitude=0.1, zero_mean=True)
        u1 = random_band_limited(grid, seed=4, band=2, amplitude=0.1, zero_mean=True)
        traj = simulate(u0, u1, params, spec, config)
        t = traj.times()
        assert t[-1] - t[-2] < t[1] - t[0]
        values = mean_mode_reference(traj)
        assert values.shape == t.shape
        expected = outer_product_mean_reference(t, traj.series("f_mean"), params.omega)
        assert np.max(np.abs(values - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_long_horizon_without_warnings(self):
        # P = 20001 to t = 2000: a P x P kernel would need 3.2 GB and overflow exp
        omega, fbar = 0.5, 0.3
        params = ModelParams(omega=omega, kappa=0.25, mu=0.5)
        times = np.linspace(0.0, 2000.0, 20001)
        samples = [Sample(t, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, fbar, 0.0) for t in times]
        config = SolverConfig(grid=GridSpec(8), dt=0.1, t_end=2000.0)
        traj = trajectory_from_rows(samples, params=params, config=config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = mean_mode_reference(traj)
        exact = fbar / (2 * omega) * (times - (1.0 - np.exp(-2 * omega * times)) / (2 * omega))
        assert np.max(np.abs(values - exact)) <= 1e-6 * np.max(exact)

    def test_single_sample(self):
        params = ModelParams(omega=0.5, kappa=0.25, mu=0.5)
        config = SolverConfig(grid=GridSpec(8), dt=0.1, t_end=1.0)
        sample = Sample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3, 0.0)
        traj = trajectory_from_rows([sample], params=params, config=config)
        assert mean_mode_reference(traj).tolist() == [0.0]


class TestBreakdown:
    def test_positivity_failure_is_recorded(self):
        grid = GridSpec(8)
        params = ModelParams(omega=0.5, kappa=0.25, mu=0.5)
        spec = SourceSpec(amplitude=0.01, preset="uniform")
        u0 = np.full(grid.shape, -0.5)
        u1 = np.full(grid.shape, -2.0)
        config = SolverConfig(grid=grid, dt=0.01, t_end=2.0, sample_every=1)
        traj = simulate(u0, u1, params, spec, config)
        assert traj.breakdown is not None
        # Mean crosses -1 when (1 - e^{-t}) = 1/4.
        assert traj.breakdown.t == pytest.approx(np.log(4.0 / 3.0), abs=0.05)
        assert traj.times()[-1] < 2.0
        assert "1 + u" in traj.breakdown.reason



class TestTable:
    """``Trajectory.table``: one read-only row (t, *COLUMNS) per sample time."""

    PARAMS = ModelParams(omega=0.5, kappa=0.25, mu=0.5)

    def test_columns_are_read_only_views(self):
        grid = GridSpec(8)
        config = SolverConfig(grid=grid, dt=0.1, t_end=5.0, sample_every=3)
        u0 = random_band_limited(grid, seed=1, band=2, amplitude=0.1)
        traj = simulate(u0, np.zeros(grid.shape), self.PARAMS, SourceSpec(amplitude=0.01), config)
        steps = [*range(0, config.n_steps, 3), config.n_steps]
        assert traj.table.shape == (len(steps), 1 + len(COLUMNS))
        assert traj.times().tolist() == [k * config.dt for k in steps]  # exactly
        for i, name in enumerate(COLUMNS):
            assert np.shares_memory(traj.series(name), traj.table)
            assert np.array_equal(traj.series(name), traj.table[:, 1 + i])
        with pytest.raises(ValueError, match="read-only"):
            traj.times()[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            traj.series("e_m_sq")[:] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            traj.table[-1, -1] = 0.0

    def test_a_run_without_samples_has_an_empty_table(self):
        # 1 + u0 < 0: the run breaks down at step 0, before its first sample
        grid = GridSpec(8)
        config = SolverConfig(grid=grid, dt=0.1, t_end=1.0)
        u0, u1 = np.full(grid.shape, -2.0), np.zeros(grid.shape)
        traj = simulate(u0, u1, self.PARAMS, SourceSpec(amplitude=0.01), config)
        assert traj.breakdown.step == 0
        assert traj.table.shape == (0, 1 + len(COLUMNS))
        assert traj.times().shape == traj.series("u_min").shape == (0,)


class TestSamplingAndConfig:
    def test_samples_cover_endpoints(self):
        grid = GridSpec(8)
        params = ModelParams(omega=0.5, kappa=0.25, mu=0.0)
        config = SolverConfig(grid=grid, dt=0.1, t_end=1.0, sample_every=3)
        zero = np.zeros(grid.shape)
        traj = simulate(zero, zero, params, zero_source(), config)
        t = traj.times()
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(1.0)
        assert np.all(np.diff(t) > 0)

    def test_t_end_must_be_step_multiple(self):
        with pytest.raises(ValueError, match="integer number of steps"):
            SolverConfig(grid=GridSpec(8), dt=0.3, t_end=1.0)

    def test_at_least_one_step(self):
        # 1 / 1e300 rounds to zero steps, which the integer-steps test alone accepts
        with pytest.raises(ValueError, match="shorter than one step"):
            SolverConfig(GridSpec(8), 1e300, 1.0)
        assert SolverConfig(GridSpec(8), 1.0, 1.0).n_steps == 1

    def test_grid_mismatch_rejected(self):
        params = ModelParams(omega=0.5, kappa=0.25, mu=0.0)
        config = SolverConfig(grid=GridSpec(8), dt=0.1, t_end=1.0)
        zero16 = np.zeros((16, 16, 16))
        with pytest.raises(ValueError, match="do not match"):
            simulate(zero16, zero16, params, zero_source(), config)

    def test_dealias_mask_shape(self):
        # a per-mode mask on the (16, 16, 9) half layout, k3 = 0 .. 8
        mask = dealias_mask(16)
        assert mask.shape == (16, 16, 9)
        assert mask[0, 0, 0]
        assert mask[5, 0, 0] and not mask[6, 0, 0]
        assert not mask[8, 0, 0]
        assert mask[0, 0, 5] and not mask[0, 0, 6]
        assert not mask[0, 0, 8]
        assert mask[-5, 0, 5] and not mask[-6, 0, 5]

    def test_dealiasing_changes_nonlinear_runs(self):
        grid = GridSpec(8)
        params = ModelParams.from_equation_of_state(2.0 / 3.0, omega=0.5, m=1)
        spec = SourceSpec(amplitude=1.5, preset="bump")
        u0 = random_band_limited(grid, seed=6, band=3, amplitude=0.4)
        u1 = np.zeros(grid.shape)
        kwargs = dict(grid=grid, dt=0.05, t_end=1.0)
        on = simulate(u0, u1, params, spec, SolverConfig(dealias=True, **kwargs))
        off = simulate(u0, u1, params, spec, SolverConfig(dealias=False, **kwargs))
        du = np.max(np.abs(on.final_state.u_hat - off.final_state.u_hat)) / grid.n**3
        assert du > 1e-12

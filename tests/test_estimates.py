import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from toruswave.estimates import (
    BootstrapParams,
    composition_envelope,
    damped_trapezoids,
    epsilon_budgets,
    falling_derivative_bound,
    forcing_constant,
    fractional_constant,
    g_function,
    gronwall_bound,
    h_threshold,
)
from toruswave.fields import VOLUME
from reference import trapezoid_cumulative

LN2 = math.log(2.0)


def make_params(**overrides):
    base = dict(e_m0=0.1, t1=2 * LN2, eps_prime=0.1, c_delta=2.0)
    base.update(overrides)
    return BootstrapParams(**base)


class TestThresholdFunctions:
    def test_h_frozen_value(self):
        # (1 - e^{-ln 2})(1 - 1/2) = (1/2)(1/2)
        assert h_threshold(0.5, 2 * LN2) == pytest.approx(0.25, abs=1e-15)

    def test_h_rejects_omega_outside_window(self):
        for omega in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="omega in"):
                h_threshold(omega, 1.0)

    def test_h_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="t1"):
            h_threshold(0.5, 0.0)

    def test_g_frozen_value(self):
        # (1 - 1/2) - 0.1 / (1 - 1/2) = 0.5 - 0.2
        assert g_function(2 * LN2, 0.5, 0.1) == pytest.approx(0.3, abs=1e-15)

    def test_g_two_forms_agree(self):
        t = np.linspace(0.05, 30.0, 1000)
        for omega, eps_prime in [(0.5, 0.1), (0.25, 0.05), (0.9, 0.02), (0.1, 0.5)]:
            direct = g_function(t, omega, eps_prime)
            growth = np.exp(omega * t)
            quotient = (growth * (1.0 - eps_prime - omega) - (1.0 - omega)) / (growth - 1.0)
            # near t = 0 the shared 1/(1 - e^{-omega t}) pole inflates both
            # forms, so compare against the local magnitude
            scale = np.maximum(1.0, np.abs(direct))
            assert np.max(np.abs(direct - quotient) / scale) < 1e-12

    def test_g_strictly_increasing(self):
        t = np.linspace(0.05, 30.0, 1000)
        g = g_function(t, 0.5, 0.1)
        assert np.all(np.diff(g) > 0.0)

    def test_g_positive_from_t1_iff_admissible(self):
        omega, t1 = 0.5, 2.0
        h = h_threshold(omega, t1)
        t = np.linspace(t1, t1 + 40.0, 400)
        below = g_function(t, omega, 0.99 * h)
        assert np.all(below > 0.0)
        # inadmissible factor: g(t1) <= 0 even though g still increases
        assert g_function(t1, omega, 1.01 * h) < 0.0

    def test_g_rejects_nonpositive_time(self):
        with pytest.raises(ValueError, match="t > 0"):
            g_function(0.0, 0.5, 0.1)
        with pytest.raises(ValueError, match="t > 0"):
            g_function(np.array([1.0, -2.0]), 0.5, 0.1)


class TestEpsilonBudgets:
    def test_frozen_values(self):
        params = make_params()
        eps1, eps2 = epsilon_budgets(params, omega=0.5)
        # eps1 = omega g(T1) E0 / (sqrt 2 C) with g(T1) = 0.3
        assert eps1 == pytest.approx(0.5 * 0.3 * 0.1 / (math.sqrt(2.0) * 2.0), rel=1e-14)
        # eps2 = (2 omega / C) sqrt(2 (eps' - 3/4 eps'^2)) E0
        expected2 = (2.0 * 0.5 / 2.0) * math.sqrt(2.0 * (0.1 - 0.75 * 0.01)) * 0.1
        assert eps2 == pytest.approx(expected2, rel=1e-14)

    def test_budgets_scale_linearly_with_initial_energy(self):
        small = epsilon_budgets(make_params(e_m0=0.1), omega=0.5)
        large = epsilon_budgets(make_params(e_m0=0.3), omega=0.5)
        assert large[0] == pytest.approx(3.0 * small[0], rel=1e-12)
        assert large[1] == pytest.approx(3.0 * small[1], rel=1e-12)

    def test_rejects_factor_at_threshold(self):
        h = h_threshold(0.5, 2 * LN2)
        with pytest.raises(ValueError, match="no budget"):
            epsilon_budgets(make_params(eps_prime=h), omega=0.5)
        with pytest.raises(ValueError, match="no budget"):
            epsilon_budgets(make_params(eps_prime=h + 0.01), omega=0.5)

    def test_min_budget_vanishes_at_both_ends(self):
        h = h_threshold(0.5, 2 * LN2)
        tiny_factor = epsilon_budgets(make_params(eps_prime=1e-9), omega=0.5)
        assert min(tiny_factor) < 1e-5  # eps2 ~ sqrt(eps')
        near_threshold = epsilon_budgets(make_params(eps_prime=h * (1 - 1e-9)), omega=0.5)
        assert min(near_threshold) < 1e-9  # eps1 ~ g(T1) -> 0


class TestBootstrapParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="initial energy"):
            make_params(e_m0=0.0)
        with pytest.raises(ValueError, match="horizon"):
            make_params(t1=-1.0)
        with pytest.raises(ValueError, match="improvement factor"):
            make_params(eps_prime=1.0)
        with pytest.raises(ValueError, match="forcing constant"):
            make_params(c_delta=-2.0)



class TestGronwallBound:
    def test_frozen_decay_case(self):
        # g' <= -g + 1 from zero: the comparison solution is 1 - e^{-t}
        times = np.linspace(0.0, 5.0, 501)
        bound = gronwall_bound(times, -1.0, np.ones_like(times), 0.0)
        assert np.max(np.abs(bound - (1.0 - np.exp(-times)))) < 1e-5

    def test_exact_for_constant_forcing_without_decay(self):
        times = np.linspace(0.0, 3.0, 31)
        bound = gronwall_bound(times, 0.0, 0.5 * np.ones_like(times), 0.25)
        assert np.max(np.abs(bound - (0.25 + 0.5 * times))) < 1e-13

    def test_dominates_sampled_ode_solution(self):
        rate = -0.75
        f = lambda t: 0.2 * np.exp(-0.5 * t) * (1.0 + 0.5 * np.sin(t))
        times = np.linspace(0.0, 8.0, 801)
        sol = solve_ivp(
            lambda t, y: rate * y + f(t), (0.0, 8.0), [0.3],
            t_eval=times, rtol=1e-10, atol=1e-12,
        )
        bound = gronwall_bound(times, rate, f(times), 0.3)
        assert np.all(sol.y[0] <= bound + 1e-5)

    def test_zero_rate_is_the_running_trapezoid_bit_for_bit(self):
        # the mean-mode reference takes its plain running integral from here
        rng = np.random.default_rng(17)
        for size in rng.integers(2, 600, size=40):
            times = np.cumsum(rng.uniform(0.01, 1.0, size)) - 0.5
            f = rng.standard_normal(size)
            bound = gronwall_bound(times, 0.0, f, 0.0)
            assert np.array_equal(bound, trapezoid_cumulative(times, f))

    def test_validation(self):
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="disagree"):
            gronwall_bound(times, 0.0, np.zeros(10), 0.0)
        with pytest.raises(ValueError, match="increasing"):
            gronwall_bound(times[::-1], 0.0, np.zeros(11), 0.0)


def direct_windows(times, rate, f_values, g0, starts, ends):
    """Each window by its own kernel e^{rate (t_j - s)}, trapezoid and second differences."""
    out = {}
    for s, i in enumerate(starts):
        for j in ends:
            if j > i:
                kf = np.exp(rate * (times[j] - times[i : j + 1])) * f_values[i : j + 1]
                bound = math.exp(rate * (times[j] - times[i])) * g0[s]
                bound += np.trapezoid(kf, times[i : j + 1])
                budget = np.sum(np.abs(kf[2:] - 2.0 * kf[1:-1] + kf[:-2]))
                out[i, j] = (bound, budget)
    return out


class TestDampedTrapezoids:
    @pytest.mark.parametrize("count", [2, 3, 4, 11, 12, 57])
    def test_matches_direct_quadrature(self, count):
        rng = np.random.default_rng(count)
        times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 0.3, count - 1))))
        f_values = rng.uniform(0.0, 1.0, count)
        starts = sorted(rng.choice(count, size=max(1, count // 4), replace=False).tolist())
        ends = sorted(rng.choice(count, size=max(1, count // 3), replace=False).tolist())
        g0 = rng.uniform(0.0, 1.0, len(starts))
        rate = rng.uniform(-1.0, 0.5)  # decay or growth
        got = {}
        for js, bound, budget in damped_trapezoids(times, rate, f_values, g0, starts, ends):
            assert bound.shape == budget.shape == (bound.shape[0], js.size)
            assert all(starts[bound.shape[0] - 1] < j for j in js)
            for row, i in enumerate(starts[: bound.shape[0]]):
                for column, j in enumerate(js):
                    got[i, int(j)] = (bound[row, column], budget[row, column])
        expected = direct_windows(times, rate, f_values, g0, starts, ends)
        assert got.keys() == expected.keys()
        for key, (bound, budget) in expected.items():
            assert got[key][0] == pytest.approx(bound, rel=1e-14)
            assert got[key][1] == pytest.approx(budget, rel=1e-12, abs=1e-300)

    def test_every_start_before_every_end(self):
        times = np.linspace(0.0, 3.0, 31)
        ones = np.ones_like(times)
        blocks = list(damped_trapezoids(times, -1.0, ones, [0.0, 0.0], [0, 20], [0, 10, 20, 25, 30]))
        assert [list(js) for js, _, _ in blocks] == [[10, 20], [25, 30]]
        assert [b.shape[0] for _, b, _ in blocks] == [1, 2]
        # g' <= -g + 1 from 0 has the trapezoid of e^{-(t - s)} over the window
        exact = 1.0 - np.exp(-(times[[25, 30]] - 2.0))
        assert np.max(np.abs(blocks[1][1][1] - exact)) < 1e-3

    def test_long_decay_without_warnings(self):
        # an e^{A t} factor over the whole horizon would underflow to 0 and
        # its inverse overflow; the recurrence forms neither
        times = np.linspace(0.0, 4000.0, 40001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (js, bound, budget), = damped_trapezoids(
                times, -2.0, np.ones_like(times), [1.0], [0], [times.size - 1]
            )
        # the trapezoid sum of e^{-2 (t - s)} on steps h = 0.1 is (h/2) coth(h)
        assert bound[0, 0] == pytest.approx(0.05 / math.tanh(0.1), rel=1e-12)
        assert budget[0, 0] >= 0.0 and math.isfinite(budget[0, 0])


class TestCompositionConstants:
    def test_first_derivative_bound_at_zero_ceiling(self):
        assert falling_derivative_bound(0.5, 1, 0.0) == pytest.approx(0.5)

    def test_negative_exponent_uses_lower_edge(self):
        # |mu (mu - 1)| (1 - delta)^{mu - 2} at mu = 1/2, delta = 1/2
        expected = 0.25 * 0.5 ** (0.5 - 2.0)
        assert falling_derivative_bound(0.5, 2, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_vanishes_past_integer_exponent(self):
        assert falling_derivative_bound(2.0, 3, 0.3) == 0.0

    def test_envelope_for_linear_map_is_one(self):
        for k in (1, 2, 3):
            assert composition_envelope(k, 1.0, 0.4) == pytest.approx(1.0)

    def test_fractional_constant_zero_exponent(self):
        assert fractional_constant(3, 0.0, 0.5, {1: 2.0, 2: 2.0, 3: 2.0}) == 0.0

    def test_fractional_constant_linear_exponent(self):
        # mu = 1: every envelope is 1, so C = max(largest C_k, 1)
        assert fractional_constant(3, 1.0, 0.4, {1: 2.0, 2: 0.5, 3: 0.1}) == pytest.approx(2.0)

    def test_fractional_constant_missing_order(self):
        with pytest.raises(ValueError, match=r"orders \[2\]"):
            fractional_constant(2, 0.5, 0.1, {1: 1.0})

    def test_fractional_constant_monotone_in_ceiling(self):
        moser = {1: 1.0, 2: 1.0, 3: 1.0}
        low = fractional_constant(3, 0.5, 0.3, moser)
        high = fractional_constant(3, 0.5, 0.6, moser)
        assert high >= low

    def test_forcing_constant_chain(self):
        e_m0, mu = 0.1, 0.5
        c_sob, c_alg = 0.2, 0.3
        c_delta = forcing_constant(e_m0, mu, 1, c_sob, c_alg, {1: 1.0})
        dp = c_sob * math.sqrt(2.0) * e_m0  # the sup ceiling delta'
        c1 = 0.5 * (1.0 - dp) ** (0.5 - 1.0)
        expected = c_alg * (c1 * math.sqrt(2.0) * e_m0 + VOLUME**0.5)
        assert c_delta == pytest.approx(expected, rel=1e-14)

    def test_forcing_constant_rejects_large_data(self):
        with pytest.raises(ValueError, match="too large"):
            forcing_constant(0.5, 0.5, 1, 20.0, 0.3, {1: 1.0})

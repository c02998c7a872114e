"""Windowed energy integrals: the shared recurrence against per-pair quadrature.

``check_energy_integral`` and the standard-energy part of
``check_asymptotics`` once ran one ``np.trapezoid`` and one second-difference
budget per (start, end) pair.  Those loops are kept here as the reference:
the recurrence must reproduce every pair's margin and tolerance, and with
them each check's verdict and binding time.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from test_verify import (
    GRID,
    OMEGA,
    PARAMS,
    constants8,  # noqa: F401  (fixture)
    corrupted_traj,  # noqa: F401  (fixture)
    forced_traj,  # noqa: F401  (fixture)
    free_traj,  # noqa: F401  (fixture)
    make_bootstrap,
    velocity_data,
)
from toruswave import verify
from toruswave.fields import hm_norms
from toruswave.solver import SolverConfig, SolverState, simulate
from toruswave.source import ModelParams, SourceSpec
from toruswave.verify import check_asymptotics, check_energy_integral, run_all
from reference import Sample, trajectory_from_rows

FORCING = SourceSpec(amplitude=0.0015, preset="uniform")
REL = 1e-12


def pair_ends(n):
    ends = list(range(0, n, verify.PAIR_STRIDE))
    if ends[-1] != n - 1:
        ends.append(n - 1)
    return ends


def quadrature_budget(integrand, spacing):
    if integrand.size < 3:
        return 0.0
    second = np.abs(integrand[2:] - 2.0 * integrand[1:-1] + integrand[:-2])
    return float(np.sum(second)) * spacing / 12.0


def window_pair(times, rate, profile, lhs, g0, i, j):
    """One window [t_i, t_j] by direct quadrature: (margin, tolerance)."""
    window = slice(i, j + 1)
    kernel = np.exp(-rate * (times[j] - times[window]))
    integrand = kernel * profile[window]
    rhs = math.exp(-rate * (times[j] - times[i])) * g0
    rhs += float(np.trapezoid(integrand, times[window]))
    scale = max(rhs, verify._SCALE_FLOOR)
    spacing = (times[j] - times[i]) / (j - i)
    tolerance = (verify.FD_SAFETY * quadrature_budget(integrand, spacing) + verify.ABS_TOL) / scale
    return (rhs - lhs[j]) / scale, tolerance


def integral_inputs(trajectory):
    """(E_m^2)' <= -omega E_m^2 + P E_m divided by 2 E_m: E_m' <= -(omega/2) E_m + P/2."""
    omega = trajectory.params.omega
    times = trajectory.times()
    e_m = np.sqrt(trajectory.series("e_m_sq"))
    profile = (omega**2 / math.sqrt(2.0)) * trajectory.series("u_hm")
    profile += math.sqrt(2.0) * trajectory.series("f_hm")
    return times, 0.5 * omega, 0.5 * profile, e_m


def standard_inputs(trajectory):
    params = trajectory.params
    times = trajectory.times()
    ut_hm = trajectory.series("ut_hm")
    e_std_sq = trajectory.series("e_std_sq")
    c1 = float(np.max(trajectory.series("f_hm") * np.exp(params.kappa * times)))
    c2 = float(np.max(ut_hm))
    grad_sq = np.maximum(2.0 * e_std_sq - ut_hm**2, 0.0)
    profile = 2.0 * params.omega * grad_sq + c1 * c2 * np.exp(-params.kappa * times)
    return times, 4.0 * params.omega, profile, e_std_sq


def loop_energy_integral(trajectory):
    """Every (i, j) pair by its own quadrature, and the check result over them."""
    times, rate, profile, e_m = integral_inputs(trajectory)
    ends = pair_ends(times.size)
    pairs = {}
    for pos, i in enumerate(ends):
        for j in ends[pos + 1 :]:
            pairs[i, j] = window_pair(times, rate, profile, e_m, e_m[i], i, j)
    worst = [times[j] for _, j in pairs]
    margins, tolerances = zip(*pairs.values())
    return pairs, verify._finish("energy_integral", (worst, margins, tolerances))


def loop_asymptotics(trajectory):
    """check_asymptotics with its standard-energy windows by per-window quadrature."""
    params = trajectory.params
    omega, kappa = params.omega, params.kappa
    times, rate, profile, e_std_sq = standard_inputs(trajectory)
    ut_hm = trajectory.series("ut_hm")
    e_m0 = math.sqrt(trajectory.series("e_m_sq")[0])
    c1 = float(np.max(trajectory.series("f_hm") * np.exp(kappa * times)))
    window_start = times.size - max(2, int(verify.LATE_WINDOW * times.size))
    elapsed = times[window_start] - times[0]
    threshold = verify.ASYMPTOTIC_SAFETY * (e_m0 + c1) * (1.0 + elapsed)
    threshold = threshold * math.exp(-min(omega, kappa) * elapsed) + 1e-12

    late_peak = int(window_start + np.argmax(ut_hm[window_start:]))
    deviation = hm_norms(verify._oscillatory(trajectory.final_state.u_hat), params.m)[0]
    margins = [(threshold - ut_hm[late_peak]) / threshold, (threshold - deviation) / threshold]
    worst = [times[late_peak], times[-1]]
    tolerances = [verify.ABS_TOL, verify.ABS_TOL]
    pairs = {}
    for j in pair_ends(times.size)[1:]:
        pairs[0, j] = window_pair(times, rate, profile, e_std_sq, e_std_sq[0], 0, j)
        margins.append(pairs[0, j][0])
        tolerances.append(pairs[0, j][1])
        worst.append(times[j])
    return pairs, verify._finish("asymptotics", (worst, margins, tolerances))


def recurrence_pairs(times, rate, profile, lhs, starts):
    starts = np.asarray(starts)
    pairs = {}
    for js, margins, tolerances in verify._integral_windows(times, rate, profile, lhs, starts):
        for row, i in enumerate(starts[: margins.shape[0]]):
            for column, j in enumerate(js):
                pairs[int(i), int(j)] = (margins[row, column], tolerances[row, column])
    return pairs


def assert_pairs_match(got, expected):
    assert got.keys() == expected.keys()
    for key, (margin, tolerance) in expected.items():
        # margins are already relative to the bound's scale
        assert abs(got[key][0] - margin) <= REL * max(1.0, abs(margin)), key
        assert abs(got[key][1] - tolerance) <= REL * tolerance, key


def assert_results_match(got, expected):
    assert got.status == expected.status
    assert got.worst_time == expected.worst_time
    assert abs(got.worst_margin - expected.worst_margin) <= REL * max(1.0, abs(expected.worst_margin))
    assert abs(got.tolerance_used - expected.tolerance_used) <= REL * expected.tolerance_used


def forced_run(dt, t_end, sample_every):
    u0, u1 = velocity_data()
    config = SolverConfig(GRID, dt=dt, t_end=t_end, sample_every=sample_every)
    return simulate(u0, u1, PARAMS, FORCING, config)


@pytest.fixture(scope="module")
def short_last_traj():
    # 800 steps in samples of 7: the last interval is 2 steps long
    return forced_run(0.05, 40.0, 7)


@pytest.fixture(scope="module")
def breakdown_traj():
    params = ModelParams(omega=OMEGA, kappa=0.25, mu=-0.5)
    u0 = np.full(GRID.shape, -0.9)
    u1 = np.full(GRID.shape, -0.5)
    config = SolverConfig(GRID, dt=0.05, t_end=10.0, sample_every=2)
    return simulate(u0, u1, params, FORCING, config)


@functools.lru_cache(maxsize=None)
def sized_run(count):
    # P samples spanning at least 20/omega, so check_asymptotics runs as well
    every = -(-80 // (count - 1))
    traj = forced_run(0.5, 0.5 * every * (count - 1), every)
    assert len(traj.table) == count
    return traj


FIXTURES = ["free_traj", "forced_traj", "corrupted_traj", "short_last_traj", "breakdown_traj"]
SIZES = [3, 4, 11, 12, 21]  # 11 and 21 end on the pair stride, 12 one past it


@pytest.fixture(params=FIXTURES + [f"samples={count}" for count in SIZES])
def trajectory(request):
    if request.param.startswith("samples="):
        return sized_run(int(request.param.split("=")[1]))
    return request.getfixturevalue(request.param)


class TestAgainstPerPairQuadrature:
    def test_trajectory_shapes(self, short_last_traj, breakdown_traj):
        t = short_last_traj.times()
        assert t[-1] - t[-2] < t[1] - t[0]
        assert breakdown_traj.breakdown is not None
        assert len(breakdown_traj.table) >= 3

    def test_energy_integral_pairs(self, trajectory):
        expected, _ = loop_energy_integral(trajectory)
        times, rate, profile, e_m = integral_inputs(trajectory)
        got = recurrence_pairs(times, rate, profile, e_m, pair_ends(times.size)[:-1])
        assert_pairs_match(got, expected)

    def test_energy_integral_result(self, trajectory):
        _, expected = loop_energy_integral(trajectory)
        assert_results_match(check_energy_integral(trajectory), expected)

    def test_standard_energy_pairs(self, trajectory):
        expected, _ = loop_asymptotics(trajectory)
        got = recurrence_pairs(*standard_inputs(trajectory), [0])
        assert_pairs_match(got, expected)

    def test_asymptotics_result(self, trajectory):
        result = check_asymptotics(trajectory)
        if result.skipped:
            assert "horizon" in result.reason
            return
        _, expected = loop_asymptotics(trajectory)
        assert_results_match(result, expected)

    def test_corrupted_run_still_fails_decisively(self, corrupted_traj):
        result = check_energy_integral(corrupted_traj)
        assert not result.passed
        assert result.worst_margin < -10.0 * result.tolerance_used

    def test_ties_bind_at_the_first_pair(self, free_traj):
        # an all-zero run ties every pair; a flat (i, j) list binds at (0, 10)
        samples = [Sample(t, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) for t in free_traj.times()]
        zero = trajectory_from_rows(samples, like=free_traj)
        result = check_energy_integral(zero)
        assert result.passed and result.worst_margin == 0.0
        assert result.worst_time == zero.times()[verify.PAIR_STRIDE]


class TestUndampedForcing:
    def test_matches_plain_product_on_short_horizons(self, forced_traj):
        times = forced_traj.times()
        f_hm = forced_traj.series("f_hm")
        kappa = forced_traj.params.kappa
        plain = f_hm * np.exp(kappa * times)
        got = verify._undamped(f_hm, kappa, times)
        assert np.all(np.abs(got - plain) <= 1e-13 * plain)

    def test_zeros_stay_zero_and_nothing_overflows(self):
        times = np.array([0.0, 1000.0, 4000.0, 4000.0])
        norms = np.array([0.0, 2.0 * math.exp(-250.0), 0.0, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = verify._undamped(norms, 0.25, times)
        assert got[0] == 0.0 and got[2] == 0.0
        assert got[1] == pytest.approx(2.0, rel=1e-13)
        # 1e-300 e^{1000} ~ 1e134: the product is representable though e^{1000} is not
        assert got[3] == pytest.approx(math.exp(math.log(1e-300) + 1000.0), rel=1e-12)

    def test_subnormal_norms_are_not_scaled_into_noise(self):
        # 3e-3 e^{-737.5} = 1.5e-323 keeps 2 bits: scaled back it reads 3% off
        kappa, t = 0.25, 2950.0
        norm = 3e-3 * math.exp(-kappa * t)
        assert 0.0 < norm < np.finfo(np.float64).tiny
        assert abs(math.exp(math.log(norm) + kappa * t) / 3e-3 - 1.0) > 0.01
        got = verify._undamped(np.array([3e-3, norm]), kappa, np.array([0.0, t]))
        assert got[0] == pytest.approx(3e-3, rel=1e-13) and got[1] == 0.0

    def test_nan_is_not_hidden(self):
        got = verify._undamped(np.array([np.nan, 1.0]), 0.25, np.array([0.0, 1.0]))
        assert math.isnan(got[0])


def long_trajectory(count, t_end, omega=OMEGA, kappa=0.25, amplitude=0.0015):
    """A smooth decaying run to a long horizon, built from its sample formulas."""
    times = np.linspace(0.0, t_end, count)
    decay = np.exp(-0.5 * omega * times)
    forcing = amplitude * 2.0 * np.exp(-kappa * times)
    u_hm = 0.02 * decay * (1.0 + 0.1 * np.cos(times))
    ut_hm = 0.04 * decay
    e_m_sq = (0.05 * decay) ** 2
    e_std_sq = 0.5 * (ut_hm**2 + (0.5 * u_hm) ** 2)
    f_mean = amplitude * np.exp(-kappa * times)
    u_mean = f_mean / (2.0 * omega) * (1.0 - np.exp(-2.0 * omega * times))
    samples = [
        Sample(*row, -0.01)
        for row in zip(times, e_m_sq, e_std_sq, u_hm, ut_hm, forcing, u_mean, f_mean)
    ]
    params = ModelParams(omega=omega, kappa=kappa, mu=0.5)
    config = SolverConfig(GRID, dt=t_end / (count - 1), t_end=t_end)
    x1 = GRID.coordinates()[0]
    final = SolverState(
        t=t_end,
        u_hat=np.fft.rfftn(np.full(GRID.shape, 1e-3) + 1e-30 * np.cos(x1)),
        ut_hat=np.zeros((GRID.n, GRID.n, GRID.n // 2 + 1), dtype=np.complex128),
    )
    return trajectory_from_rows(
        samples, params=params, config=config, source_amplitude=amplitude, final_state=final,
    )


class TestLongHorizon:
    @pytest.fixture(scope="class")
    def long_traj(self):
        return long_trajectory(20001, 4000.0)

    def test_short_runs_agree_with_the_per_pair_loops(self):
        # the same formulas on a short horizon, where the old loops are affordable
        short = long_trajectory(201, 100.0)
        pairs, expected = loop_energy_integral(short)
        assert_results_match(check_energy_integral(short), expected)
        times, rate, profile, e_m = integral_inputs(short)
        assert_pairs_match(recurrence_pairs(times, rate, profile, e_m, pair_ends(201)[:-1]), pairs)

    def test_finite_without_warnings(self, long_traj, constants8):
        bootstrap = make_bootstrap(long_traj)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integral = check_energy_integral(long_traj)
            asymptotics = check_asymptotics(long_traj)
            report = run_all(long_traj, bootstrap, constants8)
        assert not integral.skipped and math.isfinite(integral.worst_margin)
        assert not asymptotics.skipped and math.isfinite(asymptotics.worst_margin)
        assert math.isfinite(report.c0_estimate)
        for result in report.results:
            assert not result.skipped, result.check_id
            assert math.isfinite(result.worst_margin), result.check_id
            assert math.isfinite(result.tolerance_used), result.check_id
        assert report.c_delta_measured == pytest.approx(2.0, rel=1e-9)

    def test_no_per_pair_quadrature(self, long_traj, monkeypatch):
        calls = {"trapezoid": 0, "budget": 0}
        trapezoid, budget = np.trapezoid, verify._quadrature_budget

        def counting_trapezoid(*args, **kwargs):
            calls["trapezoid"] += 1
            return trapezoid(*args, **kwargs)

        def counting_budget(*args, **kwargs):
            calls["budget"] += 1
            return budget(*args, **kwargs)

        monkeypatch.setattr(np, "trapezoid", counting_trapezoid)
        monkeypatch.setattr(verify, "_quadrature_budget", counting_budget)
        check_energy_integral(long_traj)
        check_asymptotics(long_traj)
        assert calls == {"trapezoid": 0, "budget": 0}
        run_all(long_traj, make_bootstrap(long_traj))
        assert calls["budget"] <= 1  # check_mean_mode's one budget over the whole run

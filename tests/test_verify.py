import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from toruswave import verify
from toruswave.calibration import calibrate
from toruswave.energy import COLUMNS, modified_energy
from toruswave.estimates import BootstrapParams, epsilon_budgets
from toruswave.fields import VOLUME, GridSpec
from toruswave.solver import SolverConfig, SolverState, simulate
from toruswave.source import ModelParams, SourceSpec
from toruswave.verify import (
    CheckResult,
    check_algebra_final,
    check_asymptotics,
    check_bootstrap,
    check_energy_differential,
    check_energy_integral,
    check_improved_estimates,
    check_mean_mode,
    check_wirtinger_final,
    run_all,
)
from reference import Sample, trajectory_from_rows

GRID = GridSpec(8)
OMEGA = 0.5
PARAMS = ModelParams.from_equation_of_state(2.0 / 3.0, OMEGA, m=3)
E_TARGET = 0.05
NO_SOURCE = SourceSpec(amplitude=0.0)


def velocity_data(target=E_TARGET):
    """u0 = 0, u1 a single mode scaled so E_3(0) hits the target exactly."""
    x1, x2, x3 = GRID.coordinates()
    u0 = np.zeros(GRID.shape)
    raw = np.cos(2.0 * x1 + 2.0 * x2 + x3)
    scale = target / math.sqrt(modified_energy(u0, raw, OMEGA, m=3))
    return u0, scale * raw


def long_config(dt=0.05):
    # t_end = 20/omega, the shortest horizon the asymptotic check accepts
    return SolverConfig(GRID, dt=dt, t_end=40.0, sample_every=4)


def named_rows(trajectory):
    """The rows of the trajectory's table as ``Sample``s."""
    return [Sample(*row) for row in trajectory.table.tolist()]


def make_bootstrap(trajectory, t1=2.0, eps_prime=0.1, c_delta=2.0):
    e_m0 = math.sqrt(trajectory.series("e_m_sq")[0])
    bp = BootstrapParams(
        e_m0=e_m0,
        t1=t1,
        eps_prime=eps_prime,
        c_delta=c_delta,
    )
    bp.eps1, bp.eps2 = epsilon_budgets(bp, trajectory.params.omega)
    return bp


@pytest.fixture(scope="module")
def free_traj():
    u0, u1 = velocity_data()
    return simulate(u0, u1, PARAMS, NO_SOURCE, long_config())


@pytest.fixture(scope="module")
def free_bp(free_traj):
    return make_bootstrap(free_traj)


@pytest.fixture(scope="module")
def forced_traj():
    # amplitude well inside min(eps1, eps2) for the bootstrap fixture below
    u0, u1 = velocity_data()
    spec = SourceSpec(amplitude=0.0015, preset="uniform")
    return simulate(u0, u1, PARAMS, spec, long_config())


@pytest.fixture(scope="module")
def forced_bp(forced_traj):
    return make_bootstrap(forced_traj)


@pytest.fixture(scope="module")
def mean_traj():
    # constant data: only the zero mode evolves, exactly
    u0 = np.full(GRID.shape, 0.1)
    u1 = np.full(GRID.shape, 0.02)
    return simulate(u0, u1, PARAMS, NO_SOURCE, long_config())


@pytest.fixture(scope="module")
def settled_traj():
    # constant data far past the decay horizon: u is flat to roundoff at the end
    u0 = np.full(GRID.shape, 0.1)
    u1 = np.full(GRID.shape, 0.02)
    config = SolverConfig(GRID, dt=0.5, t_end=120.0, sample_every=4)
    return simulate(u0, u1, PARAMS, NO_SOURCE, config)


@pytest.fixture(scope="module")
def short_traj():
    u0, u1 = velocity_data()
    config = SolverConfig(GRID, dt=0.05, t_end=1.0, sample_every=4)
    return simulate(u0, u1, PARAMS, NO_SOURCE, config)


@pytest.fixture(scope="module")
def runaway_traj():
    # mu = 1 keeps (1 + u) harmless while the huge source amplitude drives
    # the mean up; the a-priori smallness assumption must fail in finite time
    params = ModelParams(omega=OMEGA, kappa=0.3, mu=1.0)
    u0, u1 = velocity_data()
    spec = SourceSpec(amplitude=50.0, preset="uniform")
    return simulate(u0, u1, params, spec, long_config())


@pytest.fixture(scope="module")
def corrupted_traj(free_traj):
    omega = free_traj.params.omega
    samples = [
        s._replace(e_m_sq=s.e_m_sq * math.exp(omega * s.t))
        for s in named_rows(free_traj)
    ]
    return trajectory_from_rows(samples, like=free_traj)


@pytest.fixture(scope="module")
def constants8():
    return calibrate(GRID, m=3, seed=2024, n_fields=12)


class TestEnergyDifferential:
    def test_passes_on_free_decay(self, free_traj):
        result = check_energy_differential(free_traj)
        assert result.passed and not result.skipped
        assert result.worst_margin > 0.0

    def test_passes_on_forced_run(self, forced_traj):
        assert check_energy_differential(forced_traj).passed

    def test_zero_trajectory_is_trivial(self):
        zero = np.zeros(GRID.shape)
        config = SolverConfig(GRID, dt=0.1, t_end=2.0, sample_every=2)
        traj = simulate(zero, zero, PARAMS, NO_SOURCE, config)
        result = check_energy_differential(traj)
        assert result.passed
        assert result.worst_margin == 0.0

    def test_rejects_tampered_decay_rate(self, corrupted_traj):
        result = check_energy_differential(corrupted_traj)
        assert not result.passed and not result.skipped

    def test_skips_below_three_samples(self, free_traj):
        stub = trajectory_from_rows(free_traj.table[:2], like=free_traj)
        result = check_energy_differential(stub)
        assert result.skipped and "3 samples" in result.reason
        assert math.isnan(result.worst_margin)


class TestEnergyIntegral:
    def test_passes_on_free_decay(self, free_traj):
        result = check_energy_integral(free_traj)
        assert result.passed and not result.skipped

    def test_passes_on_forced_run(self, forced_traj):
        assert check_energy_integral(forced_traj).passed

    def test_rejects_tampered_decay_rate(self, corrupted_traj):
        result = check_energy_integral(corrupted_traj)
        assert not result.passed
        # the violation is decisive, far beyond any quadrature budget
        assert result.worst_margin < -10.0 * result.tolerance_used


class TestBootstrap:
    def test_holds_on_small_data(self, free_traj, free_bp):
        result, t_max = check_bootstrap(free_traj, free_bp)
        assert result.passed
        assert t_max is None

    def test_skips_when_initial_data_gate_fails(self, mean_traj):
        u0_norm = mean_traj.series("u_hm")[0]
        bp = BootstrapParams(
            e_m0=u0_norm / 8.0,
            t1=2.0,
            eps_prime=0.1,
            c_delta=2.0,
        )
        result, t_max = check_bootstrap(mean_traj, bp)
        assert result.skipped and "precondition" in result.reason
        assert t_max is None

    def test_runaway_source_violates_in_finite_time(self, runaway_traj):
        bp = make_bootstrap(runaway_traj)
        result, t_max = check_bootstrap(runaway_traj, bp)
        assert not result.passed
        assert t_max is not None
        assert 0.0 < t_max < runaway_traj.times()[-1]


class TestImprovedEstimates:
    def test_passes_within_budget(self, forced_traj, forced_bp):
        assert forced_traj.source_amplitude <= min(forced_bp.eps1, forced_bp.eps2)
        result = check_improved_estimates(forced_traj, forced_bp)
        assert result.passed and not result.skipped

    def test_passes_without_source(self, free_traj, free_bp):
        assert check_improved_estimates(free_traj, free_bp).passed

    def test_skips_when_budget_exceeded(self, runaway_traj):
        bp = make_bootstrap(runaway_traj)
        result = check_improved_estimates(runaway_traj, bp)
        assert result.skipped and "budget exceeded" in result.reason

    def test_skips_when_no_admissible_improvement(self, free_traj):
        e_m0 = math.sqrt(free_traj.series("e_m_sq")[0])
        # h(omega=1/2, t1=2) ~ 0.316, so 0.4 is past the threshold
        bp = BootstrapParams(
            e_m0=e_m0, t1=2.0, eps_prime=0.4, c_delta=2.0,
        )
        result = check_improved_estimates(free_traj, bp)
        assert result.skipped and "no admissible improvement factor" in result.reason

    def test_skips_when_horizon_precedes_t1(self, short_traj):
        bp = make_bootstrap(short_traj, t1=5.0)
        result = check_improved_estimates(short_traj, bp)
        assert result.skipped and "shorter than T1" in result.reason

    def test_rejects_tampered_late_energy(self, forced_traj, forced_bp):
        # x16 quadruples E_m, lifting E(t1) ~ E(0)/e past (1 - eps') E(0)
        samples = [
            s._replace(e_m_sq=16.0 * s.e_m_sq) if s.t >= forced_bp.t1 else s
            for s in named_rows(forced_traj)
        ]
        bad = trajectory_from_rows(samples, like=forced_traj)
        result = check_improved_estimates(bad, forced_bp)
        assert not result.passed and not result.skipped


class TestMeanMode:
    def test_zero_source_zero_mean_is_trivial(self, free_traj, free_bp):
        result = check_mean_mode(free_traj, free_bp)
        assert result.passed

    def test_forced_mean_tracks_reference(self, forced_traj, forced_bp):
        result = check_mean_mode(forced_traj, forced_bp)
        assert result.passed and not result.skipped

    def test_smallness_bound_without_bootstrap_params(self, forced_traj):
        assert check_mean_mode(forced_traj).passed

    def test_skips_on_nonzero_mean_data(self, mean_traj):
        result = check_mean_mode(mean_traj)
        assert result.skipped and "nonzero-mean" in result.reason

    def test_rejects_tampered_means(self, forced_traj, forced_bp):
        samples = named_rows(forced_traj)
        samples[1:] = [s._replace(u_mean=s.u_mean + 0.05) for s in samples[1:]]
        bad = trajectory_from_rows(samples, like=forced_traj)
        result = check_mean_mode(bad, forced_bp)
        assert not result.passed and not result.skipped


class TestAsymptotics:
    def test_free_decay_settles_to_zero(self, free_traj):
        result, c0 = check_asymptotics(free_traj)
        assert result.passed and not result.skipped
        assert abs(c0) < 1e-10

    def test_constant_limit_matches_conserved_combination(self, mean_traj):
        result, c0 = check_asymptotics(mean_traj)
        assert result.passed
        # u0_bar + u1_bar / (2 omega) = 0.1 + 0.02 / 1 = 0.12
        assert c0 == pytest.approx(0.12, abs=1e-6)

    def test_skips_on_short_horizon(self, short_traj):
        result, c0 = check_asymptotics(short_traj)
        assert result.skipped and "horizon" in result.reason

    def test_rejects_non_decaying_velocity(self, free_traj):
        samples = [
            s._replace(ut_hm=s.ut_hm + 1.0) if s.t >= 36.0 else s
            for s in named_rows(free_traj)
        ]
        bad = trajectory_from_rows(samples, like=free_traj)
        result, _ = check_asymptotics(bad)
        assert not result.passed

    def test_rejects_growing_standard_energy(self, free_traj):
        omega = free_traj.params.omega
        samples = [
            s._replace(e_std_sq=s.e_std_sq * math.exp(4.0 * omega * s.t) + 1.0)
            for s in named_rows(free_traj)
        ]
        bad = trajectory_from_rows(samples, like=free_traj)
        result, _ = check_asymptotics(bad)
        assert not result.passed


    def _flattening_threshold(self, trajectory):
        # the bound check_asymptotics compares the final deviation against
        times = trajectory.times()
        kappa = trajectory.params.kappa
        e_m0 = math.sqrt(trajectory.series("e_m_sq")[0])
        c1 = float(np.max(trajectory.series("f_hm") * np.exp(kappa * times)))
        start = times.size - max(2, int(verify.LATE_WINDOW * times.size))
        elapsed = times[start] - times[0]
        decay = min(trajectory.params.omega, kappa)
        growth = (1.0 + elapsed) * math.exp(-decay * elapsed)
        return verify.ASYMPTOTIC_SAFETY * (e_m0 + c1) * growth + 1e-12

    def test_flat_final_state_passes_despite_norm_roundoff(self, settled_traj):
        # A mean summed over the grid can sit a few ulps off c(0)/n^3; then
        # subtracting its share from the recorded ||u||^2 leaves a residue of
        # order sqrt(eps) ||u||, far above the threshold here, so the check must
        # measure the oscillatory part directly instead.  The table's last
        # u_mean is moved 4 ulps down, as such a sum can read (one ulp leaves
        # too little residue to show this).
        rows = settled_traj.table.copy()
        column = 1 + COLUMNS.index("u_mean")
        for _ in range(4):
            rows[-1, column] = np.nextafter(rows[-1, column], -np.inf)
        summed = trajectory_from_rows(rows, like=settled_traj)
        c0 = summed.series("u_mean")[-1]
        u_hm = summed.series("u_hm")[-1]
        subtracted = math.sqrt(max(u_hm**2 - VOLUME * c0**2, 0.0))
        assert subtracted > 10.0 * self._flattening_threshold(summed)
        result, c0_est = check_asymptotics(summed)
        assert result.passed and not result.skipped
        assert c0_est == pytest.approx(0.1 + 0.02 / (2 * OMEGA), rel=1e-6)

    def test_rejects_non_flat_final_state(self, settled_traj):
        x1 = GRID.coordinates()[0]
        final = settled_traj.final_state
        ripple = np.fft.rfftn(1e-6 * np.cos(x1) + np.zeros(GRID.shape))
        bad = dataclasses.replace(
            settled_traj, final_state=dataclasses.replace(final, u_hat=final.u_hat + ripple)
        )
        assert 1e-6 > 10.0 * self._flattening_threshold(bad)
        result, _ = check_asymptotics(bad)
        assert not result.passed and not result.skipped

    def test_skips_without_final_state(self, free_traj):
        stub = dataclasses.replace(free_traj, final_state=None)
        result, c0 = check_asymptotics(stub)
        assert result.skipped and "final state" in result.reason
        assert c0 == free_traj.series("u_mean")[-1]


class TestFinalStateChecks:
    def test_wirtinger_on_oscillatory_state(self, free_traj):
        result = check_wirtinger_final(free_traj)
        assert result.passed and not result.skipped

    def test_wirtinger_on_constant_state(self, mean_traj):
        # constant field: both sides vanish
        assert check_wirtinger_final(mean_traj).passed

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
    def test_wirtinger_margin_not_negative_at_equality(self, n, eps):
        # u = 1 + eps cos(x_i + phi) has |k| = 1 besides its mean, where Wirtinger
        # is an equality: removing the mean must leave no roundoff behind
        grid = GridSpec(n)
        for j in range(8):
            x = grid.coordinates()[j % 3]
            raw = np.fft.rfftn(1.0 + eps * np.cos(x + j * math.pi / 4) + np.zeros(grid.shape))
            trajectory = trajectory_from_rows(
                [Sample(0.1, *[0.0] * 8)],
                params=PARAMS,
                config=SolverConfig(grid, dt=0.1, t_end=0.1),
                final_state=SolverState(0.1, raw, raw),
            )
            assert check_wirtinger_final(trajectory).worst_margin >= 0.0

    def test_wirtinger_skips_without_final_state(self, free_traj):
        stub = dataclasses.replace(free_traj, final_state=None)
        result = check_wirtinger_final(stub)
        assert result.skipped and "final state" in result.reason

    def test_algebra_on_constant_state(self, mean_traj, constants8):
        result = check_algebra_final(mean_traj, constants8)
        assert result.passed and not result.skipped

    def test_algebra_on_oscillatory_state(self, forced_traj, constants8):
        assert check_algebra_final(forced_traj, constants8).passed

    def test_algebra_skips_without_constants(self, free_traj):
        result = check_algebra_final(free_traj, None)
        assert result.skipped and "constants" in result.reason

    def test_algebra_skips_on_grid_mismatch(self, mean_traj, constants16):
        result = check_algebra_final(mean_traj, constants16)
        assert result.skipped and "calibrated for n = 16" in result.reason

    def test_algebra_rejects_understated_constant(self, mean_traj, constants8):
        doctored = dataclasses.replace(constants8, c_algebra=1e-6)
        result = check_algebra_final(mean_traj, doctored)
        assert not result.passed and not result.skipped


EXPECTED_ORDER = [
    "energy_differential",
    "energy_integral",
    "bootstrap",
    "improved_estimates",
    "mean_mode",
    "asymptotics",
    "wirtinger_final",
    "algebra_final",
]


class TestRunAll:
    def test_free_run_report(self, free_traj, free_bp, constants8):
        report = run_all(free_traj, free_bp, constants8, scenario="free-decay")
        assert [r.check_id for r in report.results] == EXPECTED_ORDER
        assert report.all_passed()
        assert report.t_max_empirical is None
        assert report.breakdown == ""
        assert report.c_delta_measured == 0.0
        assert report.spectral_tail < 0.5

    def test_forced_run_measures_forcing_constant(self, forced_traj, forced_bp, constants8):
        report = run_all(forced_traj, forced_bp, constants8, scenario="forced")
        assert report.all_passed()
        assert report.c_delta_measured > 0.0
        # the declared c_delta must dominate the measured one for the
        # budget arithmetic to have been meaningful
        assert report.c_delta_measured <= forced_bp.c_delta

    def test_corrupted_run_fails_exactly_the_energy_checks(
        self, corrupted_traj, free_bp, constants8
    ):
        report = run_all(corrupted_traj, free_bp, constants8, scenario="corrupted")
        assert not report.all_passed()
        failed = {r.check_id for r in report.results if not r.passed and not r.skipped}
        assert failed == {"energy_differential", "energy_integral"}

    def test_report_text_is_deterministic(self, free_traj, free_bp, constants8):
        first = run_all(free_traj, free_bp, constants8, scenario="free-decay")
        second = run_all(free_traj, free_bp, constants8, scenario="free-decay")
        assert first.to_text() == second.to_text()
        assert first.to_csv() == second.to_csv()

    def test_report_text_sections(self, free_traj, free_bp):
        report = run_all(free_traj, free_bp, scenario="free-decay")
        text = report.to_text()
        for needle in ("scenario = free-decay", "[params]", "[bootstrap]",
                       "[summary]", "[checks]", "all_passed = true"):
            assert needle in text
        # constants were not supplied, so the product check reports a skip
        assert "algebra_final: SKIP" in text

    def test_report_csv_parses_back(self, free_traj, free_bp, constants8):
        report = run_all(free_traj, free_bp, constants8, scenario="free-decay")
        rows = list(csv.DictReader(io.StringIO(report.to_csv())))
        assert [row["check_id"] for row in rows] == EXPECTED_ORDER
        for row in rows:
            assert row["status"] in {"PASS", "FAIL", "SKIP"}
            float(row["worst_margin"])  # parseable, possibly nan

    def test_breakdown_is_surfaced(self, free_bp):
        # mu < 0 with 1 + u crossing zero stops the run; force it with huge
        # negative constant data pushed by nothing (u stays at -0.9 < 0 ok)
        params = ModelParams(omega=OMEGA, kappa=0.25, mu=-0.5)
        u0 = np.full(GRID.shape, -0.9)
        u1 = np.full(GRID.shape, -0.5)
        spec = SourceSpec(amplitude=0.01, preset="uniform")
        config = SolverConfig(GRID, dt=0.05, t_end=10.0, sample_every=2)
        traj = simulate(u0, u1, params, spec, config)
        assert traj.breakdown is not None
        report = run_all(traj, free_bp, scenario="collapse")
        assert report.breakdown.startswith("t = ")

    def test_linear_regime_margins_are_scale_invariant(self, constants8):
        # with mu = 1 the source is affine in u, so scaling data and source
        # together scales every norm and cannot move normalized margins
        params = ModelParams(omega=OMEGA, kappa=0.25, mu=1.0)

        def margins(scale):
            u0, u1 = velocity_data(target=scale * E_TARGET)
            spec = SourceSpec(amplitude=scale * 0.001, preset="single-mode")
            config = SolverConfig(GRID, dt=0.05, t_end=20.0, sample_every=4)
            traj = simulate(u0, u1, params, spec, config)
            return (
                check_energy_differential(traj).worst_margin,
                check_energy_integral(traj).worst_margin,
            )

        coarse = margins(1.0)
        fine = margins(0.25)
        assert coarse == pytest.approx(fine, rel=1e-6, abs=1e-9)


class TestCheckResultShape:
    def test_status_strings(self):
        passing = CheckResult("x", True, 0.1, 0.0, 1e-9)
        failing = CheckResult("x", False, -0.1, 0.0, 1e-9)
        skipped = CheckResult("x", False, math.nan, math.nan, 0.0, skipped=True, reason="r")
        assert (passing.status, failing.status, skipped.status) == ("PASS", "FAIL", "SKIP")

"""Desk-scale release gates: one test per numbered criterion.

Each test prints a single verdict line (visible with -s; the pytest -v
PASSED/FAILED column carries the same information).  Tolerances and runtime
budgets are part of the gate and must not be loosened to make a run fit.
"""

import math
import time

import numpy as np
import pytest

from toruswave.calibration import calibrate, save_constants
from toruswave.cli import build_scenario, load_config
from toruswave.energy import modified_energy
from toruswave.estimates import (
    BootstrapParams,
    epsilon_budgets,
    fractional_constant,
    g_function,
    h_threshold,
)
from toruswave.fields import (
    VOLUME,
    GridSpec,
    hm_norms,
    random_band_limited,
)
from toruswave.solver import SolverConfig, simulate
from toruswave.source import ModelParams, SourceSpec
from toruswave.verify import (
    check_energy_differential,
    check_energy_integral,
    mean_mode_reference,
    run_all,
)
from reference import (
    Sample,
    padded_product,
    sample_energies,
    spectrum_norm,
    trajectory_from_rows,
    transform,
)

GRID16 = GridSpec(16)
REL_SLACK = 1e-9  # float headroom on inequalities that hold with real margin


def _verdict(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS ({detail})")


@pytest.fixture(scope="module")
def constants8_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cal8") / "constants.txt"
    save_constants(calibrate(GridSpec(8), 3, seed=2024, n_fields=12), path)
    return path


@pytest.fixture(scope="module")
def flagship(tmp_path_factory, constants16):
    """The bundled flagship scenario, simulated and verified once."""
    path = tmp_path_factory.mktemp("cal16") / "constants.txt"
    save_constants(constants16, path)
    entries = load_config("flagship")
    entries["constants.path"] = str(path)
    scenario = build_scenario(entries)
    start = time.monotonic()
    trajectory = simulate(
        scenario.u0, scenario.u1, scenario.params, scenario.source, scenario.solver
    )
    report = run_all(trajectory, scenario.bootstrap, scenario.constants, scenario.name)
    elapsed = time.monotonic() - start
    return scenario, trajectory, report, elapsed


def _scaled_flagship_entries(constants8_file, dt: float, t_end: float, sample_every: int):
    entries = load_config("flagship")
    entries["grid.n"] = "8"
    entries["constants.path"] = str(constants8_file)
    entries["solver.dt"] = repr(dt)
    entries["solver.t_end"] = repr(t_end)
    entries["solver.sample_every"] = str(sample_every)
    return entries


def test_criterion_1_linear_modes_match_closed_form():
    start = time.monotonic()
    omega = 0.5
    t_end = 20.0
    params = ModelParams.from_equation_of_state(2.0 / 3.0, omega)
    u0 = random_band_limited(GRID16, seed=11, band=4, amplitude=0.02)
    u1 = random_band_limited(GRID16, seed=12, band=4, amplitude=0.02)
    source = SourceSpec(amplitude=0.0)

    # hand-rolled oscillator: roots -omega +- i sqrt(|n|^2 - omega^2) per
    # mode, and the drift-to-plateau formula on the mean
    wavenumbers = np.fft.fftfreq(GRID16.n, d=1.0 / GRID16.n)
    k1, k2, k3 = np.meshgrid(wavenumbers, wavenumbers, wavenumbers, indexing="ij")
    n_sq = k1**2 + k2**2 + k3**2
    oscillating = n_sq > 0
    osc = np.sqrt(np.where(oscillating, n_sq - omega**2, 1.0))
    u0_hat = transform(u0).coeffs
    u1_hat = transform(u1).coeffs
    exact = np.exp(-omega * t_end) * (
        u0_hat * np.cos(osc * t_end)
        + (u1_hat + omega * u0_hat) / osc * np.sin(osc * t_end)
    )
    mean_limit = u0_hat + u1_hat * (1.0 - math.exp(-2.0 * omega * t_end)) / (2.0 * omega)
    exact = np.where(oscillating, exact, mean_limit)

    # modes the data never populated hold nothing but transform roundoff
    # (~1e-20), so a ratio there measures noise against noise; score those
    # in absolute terms instead
    spectrum_scale = np.abs(u0_hat) + np.abs(u1_hat)
    active = spectrum_scale > 1e-13 * spectrum_scale.max()

    # the final state is the raw half spectrum: k3 >= 0, the rest being conjugates
    half = slice(0, GRID16.n // 2 + 1)
    exact, active = exact[..., half], active[..., half]
    worst = 0.0
    worst_silent = 0.0
    for dt in (0.1, 0.05, 0.02):
        config = SolverConfig(
            grid=GRID16, dt=dt, t_end=t_end, sample_every=round(t_end / dt)
        )
        trajectory = simulate(u0, u1, params, source, config)
        assert trajectory.breakdown is None
        got = trajectory.final_state.u_hat / GRID16.n**3
        err = np.abs(got - exact)
        worst = max(worst, float(np.max(err[active] / np.abs(exact)[active])))
        worst_silent = max(worst_silent, float(np.max(err[~active])))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert worst_silent <= 1e-15, "unpopulated modes must stay at machine zero"
    assert elapsed < 10.0
    _verdict(1, f"worst per-mode relative error {worst:.3e}, {elapsed:.1f} s")


def test_criterion_2_zero_source_mean_limit():
    start = time.monotonic()
    omega = 0.5
    t_end = 30.0 / omega
    params = ModelParams.from_equation_of_state(2.0 / 3.0, omega)
    x1, x2, x3 = GRID16.coordinates()
    full = np.zeros(GRID16.shape)
    u0 = full + 0.1 + 0.02 * np.cos(x1 + 2.0 * x2) + 0.01 * np.sin(x3)
    u1 = full + 0.02 + 0.015 * np.cos(2.0 * x1 + x3)
    source = SourceSpec(amplitude=0.0)
    config = SolverConfig(grid=GRID16, dt=0.05, t_end=t_end, sample_every=24)
    trajectory = simulate(u0, u1, params, source, config)
    assert trajectory.breakdown is None

    c0 = u0.mean() + u1.mean() / (2.0 * omega)
    mean_error = abs(trajectory.series("u_mean")[-1] - c0)
    ut_final = trajectory.series("ut_hm")[-1]
    elapsed = time.monotonic() - start
    assert mean_error < 1e-6
    assert ut_final < 1e-6
    assert elapsed < 60.0
    _verdict(
        2,
        f"|mean - c0| = {mean_error:.3e}, final velocity norm {ut_final:.3e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_3_flagship_bootstrap_and_improvement(flagship):
    scenario, trajectory, report, elapsed = flagship
    params, bootstrap = scenario.params, scenario.bootstrap
    assert params.omega == 0.5
    assert params.k_eos == pytest.approx(2.0 / 3.0)
    assert params.kappa == pytest.approx((1.0 - params.k_eos) * params.omega / params.k_eos)
    assert params.mu == pytest.approx(0.5)
    assert bootstrap.e_m0 == pytest.approx(0.05, rel=1e-12)
    assert scenario.source.amplitude == pytest.approx(
        0.5 * min(epsilon_budgets(bootstrap, params.omega)), rel=1e-12
    )
    assert scenario.u0.mean() == pytest.approx(0.0, abs=1e-15)
    assert scenario.u1.mean() == pytest.approx(0.0, abs=1e-15)

    times = trajectory.times()
    assert trajectory.breakdown is None
    assert times[-1] == pytest.approx(50.0 / params.omega)

    u_hm = trajectory.series("u_hm")
    e_m = np.sqrt(trajectory.series("e_m_sq"))
    cap = bootstrap.e_m0**2 * (1.0 + 1e-12)
    assert np.all(0.5 * u_hm**2 <= cap), "bootstrap condition violated at a sample"
    late = times >= bootstrap.t1 - 1e-12
    improved_cap = (1.0 - bootstrap.eps_prime) * bootstrap.e_m0 * (1.0 + 1e-12)
    assert np.all(e_m[late] <= improved_cap), "improved estimate violated after T1"
    assert 0.5 * u_hm[-1] ** 2 < bootstrap.e_m0**2, "final inequality not strict"

    by_id = {r.check_id: r for r in report.results}
    assert by_id["bootstrap"].passed and not by_id["bootstrap"].skipped
    assert by_id["improved_estimates"].passed and not by_id["improved_estimates"].skipped
    assert elapsed < 300.0
    _verdict(
        3,
        f"{times.size} samples to t = {times[-1]:g} all inside both bounds, "
        f"{elapsed:.1f} s",
    )


def test_criterion_4_energy_checks_pass_then_catch_corruption(flagship):
    _, trajectory, report, _ = flagship
    by_id = {r.check_id: r for r in report.results}
    assert by_id["energy_differential"].passed
    assert by_id["energy_integral"].passed

    omega = trajectory.params.omega
    doctored = trajectory_from_rows(
        [
            s._replace(e_m_sq=s.e_m_sq * math.exp(omega * s.t))
            for s in map(Sample._make, trajectory.table.tolist())
        ],
        like=trajectory,
    )
    differential = check_energy_differential(doctored)
    integral = check_energy_integral(doctored)
    assert not differential.passed
    assert not integral.passed
    _verdict(
        4,
        "clean margins "
        f"{by_id['energy_differential'].worst_margin:.2e}/"
        f"{by_id['energy_integral'].worst_margin:.2e}, corrupted margins "
        f"{differential.worst_margin:.2e}/{integral.worst_margin:.2e}",
    )


def test_criterion_5_mean_mode_quadrature_convergence(constants8_file):
    def discrepancy(dt: float) -> float:
        entries = _scaled_flagship_entries(constants8_file, dt, 6.0, 1)
        scenario = build_scenario(entries)
        trajectory = simulate(
            scenario.u0, scenario.u1, scenario.params, scenario.source, scenario.solver
        )
        assert trajectory.breakdown is None
        recorded = trajectory.series("u_mean")
        reference = mean_mode_reference(trajectory)
        return float(np.max(np.abs(recorded - reference)))

    coarse = discrepancy(0.02)
    fine = discrepancy(0.01)
    ratio = coarse / fine
    assert 3.5 <= ratio <= 4.5
    _verdict(5, f"max discrepancy {coarse:.3e} -> {fine:.3e}, ratio {ratio:.3f}")


def test_criterion_6_estimate_toolkit_inequalities(constants16):
    omega = 0.5
    ceiling = 0.5
    family = [
        random_band_limited(GRID16, seed=seed, band=4, amplitude=ceiling, zero_mean=True)
        for seed in range(100)
    ]
    zero = np.zeros(GRID16.shape)
    moser_constants = {
        mu: fractional_constant(3, mu, ceiling, constants16.c_moser)
        for mu in (0.5, -0.5)
    }

    def norm(u, m=0):
        return spectrum_norm(transform(u), m)

    def gradient(u):  # ||grad u||, the standard energy at u_t = 0
        return math.sqrt(2.0 * sample_energies(0.0, u, zero, zero, omega, 0).e_std_sq)

    for u, v in zip(family, family[1:] + family[:1]):
        u_norm = norm(u, 3)
        for mu, c_frac in moser_constants.items():
            composed = (1.0 + u) ** mu
            bound = c_frac * u_norm + VOLUME**0.5
            assert norm(composed, 3) <= bound * (1.0 + REL_SLACK)

        product = padded_product(u, v)
        assert norm(product, 3) <= (
            constants16.c_algebra * u_norm * norm(v, 3) * (1.0 + REL_SLACK)
        )

        energy = math.sqrt(modified_energy(u, v, omega, 0))
        assert norm(u) <= math.sqrt(8.0) / omega * energy * (1.0 + REL_SLACK)
        # ||u_t + omega/2 u||, with v in the role of u_t
        combination = norm(v + 0.5 * omega * u)
        assert combination**2 <= 2.0 * energy**2 * (1.0 + REL_SLACK)

        assert norm(u) <= gradient(u) * (1.0 + REL_SLACK)

    x1 = GRID16.coordinates()[0]
    extremal = np.sin(x1) + np.zeros(GRID16.shape)
    gap = abs(norm(extremal) - gradient(extremal))
    assert gap <= 1e-12 * norm(extremal)
    _verdict(6, f"5 inequalities on {len(family)} fields, extremal gap {gap:.1e}")


def test_criterion_7_threshold_algebra():
    t_grid = np.linspace(0.05, 50.0, 1000)
    # past omega*t ~ 36 the exp term underflows past machine epsilon and g
    # sits exactly at its limit, so strict increase is only scoreable before
    # saturation
    t_mono = np.linspace(0.05, 20.0, 1000)
    checked = 0
    for omega in (0.25, 0.5, 0.75):
        t1 = 1.0 / omega
        threshold = h_threshold(omega, t1)
        for fraction in (0.25, 0.5, 0.99):
            eps_prime = fraction * threshold
            direct = g_function(t_grid, omega, eps_prime)
            # the quotient form [e^{omega t}(1 - eps' - omega) - (1 - omega)] / (e^{omega t} - 1)
            growth = np.exp(omega * t_grid)
            quotient = (growth * (1.0 - eps_prime - omega) - (1.0 - omega)) / (growth - 1.0)
            assert np.max(np.abs(direct - quotient)) <= 1e-12
            assert np.all(np.diff(g_function(t_mono, omega, eps_prime)) > 0.0), (
                "g must increase strictly"
            )
            late = np.linspace(t1, t1 + 40.0, 200)
            assert np.all(g_function(late, omega, eps_prime) > 0.0)
            checked += 1

    def budgets(e_m0: float) -> tuple[float, float]:
        params = BootstrapParams(e_m0=e_m0, t1=2.0, eps_prime=0.1, c_delta=2.0)
        return epsilon_budgets(params, 0.5)

    base = budgets(0.05)
    for scale in (2.0, 3.7):
        scaled = budgets(scale * 0.05)
        assert scaled[0] == pytest.approx(scale * base[0], rel=1e-12)
        assert scaled[1] == pytest.approx(scale * base[1], rel=1e-12)
    _verdict(7, f"{checked} parameter combinations, budgets scale linearly")


def test_criterion_8_second_order_endpoint_convergence(constants8_file):
    t_end = 4.0

    def final_spectrum(dt: float) -> np.ndarray:
        entries = _scaled_flagship_entries(
            constants8_file, dt, t_end, max(1, round(t_end / dt))
        )
        scenario = build_scenario(entries)
        trajectory = simulate(
            scenario.u0, scenario.u1, scenario.params, scenario.source, scenario.solver
        )
        assert trajectory.breakdown is None
        return trajectory.final_state.u_hat

    errors = []
    for dt in (0.04, 0.02):
        errors.append(hm_norms(final_spectrum(dt) - final_spectrum(dt / 8.0), 3)[0])
    assert errors[0] > errors[1] > 0.0
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5
    _verdict(8, f"endpoint errors {errors[0]:.3e} -> {errors[1]:.3e}, ratio {ratio:.3f}")


def test_criterion_9_transform_matches_naive_dft():
    # the package's transform is the real FFT: rfftn / n^3 holds the k3 >= 0
    # half of the spectrum, and irfftn inverts it
    grid = GridSpec(8)
    rng = np.random.default_rng(99)
    u = rng.standard_normal(grid.shape)
    half = np.fft.rfftn(u) / grid.n**3

    x1, x2, x3 = grid.coordinates()
    wavenumbers = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    naive = np.empty(half.shape, dtype=np.complex128)
    for i, k1 in enumerate(wavenumbers):
        for j, k2 in enumerate(wavenumbers):
            for l, k3 in enumerate(np.fft.rfftfreq(grid.n, d=1.0 / grid.n)):
                phase = np.exp(-1j * (k1 * x1 + k2 * x2 + k3 * x3))
                naive[i, j, l] = np.sum(u * phase) / grid.n**3

    scale = float(np.max(np.abs(naive)))
    forward_error = float(np.max(np.abs(naive - half)))
    assert forward_error <= 1e-10 * scale

    roundtrip = np.fft.irfftn(half * grid.n**3, s=grid.shape, axes=(0, 1, 2))
    roundtrip_error = float(np.max(np.abs(roundtrip - u)))
    assert roundtrip_error <= 1e-12 * float(np.max(np.abs(u)))
    _verdict(
        9,
        f"forward error {forward_error / scale:.2e} relative, "
        f"round-trip {roundtrip_error:.2e}",
    )

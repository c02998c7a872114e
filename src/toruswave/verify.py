"""Trajectory verification: every bound the analysis asserts, with margins.

Each check walks a recorded trajectory and evaluates one inequality family,
reporting the worst normalized margin (RHS - LHS) / scale together with the
tolerance that was in force there.  Tolerances cover discretization error
only: centered differencing is O(dt^2), trapezoid quadrature is O(h^2), and
both budgets are estimated from the samples themselves rather than assumed.
A check passes iff its worst margin stays above minus its tolerance; a check
that cannot run reports itself as skipped with the reason, never silently.

The binding sample is the one minimizing margin + tolerance, so a check
whose tightest point enjoys a generous budget is not misreported as binding
at some looser point with a stingy budget.

Windowed integrals (the energy integral over every pair of decimated
samples, the standard-energy bound from t = 0) come from one streaming
recurrence, ``estimates.damped_trapezoids``, which carries each window's
damped trapezoid and second-difference budget along the samples: the cost
is O(P + starts * ends), never more than O(P * starts), memory O(starts),
and no factor e^{+rate t} that could overflow on a long horizon is formed.

The final-state checks (flattening, Wirtinger, algebra, spectral tail) read
the loop's own raw half spectrum ``final_state.u_hat``; the mean is removed by
zeroing the coefficient k = 0, so the oscillatory part carries no grid
roundoff in it.  Norms of u on its own grid go through ``fields.hm_norms``.
The two that read only S_m, ||u^2||_{H^m} on the doubled grid and the
spectral tail's order-(m + 1) totals, are ``fields.weighted_sums`` against an
S_m row built for the call and dropped, so no weight is cached for them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .calibration import CalibratedConstants
from .estimates import BootstrapParams, damped_trapezoids, epsilon_budgets, gronwall_bound
from .fields import _symbol_weight, hm_norms, refine, rfftn, spectral_power, weighted_sums
from .solver import Trajectory, dealias_mask
from .source import ModelParams

ABS_TOL = 1e-9
FD_SAFETY = 4.0
PAIR_STRIDE = 10
LATE_WINDOW = 0.1
ASYMPTOTIC_SAFETY = 50.0
MIN_HORIZON = 20.0  # in units of 1/omega
_SCALE_FLOOR = ABS_TOL  # margins on an all-zero trajectory stay finite
_TINY = np.finfo(np.float64).tiny  # smallest normal float

# run_all emits one result per check, in this order
CHECK_IDS = (
    "energy_differential",
    "energy_integral",
    "bootstrap",
    "improved_estimates",
    "mean_mode",
    "asymptotics",
    "wirtinger_final",
    "algebra_final",
)


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    worst_margin: float
    worst_time: float
    tolerance_used: float
    skipped: bool = False
    reason: str = ""

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


def _finish(check_id: str, times, margins, tolerances) -> CheckResult:
    times = np.asarray(times, dtype=np.float64)
    margins = np.asarray(margins, dtype=np.float64)
    tolerances = np.asarray(tolerances, dtype=np.float64)
    binding = int(np.argmin(margins + tolerances))
    margin = float(margins[binding])
    tolerance = float(tolerances[binding])
    return CheckResult(check_id, margin >= -tolerance, margin, float(times[binding]), tolerance)


def _skip(check_id: str, reason: str) -> CheckResult:
    return CheckResult(check_id, False, math.nan, math.nan, 0.0, skipped=True, reason=reason)


def _quadrature_budget(integrand, spacing: float) -> float:
    """Estimate of the composite-trapezoid error (h^2/12) int |g''|."""
    if integrand.size < 3:
        return 0.0
    second = np.abs(integrand[2:] - 2.0 * integrand[1:-1] + integrand[:-2])
    return float(np.sum(second)) * spacing / 12.0


def check_energy_differential(trajectory: Trajectory) -> CheckResult:
    check_id = "energy_differential"
    times = trajectory.times()
    if times.size < 3:
        return _skip(check_id, f"needs at least 3 samples, have {times.size}")
    omega = trajectory.params.omega
    e_sq = trajectory.series("e_m_sq")
    e_m = np.sqrt(e_sq)
    forcing = (omega**2 / math.sqrt(2.0)) * trajectory.series("u_hm")
    forcing += math.sqrt(2.0) * trajectory.series("f_hm")
    rhs = -omega * e_sq + forcing * e_m

    lhs = np.gradient(e_sq, times)
    third = np.gradient(np.gradient(lhs, times), times)
    spacing = np.gradient(times)
    scale = np.maximum(np.maximum(np.abs(rhs), omega * e_sq[0]), _SCALE_FLOOR)
    margins = (rhs - lhs) / scale
    tolerances = (FD_SAFETY * spacing**2 * np.abs(third) / 6.0 + ABS_TOL) / scale
    inner = slice(1, -1)  # endpoints are one-sided differences, not checked
    return _finish(check_id, times[inner], margins[inner], tolerances[inner])


def _decimated_indices(n: int) -> list[int]:
    indices = list(range(0, n, PAIR_STRIDE))
    if indices[-1] != n - 1:
        indices.append(n - 1)
    return indices


def _integral_windows(times, rate: float, profile, lhs, starts):
    """Margins of  lhs(t_j) <= e^{-rate (t_j - t_i)} lhs(t_i) + int_{t_i}^{t_j} e^{-rate (t_j - s)} profile ds.

    Pairs every start i with every decimated end j > i and yields, per block
    of ends, ``(js, margins, tolerances)`` with one row per start.  The
    trapezoid and its second-difference budget come from the shared
    recurrence, so the cost is O(P + starts * ends), not one quadrature per pair.
    """
    rates = np.full(times.shape, -rate)
    ends = _decimated_indices(times.size)
    for js, bound, budget in damped_trapezoids(times, rates, profile, lhs[starts], starts, ends):
        begin = starts[: bound.shape[0], None]
        scale = np.maximum(bound, _SCALE_FLOOR)
        spacing = (times[js] - times[begin]) / (js - begin)
        margins = (bound - lhs[js]) / scale
        tolerances = (FD_SAFETY * (budget * spacing / 12.0) + ABS_TOL) / scale
        yield js, margins, tolerances


def _binding_windows(times, rate: float, profile, lhs, starts):
    """Per decimated end, the window that binds there: (end times, margins, tolerances)."""
    ends, margins, tolerances = [], [], []
    for js, block_margins, block_tolerances in _integral_windows(times, rate, profile, lhs, starts):
        binding = np.argmin(block_margins + block_tolerances, axis=0)
        columns = np.arange(js.size)
        ends.extend(times[js])
        margins.extend(block_margins[binding, columns])
        tolerances.extend(block_tolerances[binding, columns])
    return ends, margins, tolerances


def check_energy_integral(trajectory: Trajectory) -> CheckResult:
    check_id = "energy_integral"
    times = trajectory.times()
    if times.size < 3:
        return _skip(check_id, f"needs at least 3 samples, have {times.size}")
    omega = trajectory.params.omega
    e_m = np.sqrt(trajectory.series("e_m_sq"))
    profile = (omega**2 / math.sqrt(2.0)) * trajectory.series("u_hm")
    profile += math.sqrt(2.0) * trajectory.series("f_hm")

    starts = np.array(_decimated_indices(times.size)[:-1])
    return _finish(check_id, *_binding_windows(times, omega, profile, e_m, starts))


def check_bootstrap(
    trajectory: Trajectory, bootstrap: BootstrapParams
) -> tuple[CheckResult, float | None]:
    check_id = "bootstrap"
    times = trajectory.times()
    u_hm = trajectory.series("u_hm")
    if 0.25 * u_hm[0] > bootstrap.e_m0 * (1.0 + 1e-12):
        reason = (
            f"precondition ||u0||/4 <= E_m(0) fails: {0.25 * u_hm[0]:.6g} > {bootstrap.e_m0:.6g}"
        )
        return _skip(check_id, reason), None

    margins = (bootstrap.e_m0**2 - 0.5 * u_hm**2) / bootstrap.e_m0**2
    violations = np.nonzero(margins < -ABS_TOL)[0]
    t_max = float(times[violations[0]]) if violations.size else None

    early = times <= bootstrap.t1 + 1e-12
    half = 0.5 * bootstrap.e_m0
    step_margins = (half - u_hm[early]) / half

    all_margins = np.concatenate([margins, step_margins])
    all_times = np.concatenate([times, times[early]])
    tolerances = np.full(all_margins.shape, ABS_TOL)
    return _finish(check_id, all_times, all_margins, tolerances), t_max


def check_improved_estimates(
    trajectory: Trajectory, bootstrap: BootstrapParams
) -> CheckResult:
    check_id = "improved_estimates"
    omega = trajectory.params.omega
    try:
        eps1, eps2 = epsilon_budgets(bootstrap, omega)
    except ValueError as exc:
        return _skip(check_id, f"no admissible improvement factor: {exc}")
    budget = min(eps1, eps2)
    amplitude = trajectory.source_amplitude
    if amplitude > budget * (1.0 + 1e-12):
        return _skip(check_id, f"budget exceeded: amplitude {amplitude:.6g} > {budget:.6g}")

    times = trajectory.times()
    late = times >= bootstrap.t1 - 1e-12
    if not late.any():
        return _skip(check_id, f"horizon {times[-1]:.6g} shorter than T1 = {bootstrap.t1:.6g}")

    e_m = np.sqrt(trajectory.series("e_m_sq"))
    bound = (1.0 - bootstrap.eps_prime) * bootstrap.e_m0
    margins = list((bound - e_m[late]) / bound)
    worst_times = list(times[late])
    tolerances = [ABS_TOL] * len(margins)

    # the endpoint inequality is strict, so it gets no tolerance at all
    u_final = trajectory.series("u_hm")[-1]
    margins.append((bootstrap.e_m0**2 - 0.5 * u_final**2) / bootstrap.e_m0**2)
    worst_times.append(times[-1])
    tolerances.append(0.0)
    return _finish(check_id, worst_times, margins, tolerances)


def mean_mode_reference(trajectory: Trajectory) -> np.ndarray:
    """Duhamel quadrature for the mean: (2 omega)^-1 int (1 - e^{-2 omega (t-s)}) Fbar ds.

    Valid for zero-mean initial data only; the recorded mean of u and the
    stored mean of u_t at t = 0 must both vanish.
    """
    t = trajectory.times()
    if not t.size:
        raise ValueError("trajectory has no samples")
    u0_mean = trajectory.series("u_mean")[0]
    tol = 1e-12
    if abs(u0_mean) > tol or abs(trajectory.u1_mean) > tol:
        raise ValueError(
            f"mean-mode reference needs zero-mean initial data, got means "
            f"({u0_mean:.3e}, {trajectory.u1_mean:.3e})"
        )
    omega = trajectory.params.omega
    if t.size == 1:
        return np.zeros(1)
    fbar = trajectory.series("f_mean")
    # The trapezoid of (1 - e^{-2 omega (t_i - s)}) Fbar splits, trapezoids
    # being linear, into the plain running integral of Fbar minus the damped
    # one: the Gronwall recurrence with g0 = 0 and A = 0, then A = -2 omega.
    plain = gronwall_bound(t, np.zeros(t.shape), fbar, 0.0)
    damped = gronwall_bound(t, np.full(t.shape, -2.0 * omega), fbar, 0.0)
    return (plain - damped) / (2.0 * omega)


def check_mean_mode(
    trajectory: Trajectory, bootstrap: BootstrapParams | None = None
) -> CheckResult:
    check_id = "mean_mode"
    recorded = trajectory.series("u_mean")
    if abs(recorded[0]) > 1e-12 or abs(trajectory.u1_mean) > 1e-12:
        return _skip(
            check_id,
            f"nonzero-mean initial data: mean(u0) = {recorded[0]:.3g}, "
            f"mean(u1) = {trajectory.u1_mean:.3g}",
        )
    times = trajectory.times()
    reference = mean_mode_reference(trajectory)
    scale = max(np.max(np.abs(recorded)), np.max(np.abs(reference)), 1e-12)

    omega = trajectory.params.omega
    f_mean = trajectory.series("f_mean")
    kernel = 1.0 - np.exp(-2.0 * omega * (times[-1] - times))
    spacing = (times[-1] - times[0]) / (times.size - 1) if times.size > 1 else 1.0
    budget = _quadrature_budget(kernel * f_mean, spacing) / (2.0 * omega)
    stepping = (trajectory.config.dt / spacing) ** 2 if spacing > 0 else 1.0
    tolerance = (FD_SAFETY * budget * (1.0 + stepping) + ABS_TOL) / scale

    margins = list(-np.abs(recorded - reference) / scale)
    worst_times = list(times)
    tolerances = [tolerance] * len(margins)

    if bootstrap is not None:
        bound = trajectory.source_amplitude * bootstrap.c_delta / (2.0 * omega)
        bound_scale = max(bound, 1e-12)
        margins += list((bound - np.abs(recorded)) / bound_scale)
        worst_times += list(times)
        tolerances += [ABS_TOL / bound_scale] * times.size
    return _finish(check_id, worst_times, margins, tolerances)


def _undamped(norms, rate: float, times):
    """norms * e^{rate t}, formed as e^{log norms + rate t}.

    The factor alone overflows once rate t > 709 while the product stays
    moderate.  Zeros, and subnormal norms, whose few significant bits would
    be scaled up into noise, map to 0; NaN stays NaN.
    """
    logs = np.log(norms, out=np.full(norms.shape, -np.inf), where=~(norms < _TINY))
    return np.exp(logs + rate * times)


def _oscillatory(raw):
    """The raw half spectrum with its mean, the coefficient k = 0, set to zero."""
    oscillatory = raw.copy()
    oscillatory[0, 0, 0] = 0.0
    return oscillatory


def check_asymptotics(trajectory: Trajectory) -> tuple[CheckResult, float]:
    check_id = "asymptotics"
    params = trajectory.params
    omega, kappa = params.omega, params.kappa
    times = trajectory.times()
    c0 = float(trajectory.series("u_mean")[-1])
    horizon = times[-1] - times[0]
    if horizon < MIN_HORIZON / omega - 1e-9:
        reason = f"horizon {horizon:.6g} shorter than {MIN_HORIZON:.0f}/omega = {MIN_HORIZON / omega:.6g}"
        return _skip(check_id, reason), c0

    if trajectory.final_state is None:
        return _skip(check_id, "no final state recorded"), c0

    ut_hm = trajectory.series("ut_hm")
    f_hm = trajectory.series("f_hm")
    e_std_sq = trajectory.series("e_std_sq")
    e_m0 = math.sqrt(trajectory.series("e_m_sq")[0])
    c1 = float(np.max(_undamped(f_hm, kappa, times)))
    c2 = float(np.max(ut_hm))

    window_start = times.size - max(2, int(LATE_WINDOW * times.size))
    elapsed = times[window_start] - times[0]
    decay = min(omega, kappa)
    threshold = ASYMPTOTIC_SAFETY * (e_m0 + c1) * (1.0 + elapsed) * math.exp(-decay * elapsed)
    threshold += 1e-12

    margins, worst_times, tolerances = [], [], []

    # finite-horizon limsup proxy: running max of the velocity norm late on
    late_peak = int(window_start + np.argmax(ut_hm[window_start:]))
    margins.append((threshold - float(ut_hm[late_peak])) / threshold)
    worst_times.append(times[late_peak])
    tolerances.append(ABS_TOL)

    # spatial flattening: u(t_end) is H^m-close to its own mean (measured directly;
    # ||u||^2 - VOLUME c0^2 would leave a roundoff residue of order sqrt(eps) ||u||)
    (deviation,) = hm_norms(_oscillatory(trajectory.final_state.u_hat), params.m, np.s_[:1])
    margins.append((threshold - deviation) / threshold)
    worst_times.append(times[-1])
    tolerances.append(ABS_TOL)

    # standard-energy bound from t = 0 with measured C1, C2 and trapezoid integrals
    grad_sq = np.maximum(2.0 * e_std_sq - ut_hm**2, 0.0)
    profile = 2.0 * omega * grad_sq + c1 * c2 * np.exp(-kappa * times)
    ends, window_margins, window_tolerances = _binding_windows(
        times, 4.0 * omega, profile, e_std_sq, np.array([0])
    )
    margins.extend(window_margins)
    worst_times.extend(ends)
    tolerances.extend(window_tolerances)

    return _finish(check_id, worst_times, margins, tolerances), c0


def check_wirtinger_final(trajectory: Trajectory) -> CheckResult:
    check_id = "wirtinger_final"
    if trajectory.final_state is None:
        return _skip(check_id, "no final state recorded")
    u_hat = trajectory.final_state.u_hat
    (lhs,) = hm_norms(_oscillatory(u_hat), 0)
    (rhs,) = hm_norms(u_hat, 1, np.s_[1:])  # the D_1 block: ||grad u||
    scale = max(rhs, 1e-12)
    return _finish(
        check_id, [trajectory.times()[-1]], [(rhs - lhs) / scale], [ABS_TOL / scale]
    )


def check_algebra_final(
    trajectory: Trajectory, constants: CalibratedConstants | None
) -> CheckResult:
    check_id = "algebra_final"
    if constants is None:
        return _skip(check_id, "no calibrated constants supplied")
    if trajectory.final_state is None:
        return _skip(check_id, "no final state recorded")
    n, m = trajectory.config.grid.n, trajectory.params.m
    if constants.grid_n != n or constants.m < m:
        return _skip(
            check_id,
            f"constants calibrated for n = {constants.grid_n}, m <= {constants.m}; "
            f"state has n = {n}, m = {m}",
        )
    # measured as calibrate measures c_algebra: refined once, u^2 on the doubled
    # grid; the check owns the refined samples, so it squares them in place and
    # drops them before the |c|^2 pass, drops the spectrum before the S_m
    # weight is built, and takes the products in the power's own array: two
    # (2n)^3 arrays alive at a time
    raw = trajectory.final_state.u_hat
    squared = refine(raw, n)
    spectrum = rfftn(np.square(squared, out=squared))
    del squared
    power = spectral_power(spectrum)
    del spectrum
    lhs = math.sqrt(weighted_sums(power, [_symbol_weight(2 * n, m, hermitian=True)], power)[0])
    rhs = constants.c_algebra * hm_norms(raw, m, np.s_[:1])[0] ** 2
    scale = max(rhs, 1e-12)
    return _finish(
        check_id, [trajectory.times()[-1]], [(rhs - lhs) / scale], [ABS_TOL / scale]
    )


def _spectral_tail_fraction(trajectory: Trajectory) -> float:
    """H^{m+1}-weighted mass fraction beyond the dealias band of the final u."""
    if trajectory.final_state is None:
        return math.nan
    n = trajectory.config.grid.n
    power = spectral_power(trajectory.final_state.u_hat)
    tail = np.where(dealias_mask(n), 0.0, power)
    weight = [_symbol_weight(n, trajectory.params.m + 1, hermitian=True)]
    total, beyond = (weighted_sums(density, weight)[0] for density in (power, tail))
    if total == 0.0:
        return 0.0
    return math.sqrt(beyond / total)


def _gradient_oscillation(trajectory: Trajectory) -> float:
    """Spread of ||grad u||_{H^m} over the final window (limit existence proxy)."""
    ut_hm = trajectory.series("ut_hm")
    grad = np.sqrt(np.maximum(2.0 * trajectory.series("e_std_sq") - ut_hm**2, 0.0))
    window = grad[-max(2, int(LATE_WINDOW * grad.size)):]
    return float(np.max(window) - np.min(window))


@dataclass
class VerificationReport:
    scenario: str
    params: ModelParams
    bootstrap: BootstrapParams
    results: list[CheckResult]
    c0_estimate: float
    t_max_empirical: float | None
    grad_oscillation: float
    spectral_tail: float
    c_delta_measured: float
    breakdown: str = ""

    def all_passed(self) -> bool:
        return all(r.passed for r in self.results if not r.skipped)

    def to_text(self) -> str:
        f = _format_value
        lines = [f"scenario = {self.scenario}"]
        lines += [
            "",
            "[params]",
            f"omega = {f(self.params.omega)}",
            f"kappa = {f(self.params.kappa)}",
            f"mu = {f(self.params.mu)}",
            f"k_eos = {f(self.params.k_eos)}",
            f"m = {self.params.m}",
            "",
            "[bootstrap]",
            f"e_m0 = {f(self.bootstrap.e_m0)}",
            f"t1 = {f(self.bootstrap.t1)}",
            f"eps_prime = {f(self.bootstrap.eps_prime)}",
            f"c_delta = {f(self.bootstrap.c_delta)}",
            f"eps1 = {f(self.bootstrap.eps1)}",
            f"eps2 = {f(self.bootstrap.eps2)}",
            "",
            "[summary]",
            f"all_passed = {str(self.all_passed()).lower()}",
            f"c0_estimate = {f(self.c0_estimate)}",
            f"t_max_empirical = {f(self.t_max_empirical)}",
            f"grad_oscillation = {f(self.grad_oscillation)}",
            f"spectral_tail_fraction = {f(self.spectral_tail)}",
            f"c_delta_measured = {f(self.c_delta_measured)}",
            f"breakdown = {self.breakdown or 'none'}",
            "",
            "[checks]",
        ]
        for r in self.results:
            line = (
                f"{r.check_id}: {r.status} margin={f(r.worst_margin)} "
                f"time={f(r.worst_time)} tolerance={f(r.tolerance_used)}"
            )
            if r.reason:
                line += f" reason={r.reason}"
            lines.append(line)
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ["check_id", "status", "worst_margin", "worst_time", "tolerance_used", "reason"]
        )
        for r in self.results:
            writer.writerow(
                [
                    r.check_id,
                    r.status,
                    _format_value(r.worst_margin),
                    _format_value(r.worst_time),
                    _format_value(r.tolerance_used),
                    r.reason,
                ]
            )
        return buffer.getvalue()


def _format_value(value) -> str:
    if value is None:
        return "none"
    return f"{value:.17g}"


def run_all(
    trajectory: Trajectory,
    bootstrap: BootstrapParams,
    constants: CalibratedConstants | None = None,
    scenario: str = "scenario",
) -> VerificationReport:
    params = trajectory.params
    breakdown = ""
    if trajectory.breakdown is not None:
        breakdown = f"t = {trajectory.breakdown.t:.17g}: {trajectory.breakdown.reason}"
    if not len(trajectory.table):  # broke down before its first sample: nothing to check
        return VerificationReport(
            scenario=scenario,
            params=params,
            bootstrap=bootstrap,
            results=[_skip(check_id, "no samples") for check_id in CHECK_IDS],
            c0_estimate=math.nan,
            t_max_empirical=None,
            grad_oscillation=math.nan,
            spectral_tail=math.nan,
            c_delta_measured=math.nan,
            breakdown=breakdown,
        )
    bootstrap_result, t_max = check_bootstrap(trajectory, bootstrap)
    asymptotics_result, c0 = check_asymptotics(trajectory)
    results = [
        check_energy_differential(trajectory),
        check_energy_integral(trajectory),
        bootstrap_result,
        check_improved_estimates(trajectory, bootstrap),
        check_mean_mode(trajectory, bootstrap),
        asymptotics_result,
        check_wirtinger_final(trajectory),
        check_algebra_final(trajectory, constants),
    ]
    times = trajectory.times()
    f_scaled = _undamped(trajectory.series("f_hm"), params.kappa, times)
    amplitude = trajectory.source_amplitude
    measured = float(np.max(f_scaled)) / amplitude if amplitude > 0.0 else 0.0
    return VerificationReport(
        scenario=scenario,
        params=params,
        bootstrap=bootstrap,
        results=results,
        c0_estimate=c0,
        t_max_empirical=t_max,
        grad_oscillation=_gradient_oscillation(trajectory),
        spectral_tail=_spectral_tail_fraction(trajectory),
        c_delta_measured=measured,
        breakdown=breakdown,
    )

"""Trajectory verification: every bound the analysis asserts, with margins.

Each check states its inequality families, each one (times, margins,
tolerances) with the normalized margin (RHS - LHS) / scale per sample, and
``_finish`` picks the binding sample over them all: the one minimizing
margin + tolerance, so a check whose tightest point enjoys a generous budget
is not misreported as binding at some looser point with a stingy budget.
Tolerances cover discretization error only: centered differencing is
O(dt^2), trapezoid quadrature is O(h^2), and both budgets are estimated from
the samples themselves rather than assumed.  A check passes iff its binding
margin stays above minus its tolerance; a check that cannot run reports
itself as skipped with the reason, never silently.

The energy inequality (E_m^2)' <= -omega E_m^2 + P E_m is stated once, by
``_energy_inequality``: ``energy_differential`` checks it pointwise and
``energy_integral`` integrates it divided by 2 E_m, E_m' <= -(omega/2) E_m + P/2.
Windowed integrals (that integral over every pair of decimated samples, the
standard-energy bound from t = 0) come from one streaming recurrence at a
constant rate, ``estimates.damped_trapezoids``, which carries each window's
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

Checks return verdicts alone; ``run_all`` derives each report value once:
c0_estimate is the last mean, t_max_empirical the first sample failing
``bootstrap_ok`` (none if that check skips), c_delta_measured the asymptotic
check's C1 over the amplitude, (eps1, eps2) ``epsilon_budgets``, or 0 if it raises.
"""

from __future__ import annotations

import csv
import dataclasses
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


def _finish(check_id: str, *families) -> CheckResult:
    """The verdict at the binding sample over inequality families (times, margins, tolerances).

    A scalar in a family is broadcast over it; ties bind at the first sample.
    """
    columns = zip(*(np.broadcast_arrays(*np.atleast_1d(*family)) for family in families))
    times, margins, tolerances = (np.concatenate(column, dtype=np.float64) for column in columns)
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


def _energy_inequality(trajectory: Trajectory):
    """(omega, P) of the energy inequality (E_m^2)' <= -omega E_m^2 + P E_m, where
    P = omega^2/sqrt(2) ||u||_{H^m} + sqrt(2) ||F||_{H^m} per sample."""
    omega = trajectory.params.omega
    profile = (omega**2 / math.sqrt(2.0)) * trajectory.series("u_hm")
    profile += math.sqrt(2.0) * trajectory.series("f_hm")
    return omega, profile


def check_energy_differential(trajectory: Trajectory) -> CheckResult:
    check_id = "energy_differential"
    times = trajectory.times()
    if times.size < 3:
        return _skip(check_id, f"needs at least 3 samples, have {times.size}")
    omega, profile = _energy_inequality(trajectory)
    e_sq = trajectory.series("e_m_sq")
    e_m = np.sqrt(e_sq)
    rhs = -omega * e_sq + profile * e_m

    lhs = np.gradient(e_sq, times)
    third = np.gradient(np.gradient(lhs, times), times)
    spacing = np.gradient(times)
    scale = np.maximum(np.maximum(np.abs(rhs), omega * e_sq[0]), _SCALE_FLOOR)
    margins = (rhs - lhs) / scale
    tolerances = (FD_SAFETY * spacing**2 * np.abs(third) / 6.0 + ABS_TOL) / scale
    inner = slice(1, -1)  # endpoints are one-sided differences, not checked
    return _finish(check_id, (times[inner], margins[inner], tolerances[inner]))


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
    ends = _decimated_indices(times.size)
    for js, bound, budget in damped_trapezoids(times, -rate, profile, lhs[starts], starts, ends):
        begin = starts[: bound.shape[0], None]
        scale = np.maximum(bound, _SCALE_FLOOR)
        spacing = (times[js] - times[begin]) / (js - begin)
        margins = (bound - lhs[js]) / scale
        tolerances = (FD_SAFETY * (budget * spacing / 12.0) + ABS_TOL) / scale
        yield js, margins, tolerances


def _binding_windows(times, rate: float, profile, lhs, starts):
    """The window binding at each decimated end, as one family (times, margins, tolerances)."""
    blocks = []
    for js, margins, tolerances in _integral_windows(times, rate, profile, lhs, starts):
        binding = np.argmin(margins + tolerances, axis=0)
        columns = np.arange(js.size)
        blocks.append((times[js], margins[binding, columns], tolerances[binding, columns]))
    return tuple(np.concatenate(column) for column in zip(*blocks))


def check_energy_integral(trajectory: Trajectory) -> CheckResult:
    check_id = "energy_integral"
    times = trajectory.times()
    if times.size < 3:
        return _skip(check_id, f"needs at least 3 samples, have {times.size}")
    omega, profile = _energy_inequality(trajectory)
    e_m = np.sqrt(trajectory.series("e_m_sq"))

    # the energy inequality divided by 2 E_m: E_m' <= -(omega/2) E_m + P/2
    starts = np.array(_decimated_indices(times.size)[:-1])
    return _finish(check_id, _binding_windows(times, 0.5 * omega, 0.5 * profile, e_m, starts))


def _bootstrap_margins(u_hm, e_m0: float):
    """(E_m(0)^2 - ||u||_{H^m}^2 / 2) / E_m(0)^2: the bootstrap bound's margin."""
    return (e_m0**2 - 0.5 * u_hm**2) / e_m0**2


def bootstrap_ok(trajectory: Trajectory, e_m0: float) -> np.ndarray:
    """Per sample, whether ||u||_{H^m}^2 / 2 <= E_m(0)^2 holds to ``ABS_TOL``:
    the bound ``check_bootstrap`` scores, and timeseries.csv's bootstrap_ok."""
    return _bootstrap_margins(trajectory.series("u_hm"), e_m0) >= -ABS_TOL


def check_bootstrap(trajectory: Trajectory, bootstrap: BootstrapParams) -> CheckResult:
    check_id = "bootstrap"
    times = trajectory.times()
    u_hm = trajectory.series("u_hm")
    if 0.25 * u_hm[0] > bootstrap.e_m0 * (1.0 + 1e-12):
        reason = (
            f"precondition ||u0||/4 <= E_m(0) fails: {0.25 * u_hm[0]:.6g} > {bootstrap.e_m0:.6g}"
        )
        return _skip(check_id, reason)

    early = times <= bootstrap.t1 + 1e-12
    half = 0.5 * bootstrap.e_m0
    return _finish(
        check_id,
        (times, _bootstrap_margins(u_hm, bootstrap.e_m0), ABS_TOL),
        (times[early], (half - u_hm[early]) / half, ABS_TOL),
    )


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
    endpoint = _bootstrap_margins(trajectory.series("u_hm")[-1], bootstrap.e_m0)
    # the endpoint inequality is strict, so it gets no tolerance at all
    return _finish(
        check_id, (times[late], (bound - e_m[late]) / bound, ABS_TOL), (times[-1], endpoint, 0.0)
    )


def mean_mode_reference(trajectory: Trajectory) -> np.ndarray:
    """Duhamel quadrature for the mean: (2 omega)^-1 int (1 - e^{-2 omega (t-s)}) Fbar ds.

    Valid for zero-mean initial data only: the recorded mean of u and the
    stored mean of u_t at t = 0 must both vanish, else ``ValueError`` says why.
    """
    t = trajectory.times()
    if not t.size:
        raise ValueError("trajectory has no samples")
    u0_mean, u1_mean = trajectory.series("u_mean")[0], trajectory.u1_mean
    if abs(u0_mean) > 1e-12 or abs(u1_mean) > 1e-12:
        raise ValueError(
            f"nonzero-mean initial data: mean(u0) = {u0_mean:.3g}, mean(u1) = {u1_mean:.3g}"
        )
    omega = trajectory.params.omega
    if t.size == 1:
        return np.zeros(1)
    fbar = trajectory.series("f_mean")
    # The trapezoid of (1 - e^{-2 omega (t_i - s)}) Fbar splits, trapezoids
    # being linear, into the plain running integral of Fbar minus the damped
    # one: the Gronwall recurrence with g0 = 0 and A = 0, then A = -2 omega.
    plain = gronwall_bound(t, 0.0, fbar, 0.0)
    damped = gronwall_bound(t, -2.0 * omega, fbar, 0.0)
    return (plain - damped) / (2.0 * omega)


def check_mean_mode(
    trajectory: Trajectory, bootstrap: BootstrapParams | None = None
) -> CheckResult:
    check_id = "mean_mode"
    try:
        reference = mean_mode_reference(trajectory)
    except ValueError as exc:  # nonzero-mean initial data
        return _skip(check_id, str(exc))
    recorded = trajectory.series("u_mean")
    times = trajectory.times()
    scale = max(np.max(np.abs(recorded)), np.max(np.abs(reference)), 1e-12)

    omega = trajectory.params.omega
    f_mean = trajectory.series("f_mean")
    kernel = 1.0 - np.exp(-2.0 * omega * (times[-1] - times))
    spacing = (times[-1] - times[0]) / (times.size - 1) if times.size > 1 else 1.0
    budget = _quadrature_budget(kernel * f_mean, spacing) / (2.0 * omega)
    stepping = (trajectory.config.dt / spacing) ** 2 if spacing > 0 else 1.0
    tolerance = (FD_SAFETY * budget * (1.0 + stepping) + ABS_TOL) / scale

    families = [(times, -np.abs(recorded - reference) / scale, tolerance)]
    if bootstrap is not None:
        bound = trajectory.source_amplitude * bootstrap.c_delta / (2.0 * omega)
        bound_scale = max(bound, 1e-12)
        families.append((times, (bound - np.abs(recorded)) / bound_scale, ABS_TOL / bound_scale))
    return _finish(check_id, *families)


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


def _forcing_c1(trajectory: Trajectory) -> float:
    """C1 = max over the samples of e^{kappa t} ||F(t)||_{H^m}."""
    f_hm = trajectory.series("f_hm")
    return float(np.max(_undamped(f_hm, trajectory.params.kappa, trajectory.times())))


def _gradient_sq(trajectory: Trajectory):
    """||grad u||_{H^m}^2 = 2 E_std^2 - ||u_t||_{H^m}^2 per sample, clipped at 0."""
    return np.maximum(2.0 * trajectory.series("e_std_sq") - trajectory.series("ut_hm") ** 2, 0.0)


def check_asymptotics(trajectory: Trajectory) -> CheckResult:
    check_id = "asymptotics"
    params = trajectory.params
    omega, kappa = params.omega, params.kappa
    times = trajectory.times()
    horizon = times[-1] - times[0]
    if horizon < MIN_HORIZON / omega - 1e-9:
        reason = f"horizon {horizon:.6g} shorter than {MIN_HORIZON:.0f}/omega = {MIN_HORIZON / omega:.6g}"
        return _skip(check_id, reason)

    if trajectory.final_state is None:
        return _skip(check_id, "no final state recorded")

    ut_hm = trajectory.series("ut_hm")
    e_std_sq = trajectory.series("e_std_sq")
    e_m0 = math.sqrt(trajectory.series("e_m_sq")[0])
    c1 = _forcing_c1(trajectory)
    c2 = float(np.max(ut_hm))

    window_start = times.size - max(2, int(LATE_WINDOW * times.size))
    elapsed = times[window_start] - times[0]
    decay = min(omega, kappa)
    threshold = ASYMPTOTIC_SAFETY * (e_m0 + c1) * (1.0 + elapsed) * math.exp(-decay * elapsed)
    threshold += 1e-12

    # finite-horizon limsup proxy: running max of the velocity norm late on
    late_peak = int(window_start + np.argmax(ut_hm[window_start:]))

    # spatial flattening: u(t_end) is H^m-close to its own mean (measured directly;
    # ||u||^2 - VOLUME c0^2 would leave a roundoff residue of order sqrt(eps) ||u||)
    (deviation,) = hm_norms(_oscillatory(trajectory.final_state.u_hat), params.m, np.s_[:1])

    # standard-energy bound from t = 0 with measured C1, C2 and trapezoid integrals
    profile = 2.0 * omega * _gradient_sq(trajectory) + c1 * c2 * np.exp(-kappa * times)
    return _finish(
        check_id,
        (times[late_peak], (threshold - ut_hm[late_peak]) / threshold, ABS_TOL),
        (times[-1], (threshold - deviation) / threshold, ABS_TOL),
        _binding_windows(times, 4.0 * omega, profile, e_std_sq, np.array([0])),
    )


def _final_inequality(check_id: str, trajectory: Trajectory, lhs: float, rhs: float) -> CheckResult:
    """The final-state inequality lhs <= rhs, its margin relative to rhs."""
    scale = max(rhs, 1e-12)
    return _finish(check_id, (trajectory.times()[-1], (rhs - lhs) / scale, ABS_TOL / scale))


def check_wirtinger_final(trajectory: Trajectory) -> CheckResult:
    check_id = "wirtinger_final"
    if trajectory.final_state is None:
        return _skip(check_id, "no final state recorded")
    u_hat = trajectory.final_state.u_hat
    (lhs,) = hm_norms(_oscillatory(u_hat), 0)
    (rhs,) = hm_norms(u_hat, 1, np.s_[1:])  # the D_1 block: ||grad u||
    return _final_inequality(check_id, trajectory, lhs, rhs)


def check_algebra_final(
    trajectory: Trajectory, constants: CalibratedConstants | None
) -> CheckResult:
    check_id = "algebra_final"
    if constants is None:
        return _skip(check_id, "no calibrated constants supplied")
    if trajectory.final_state is None:
        return _skip(check_id, "no final state recorded")
    n, m = trajectory.config.grid.n, trajectory.params.m
    try:
        constants.require_grid(trajectory.config.grid, m)
    except ValueError as exc:
        return _skip(check_id, str(exc))
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
    return _final_inequality(check_id, trajectory, lhs, rhs)


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
    grad = np.sqrt(_gradient_sq(trajectory))
    window = grad[-max(2, int(LATE_WINDOW * grad.size)):]
    return float(np.max(window) - np.min(window))


@dataclass
class VerificationReport:
    scenario: str
    params: ModelParams
    bootstrap: BootstrapParams
    eps1: float
    eps2: float
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
        for name, values in (("params", self.params), ("bootstrap", self.bootstrap)):
            lines += ["", f"[{name}]"]
            lines += [f"{x.name} = {f(getattr(values, x.name))}" for x in dataclasses.fields(values)]
        lines += [
            f"eps1 = {f(self.eps1)}",
            f"eps2 = {f(self.eps2)}",
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
    breakdown = ""
    if trajectory.breakdown is not None:
        breakdown = f"t = {trajectory.breakdown.t:.17g}: {trajectory.breakdown.reason}"
    try:
        eps1, eps2 = epsilon_budgets(bootstrap, trajectory.params.omega)
    except ValueError:  # no admissible factor; check_improved_estimates says why
        eps1 = eps2 = 0.0
    times = trajectory.times()
    results = [_skip(check_id, "no samples") for check_id in CHECK_IDS]
    c0, t_max, grad_oscillation, measured = math.nan, None, math.nan, math.nan
    if times.size:  # else the run broke down before its first sample: nothing to check
        bootstrap_result = check_bootstrap(trajectory, bootstrap)
        results = [
            check_energy_differential(trajectory),
            check_energy_integral(trajectory),
            bootstrap_result,
            check_improved_estimates(trajectory, bootstrap),
            check_mean_mode(trajectory, bootstrap),
            check_asymptotics(trajectory),
            check_wirtinger_final(trajectory),
            check_algebra_final(trajectory, constants),
        ]
        c0 = float(trajectory.series("u_mean")[-1])
        if not bootstrap_result.skipped:
            failing = np.flatnonzero(~bootstrap_ok(trajectory, bootstrap.e_m0))
            t_max = float(times[failing[0]]) if failing.size else None
        grad_oscillation = _gradient_oscillation(trajectory)
        amplitude = trajectory.source_amplitude
        measured = _forcing_c1(trajectory) / amplitude if amplitude > 0.0 else 0.0
    return VerificationReport(
        scenario=scenario,
        params=trajectory.params,
        bootstrap=bootstrap,
        eps1=eps1,
        eps2=eps2,
        results=results,
        c0_estimate=c0,
        t_max_empirical=t_max,
        grad_oscillation=grad_oscillation,
        spectral_tail=_spectral_tail_fraction(trajectory),
        c_delta_measured=measured,
        breakdown=breakdown,
    )

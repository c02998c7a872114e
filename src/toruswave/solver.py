"""Time integration of u_tt - Lap u = -2 omega u_t + F(t, x, u).

Every Fourier mode obeys a damped oscillator v'' + 2 omega v' + |k|^2 v = f.
The linear part is advanced by its exact one-step propagator, so with the
source switched off the scheme reproduces the closed-form solution to
roundoff for any step size.  The forcing is handled by a two-stage
predictor-corrector: the predictor freezes f over the step, the corrector
re-evaluates it at the predicted endpoint and averages, which is second
order in dt.  Both stages share the free part p11 u + p12 u_t.

State layout: from the first transform of (u0, u1) to the final state the
loop keeps (u, u_t) as raw ``np.fft.rfftn`` coefficients, the n x n x (n/2+1)
half spectrum with no normalization that every symbol and weight of
``fields`` is laid out on.  The propagator is linear, so the raw scale
cancels; each force is one ``irfftn`` to a grid array, ``eval_prepared`` on
that array and one ``rfftn`` back.  Every diagnostic is a reduction of these
coefficients (``energy.sample_half_spectrum``), and the final state a run
hands to verification is the same pair of arrays: no ``Field`` is built.

The nonlinear product may be de-aliased with the standard 2/3-rule mask
before injection.  The mask is folded into the cached forcing weights, and
the zero mode is never touched by it, so the mean dynamics are unaffected.

F(t_k) at a sample time serves both the sample and the step that starts
there, so a run costs two force evaluations per step plus one for the final
sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.typing as npt

from .energy import EnergySample, sample_half_spectrum
from .estimates import gronwall_bound
from .fields import Field, GridSpec, laplacian_symbol
from .source import (
    BreakdownError,
    ModelParams,
    PreparedSource,
    SourceSpec,
    eval_prepared,
    prepare_source,
)


@dataclass
class SolverState:
    """State (t, u, u_t) as the loop keeps it: ``u_hat`` and ``ut_hat`` are the
    raw ``np.fft.rfftn`` half spectra, shape (n, n, n/2 + 1), n^3 times the
    normalized coefficients."""

    t: float
    u_hat: npt.NDArray[np.complex128]
    ut_hat: npt.NDArray[np.complex128]


@dataclass
class SolverConfig:
    """Discretization parameters.

    ``t_end`` must be a whole number (>= 1) of steps so the final time is hit
    exactly; samples are taken at t = 0, every ``sample_every`` steps, and at
    t_end regardless of divisibility.
    """

    grid: GridSpec
    dt: float
    t_end: float
    sample_every: int = 1
    dealias: bool = True

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not (isinstance(self.sample_every, int) and self.sample_every >= 1):
            raise ValueError(f"sample_every must be a positive integer, got {self.sample_every}")
        steps = self.t_end / self.dt
        if not math.isfinite(steps):
            raise ValueError(
                f"t_end = {self.t_end} over dt = {self.dt} is not a finite number of steps"
            )
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"t_end = {self.t_end} is not an integer number of steps of dt = {self.dt}"
            )
        if self.n_steps < 1:
            raise ValueError(f"t_end = {self.t_end} is shorter than one step of dt = {self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class BreakdownInfo:
    """Where and why a run stopped early."""

    t: float
    step: int
    reason: str


@dataclass
class Trajectory:
    """Sampled diagnostics of one run plus enough context to verify it."""

    params: ModelParams
    config: SolverConfig
    samples: list[EnergySample]
    breakdown: BreakdownInfo | None = None
    source_amplitude: float = 0.0
    u1_mean: float = 0.0
    final_state: SolverState | None = None

    def times(self) -> npt.NDArray[np.float64]:
        return np.array([s.t for s in self.samples])

    def series(self, name: str) -> npt.NDArray[np.float64]:
        return np.array([getattr(s, name) for s in self.samples])


@lru_cache(maxsize=None)
def dealias_mask(n: int) -> npt.NDArray[np.bool_]:
    """Keep |k_i| <= n/3 on every axis (the 2/3 rule), per mode of the half layout."""
    keep = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n // 3
    mask = keep[:, None, None] & keep[None, :, None] & keep[: n // 2 + 1]
    mask.flags.writeable = False  # cached and shared by every caller
    return mask


def _propagator_pieces(n_sq, omega: float, dt: float):
    """Entries of the exact propagator and the constant-forcing weights.

    Underdamped modes (|k|^2 > omega^2) use the trigonometric branch,
    overdamped ones (including the zero mode) the hyperbolic branch, and the
    critical case is the shared s -> 0 limit.  All branches are the same
    analytic function of s^2 = omega^2 - |k|^2.
    """
    n_sq = np.asarray(n_sq, dtype=np.float64)
    disc = omega**2 - n_sq
    s = np.sqrt(np.abs(disc))
    arg = s * dt
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_like = np.where(disc < 0.0, np.cos(arg), np.cosh(arg))
        sin_like = np.where(
            s > 0.0,
            np.where(disc < 0.0, np.sin(arg), np.sinh(arg)) / np.where(s > 0.0, s, 1.0),
            dt,
        )
    decay = np.exp(-omega * dt)
    p11 = decay * (cos_like + omega * sin_like)
    p12 = decay * sin_like
    p21 = -n_sq * decay * sin_like
    p22 = decay * (cos_like - omega * sin_like)

    # Forcing weights: the particular solution for f frozen on the step.
    # For n_sq > 0 relax toward f / n_sq; the zero mode integrates directly.
    decay2 = np.exp(-2.0 * omega * dt)
    wv_zero = (1.0 - decay2) / (2.0 * omega)
    wu_zero = (dt - wv_zero) / (2.0 * omega)
    safe = np.where(n_sq > 0.0, n_sq, 1.0)
    wu = np.where(n_sq > 0.0, (1.0 - p11) / safe, wu_zero)
    wv = np.where(n_sq > 0.0, -p21 / safe, wv_zero)
    return p11, p12, p21, p22, wu, wv


class _Stepper:
    """Advances raw rfftn coefficients; holds everything that is constant per run."""

    def __init__(self, params: ModelParams, prepared: PreparedSource, config: SolverConfig):
        self.params = params
        self.prepared = prepared
        self.config = config
        self.grid = config.grid
        pieces = _propagator_pieces(laplacian_symbol(self.grid.n), params.omega, config.dt)
        self.p11, self.p12, self.p21, self.p22, wu, wv = pieces
        if config.dealias:
            keep = dealias_mask(self.grid.n)
            wu, wv = wu * keep, wv * keep
        self.wu, self.wv = wu, wv

    def values(self, c: npt.NDArray[np.complex128]) -> npt.NDArray[np.float64]:
        return np.fft.irfftn(c, s=self.grid.shape, axes=(0, 1, 2))

    def force(self, t: float, u_hat):
        """u and F(t, u) as grid arrays, and the raw rfftn coefficients of F."""
        u = self.values(u_hat)
        f = eval_prepared(t, u, self.params, self.prepared)
        return u, f, np.fft.rfftn(f)

    def advance(self, t: float, u_hat, ut_hat, f0_hat=None):
        """One predictor-corrector step; pass ``f0_hat`` when F(t) is known."""
        if f0_hat is None:
            f0_hat = self.force(t, u_hat)[2]
        free_u = self.p11 * u_hat + self.p12 * ut_hat
        f1_hat = self.force(t + self.config.dt, free_u + self.wu * f0_hat)[2]
        f_avg = 0.5 * (f0_hat + f1_hat)
        return free_u + self.wu * f_avg, self.p21 * u_hat + self.p22 * ut_hat + self.wv * f_avg


def simulate(
    u0: Field, u1: Field, params: ModelParams, source: SourceSpec, config: SolverConfig
) -> Trajectory:
    """Run the full time span, sampling diagnostics along the way.

    A positivity, overflow or non-finite failure does not raise: the partial
    trajectory is returned with ``breakdown`` filled in.  Whether or not the
    run breaks down, ``final_state`` is the state of the last recorded sample
    (None if there is none), so its time is ``samples[-1].t``.
    """
    if u0.grid != config.grid or u1.grid != config.grid:
        raise ValueError("initial data grids do not match the configured grid")
    prepared = prepare_source(source, config.grid, params.m)
    stepper = _Stepper(params, prepared, config)

    trajectory = Trajectory(
        params=params,
        config=config,
        samples=[],
        source_amplitude=prepared.spec.amplitude,
        u1_mean=u1.mean(),
    )

    u_hat = np.fft.rfftn(u0.values)
    ut_hat = np.fft.rfftn(u1.values)
    dt = config.dt
    n_steps = config.n_steps

    def record(k: int) -> npt.NDArray[np.complex128]:
        """Sample at step k; returns F(t_k) for the step that starts there."""
        u, f, f_hat = stepper.force(k * dt, u_hat)
        trajectory.samples.append(
            sample_half_spectrum(k * dt, u, f, u_hat, ut_hat, f_hat, params.omega, params.m)
        )
        trajectory.final_state = SolverState(k * dt, u_hat, ut_hat)
        return f_hat

    try:
        for k in range(n_steps + 1):  # k = 0 and k = n_steps always sample
            if not (np.isfinite(u_hat).all() and np.isfinite(ut_hat).all()):
                reason = f"state became non-finite at step {k} (t = {k * dt:.6g})"
                raise BreakdownError(k * dt, math.nan, reason)
            f_hat = record(k) if k % config.sample_every == 0 or k == n_steps else None
            if k < n_steps:
                u_hat, ut_hat = stepper.advance(k * dt, u_hat, ut_hat, f_hat)
    except BreakdownError as err:
        trajectory.breakdown = BreakdownInfo(err.t, k, err.reason)
    return trajectory


def mean_mode_reference(trajectory: Trajectory) -> list[tuple[float, float]]:
    """Duhamel quadrature for the mean: (2 omega)^-1 int (1 - e^{-2 omega (t-s)}) Fbar ds.

    Valid for zero-mean initial data only; the recorded mean of u and the
    stored mean of u_t at t = 0 must both vanish.
    """
    if not trajectory.samples:
        raise ValueError("trajectory has no samples")
    first = trajectory.samples[0]
    tol = 1e-12
    if abs(first.u_mean) > tol or abs(trajectory.u1_mean) > tol:
        raise ValueError(
            f"mean-mode reference needs zero-mean initial data, got means "
            f"({first.u_mean:.3e}, {trajectory.u1_mean:.3e})"
        )
    omega = trajectory.params.omega
    t = trajectory.times()
    if t.size == 1:
        return [(float(t[0]), 0.0)]
    fbar = trajectory.series("f_mean")
    # The trapezoid of (1 - e^{-2 omega (t_i - s)}) Fbar splits, trapezoids
    # being linear, into the plain running integral of Fbar minus the damped
    # one: the Gronwall recurrence with g0 = 0 and A = 0, then A = -2 omega.
    plain = gronwall_bound(t, np.zeros(t.shape), fbar, 0.0)
    damped = gronwall_bound(t, np.full(t.shape, -2.0 * omega), fbar, 0.0)
    return [(float(ti), float(v)) for ti, v in zip(t, (plain - damped) / (2.0 * omega))]

"""Forcing term of the damped wave equation.

The right-hand side has the fixed shape

    F(t, x) = exp(-kappa t) * a(t, x) * (1 + u)^mu,

with kappa > 0 and mu < 1 when both descend from a fluid equation of state
p = K rho with 0 < K < 1:

    kappa = (1 - K) omega / K,        mu = (2K - 1) / K.

``derive_exponents`` evaluates both exactly at the simplest rationals that
round to the given K and omega (their first continued-fraction convergents
that do) and rounds each once, so K = 2/3, which a scenario can only spell
as the float 0.66666666666666663, gives mu = 1/2 and kappa = omega / 2
exactly, as in the paper.  The rational lies within half an ulp of the
float, so mu differs from its exact value at the float K by at most
2^-52 (1/K + 1); such a change delta mu moves F by about
delta mu * ln(1 + u) relative, far below F's own rounding.  At mu = 0.5
numpy's ``**`` takes its sqrt path (``np.power`` does not): on 32^3 it took
about 36 us against 92 us at mu = 0.49999999999999989 (2-vCPU Xeon,
numpy 2.4).

The profile is an analytic preset a(t, x) = sigma(t) A(x) with
|sigma| <= 1, and A is rescaled so the sup over t of ||a(t, .)||_{H^m}
equals the requested amplitude; amplitude zero switches the source off
entirely.  In the source paper (arXiv 2509.02023) a is generated by a scalar
fluid potential with a timelike gradient,

    a = (1/6) (3 - 1/K) [(phi_t)^2 - |grad phi|^2]^{(1+K)/(2K)};

no preset uses that formula, and git history has the code that evaluated it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .fields import GridSpec, hm_norms, random_band_limited


def _simplest_ratio(x: float) -> tuple[int, int]:
    """The first continued-fraction convergent p/q of x > 0 that rounds to x; the
    last convergent is x itself, so the search ends.  Python's int division
    p / q rounds correctly."""
    n, d = x.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a, n, d = n // d, d, n % d
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if p1 / q1 == x:
            return p1, q1


def derive_exponents(k_eos: float, omega: float) -> tuple[float, float]:
    """Decay rate and nonlinearity power implied by the equation of state.

    Returns (kappa, mu), each the correctly rounded exact value at the
    simplest rationals that round to K and omega (``_simplest_ratio``):
    K = float(2/3) gives mu = 0.5.  Against the exact values at the floats
    themselves mu is within 2^-52 (1/K + 1) and kappa within
    2^-52 (1 + 1/(1 - K)) relative.  The equation of state parameter must
    satisfy 0 < K < 1, which makes kappa positive and mu < 1.
    """
    if not 0.0 < k_eos < 1.0:
        raise ValueError(
            f"equation of state parameter must satisfy 0 < K < 1, got {k_eos}"
        )
    if not omega > 0.0:
        raise ValueError(f"damping rate omega must be positive, got {omega}")
    (a, b), (c, e) = _simplest_ratio(k_eos), _simplest_ratio(omega)  # K = a/b, omega = c/e
    try:
        return (b - a) * c / (a * e), (2 * a - b) / a
    except OverflowError:
        raise ValueError(
            f"K = {k_eos} and omega = {omega} give exponents beyond the float range"
        ) from None


@dataclass
class ModelParams:
    """Continuous-model parameters: damping, forcing decay, nonlinearity power.

    ``k_eos`` is optional; when present the stored kappa and mu must agree
    with the values it implies.  ``m`` is the Sobolev order every diagnostic
    is tracked at.
    """

    omega: float
    kappa: float
    mu: float
    k_eos: float | None = None
    m: int = 3

    def __post_init__(self) -> None:
        if not self.omega > 0.0:
            raise ValueError(f"damping rate omega must be positive, got {self.omega}")
        if not self.kappa > 0.0:
            raise ValueError(f"forcing decay rate kappa must be positive, got {self.kappa}")
        if not (isinstance(self.m, int) and self.m >= 0):
            raise ValueError(f"Sobolev order m must be a nonnegative integer, got {self.m}")
        if self.k_eos is not None:
            kappa, mu = derive_exponents(self.k_eos, self.omega)
            if not (np.isclose(kappa, self.kappa, rtol=1e-12, atol=0.0)
                    and np.isclose(mu, self.mu, rtol=1e-12, atol=1e-15)):
                raise ValueError(
                    f"kappa, mu = ({self.kappa}, {self.mu}) inconsistent with "
                    f"K = {self.k_eos}, which implies ({kappa}, {mu})"
                )

    @classmethod
    def from_equation_of_state(cls, k_eos: float, omega: float, m: int = 3) -> "ModelParams":
        kappa, mu = derive_exponents(k_eos, omega)
        return cls(omega=omega, kappa=kappa, mu=mu, k_eos=k_eos, m=m)


_PRESETS = ("uniform", "single-mode", "bump", "band")
_SIGMAS = ("const", "cos")


@dataclass
class SourceSpec:
    """Declarative description of the forcing profile a(t, x) = sigma(t) A(x).

    ``amplitude`` is the target for sup_t ||a(t, .)||_{H^m}; the spatial
    profile is rescaled to meet it exactly, and |sigma| <= 1.
    """

    amplitude: float
    preset: str = "uniform"
    sigma: str = "const"
    sigma_rate: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.amplitude < 0.0:
            raise ValueError(f"source amplitude must be >= 0, got {self.amplitude}")
        if self.preset not in _PRESETS:
            raise ValueError(f"preset must be one of {_PRESETS}, got {self.preset!r}")
        if self.sigma not in _SIGMAS:
            raise ValueError(f"sigma kind must be one of {_SIGMAS}, got {self.sigma!r}")
        if self.seed < 0:
            raise ValueError(f"source seed must be >= 0, got {self.seed}")


def bump_profile(grid: GridSpec) -> npt.NDArray[np.float64]:
    """exp((cos x1 + cos x2 + cos x3 - 3) / 0.49): the bump of the source and
    initial-data presets, peaked at the origin."""
    x1, x2, x3 = grid.coordinates()
    return np.exp((np.cos(x1) + np.cos(x2) + np.cos(x3) - 3.0) / 0.49)


def _raw_profile(spec: SourceSpec, grid: GridSpec) -> npt.NDArray[np.float64]:
    if spec.preset == "uniform":
        return np.ones(grid.shape)
    if spec.preset == "single-mode":
        x1 = grid.coordinates()[0]
        return np.broadcast_to(np.cos(x1), grid.shape).copy()
    if spec.preset == "bump":
        return bump_profile(grid)
    return random_band_limited(grid, seed=spec.seed, band=max(1, grid.n // 4))


@dataclass
class PreparedSource:
    """Profile A resolved on the grid as an array, rescaled to the requested amplitude."""

    spec: SourceSpec
    profile: npt.NDArray[np.float64]

    def sigma(self, t: float) -> float:
        if self.spec.sigma == "cos":
            return float(np.cos(self.spec.sigma_rate * t))
        return 1.0


def prepare_source(spec: SourceSpec, grid: GridSpec, m: int) -> PreparedSource:
    """Resolve and normalize the spatial profile once per run."""
    if spec.amplitude == 0.0:
        return PreparedSource(spec, np.zeros(grid.shape))
    raw = _raw_profile(spec, grid)
    (norm,) = hm_norms(np.fft.rfftn(raw), m, np.s_[:1])
    if norm == 0.0:
        raise ValueError("source profile vanishes, cannot scale it to a positive amplitude")
    return PreparedSource(spec, raw * (spec.amplitude / norm))


def _integer(mu: float) -> bool:
    """mu is a nonnegative integer, whose power is defined for 1 + u of any sign."""
    return mu == int(mu) and mu >= 0.0


def _exponent(mu: float) -> float | int:
    """mu as ``**=`` takes it: an integer mu as an int, so numpy multiplies out its power."""
    return int(mu) if _integer(mu) else mu


def _power_breakdown(t: float, u_min: float, u_max: float, mu: float) -> str | None:
    """Why (1 + u)^mu fails at time t for grid values in [u_min, u_max], or None.

    For non-integer or negative mu the power needs 1 + u > 0, and it is
    largest where u is smallest if mu < 0 and where u is largest if mu > 0:
    (1 + u_min)^mu or (1 + u_max)^mu decides whether it overflows, so a grid
    holding +inf fails at its own force.  An integer mu >= 0 admits any sign,
    and its power is largest at max |1 + u|, which is |1 + u_min| or
    |1 + u_max| (rounding 1 + u keeps the order of u).  A NaN in the grid
    makes u_min NaN: a failure for any mu.
    """
    if math.isnan(u_min):
        return f"u is not a number at t = {t:.6g}"
    if _integer(mu):
        peak = max(abs(1.0 + u_min), abs(1.0 + u_max))
        try:
            largest = peak ** int(mu)
        except OverflowError:
            largest = math.inf
        if not math.isfinite(largest):
            return f"(1 + u)^mu overflows at t = {t:.6g}: max |1 + u| = {peak:.6g}, mu = {mu:g}"
        return None
    if 1.0 + u_min <= 0.0:
        return f"1 + u reached {1.0 + u_min:.6g} at t = {t:.6g}"
    base = 1.0 + (u_max if mu > 0.0 else u_min)
    try:
        largest = base**mu
    except OverflowError:
        largest = math.inf
    if not math.isfinite(largest):
        return f"(1 + u)^mu overflows at t = {t:.6g}: 1 + u = {base:.6g}, mu = {mu:g}"
    return None


def eval_prepared(t: float, u, params, prepared, out=None):
    """F(t, .) = exp(-kappa t) a(t, .) (1 + u)^mu on the grid, for B runs:
    ``u`` is their stack (B, n, n, n) of grid samples, ``params`` and
    ``prepared`` sequences of B each.  Returns F's stack, the B grid minima
    of u that the checks reduced, and the reason of each slot whose power
    fails (``_power_breakdown``), keyed by slot.

    F is built in one array, ``out`` if given (``u`` itself may be passed,
    when u is not needed after), else a new one: 1 + u, raised to mu in place
    with ``**=`` (``_exponent``), times the profile and the run's envelope
    exp(-kappa t) sigma(t).  The power covers the whole stack, failing slots
    too: their base is set to NaN first, which raises no floating-point
    warning where a negative or overflowing power would, and their F is never
    to be read (NaN, or for mu = 0 the bare profile term).  One power covers
    the stack when every run has the same mu, and otherwise each slice is
    raised alone, so a slice holds the bits its run would get alone.
    """
    if u.shape[1:] != prepared[0].profile.shape:
        raise ValueError(
            f"state shape {u.shape[1:]} does not match source grid {prepared[0].profile.shape[0]}"
        )
    mus = [p.mu for p in params]
    lows = u.min(axis=(1, 2, 3))
    # max u matters to positive powers only; the others skip that pass over the grid
    highs = u.max(axis=(1, 2, 3)) if any(mu > 0.0 for mu in mus) else lows
    reasons = [_power_breakdown(t, low, high, mu)
               for low, high, mu in zip(lows.tolist(), highs.tolist(), mus)]
    failed = {b: reason for b, reason in enumerate(reasons) if reason is not None}
    f = np.add(u, 1.0, out=out)
    for b in failed:
        f[b] = np.nan  # its F is never read; NaN goes through the power with no warning
    # `**=` with a Python scalar keeps numpy's fast paths (sqrt at 0.5, square at 2)
    if mus.count(mus[0]) == len(mus):
        f **= _exponent(mus[0])
    else:
        for slice_, mu in zip(f, mus):
            slice_ **= _exponent(mu)
    for slice_, p, q in zip(f, params, prepared):
        slice_ *= q.profile
        slice_ *= float(np.exp(-p.kappa * t)) * q.sigma(t)
    return f, lows, failed

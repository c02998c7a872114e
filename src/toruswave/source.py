"""Forcing term of the damped wave equation.

The right-hand side has the fixed shape

    F(t, x) = exp(-kappa t) * a(t, x) * (1 + u)^mu,

with kappa > 0 and mu < 1 when both descend from a fluid equation of state
p = K rho with 0 < K < 1:

    kappa = (1 - K) omega / K,        mu = (2K - 1) / K.

The profile is an analytic preset a(t, x) = sigma(t) A(x) with
|sigma| <= 1, and A is rescaled so the sup over t of ||a(t, .)||_{H^m}
equals the requested amplitude; amplitude zero switches the source off
entirely.  ``fluid_source`` is the paper's own formula for a, generated by a
scalar fluid potential with a timelike gradient,

    a = (1/6) (3 - 1/K) [(phi_t)^2 - |grad phi|^2]^{(1+K)/(2K)};

it is kept for a future preset and no scenario reaches it yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .fields import Field, GridSpec, random_band_limited, sobolev_norm


class BreakdownError(RuntimeError):
    """The pointwise positivity 1 + u > 0 failed, so (1 + u)^mu is undefined."""

    def __init__(self, t: float, u_min: float, reason: str = ""):
        self.t = float(t)
        self.u_min = float(u_min)
        self.reason = reason or f"1 + u reached {1.0 + u_min:.6g} at t = {t:.6g}"
        super().__init__(self.reason)


def derive_exponents(k_eos: float, omega: float) -> tuple[float, float]:
    """Decay rate and nonlinearity power implied by the equation of state.

    Returns (kappa, mu).  The equation of state parameter must satisfy
    0 < K < 1, which makes kappa positive and mu < 1.
    """
    if not 0.0 < k_eos < 1.0:
        raise ValueError(
            f"equation of state parameter must satisfy 0 < K < 1, got {k_eos}"
        )
    if not omega > 0.0:
        raise ValueError(f"damping rate omega must be positive, got {omega}")
    kappa = (1.0 - k_eos) * omega / k_eos
    mu = (2.0 * k_eos - 1.0) / k_eos
    return kappa, mu


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


@dataclass
class FluidPotential:
    """Scalar potential data (phi_t, grad phi) with a timelike gradient."""

    phi_t: Field
    phi_grad: tuple[Field, Field, Field]

    def __post_init__(self) -> None:
        for g in self.phi_grad:
            if g.grid != self.phi_t.grid:
                raise ValueError("potential components live on different grids")
        if np.min(self.bracket()) <= 0.0:
            bad = np.unravel_index(int(np.argmin(self.bracket())), self.phi_t.grid.shape)
            raise ValueError(
                f"potential gradient is not timelike at grid index {tuple(int(i) for i in bad)}"
            )

    def bracket(self) -> np.ndarray:
        """(phi_t)^2 - |grad phi|^2 on the grid."""
        out = self.phi_t.values**2
        for g in self.phi_grad:
            out = out - g.values**2
        return out


def fluid_source(potential: FluidPotential, k_eos: float) -> Field:
    """Static profile a generated by a timelike potential."""
    if not 0.0 < k_eos < 1.0:
        raise ValueError(
            f"equation of state parameter must satisfy 0 < K < 1, got {k_eos}"
        )
    exponent = (1.0 + k_eos) / (2.0 * k_eos)
    prefactor = (3.0 - 1.0 / k_eos) / 6.0
    return Field(potential.phi_t.grid, prefactor * potential.bracket() ** exponent)


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


def _raw_profile(spec: SourceSpec, grid: GridSpec) -> Field:
    x1, x2, x3 = grid.coordinates()
    if spec.preset == "uniform":
        return Field(grid, np.ones(grid.shape))
    if spec.preset == "single-mode":
        return Field(grid, np.broadcast_to(np.cos(x1), grid.shape).copy())
    if spec.preset == "bump":
        width_sq = 0.49
        return Field(grid, np.exp((np.cos(x1) + np.cos(x2) + np.cos(x3) - 3.0) / width_sq))
    return random_band_limited(grid, seed=spec.seed, band=max(1, grid.n // 4))


@dataclass
class PreparedSource:
    """Profile resolved on a grid, rescaled to the requested amplitude."""

    spec: SourceSpec
    profile: Field
    m: int

    def sigma(self, t: float) -> float:
        if self.spec.sigma == "cos":
            return float(np.cos(self.spec.sigma_rate * t))
        return 1.0


def prepare_source(spec: SourceSpec, grid: GridSpec, m: int) -> PreparedSource:
    """Resolve and normalize the spatial profile once per run."""
    if spec.amplitude == 0.0:
        return PreparedSource(spec, Field(grid, np.zeros(grid.shape)), m)
    raw = _raw_profile(spec, grid)
    norm = sobolev_norm(raw, m)
    if norm == 0.0:
        raise ValueError("source profile vanishes, cannot scale it to a positive amplitude")
    return PreparedSource(spec, Field(grid, raw.values * (spec.amplitude / norm)), m)


def eval_prepared(
    t: float, u: npt.NDArray[np.float64], params: ModelParams, prepared: PreparedSource
) -> npt.NDArray[np.float64]:
    """F(t, .) = exp(-kappa t) a(t, .) (1 + u)^mu on the grid, for grid samples
    ``u`` and a resolved profile.

    For non-integer or negative mu the power needs 1 + u > 0; for mu < 0 it
    is largest where u is smallest, so (1 + u_min)^mu also decides whether it
    overflows.  Either failure raises ``BreakdownError``.
    """
    if u.shape != prepared.profile.grid.shape:
        raise ValueError(
            f"state shape {u.shape} does not match source grid {prepared.profile.grid.n}"
        )
    mu = params.mu
    base = 1.0 + u
    if mu == int(mu) and mu >= 0.0:
        power = base ** int(mu)
    else:
        u_min = float(np.min(u))
        if 1.0 + u_min <= 0.0:
            raise BreakdownError(t, u_min)
        try:
            (1.0 + u_min) ** mu  # the largest power if mu < 0; raises if it overflows
        except OverflowError:
            reason = f"(1 + u)^mu overflows at t = {t:.6g}: 1 + u = {1.0 + u_min:.6g}, mu = {mu:g}"
            raise BreakdownError(t, u_min, reason) from None
        power = base**mu
    envelope = float(np.exp(-params.kappa * t)) * prepared.sigma(t)
    return envelope * prepared.profile.values * power


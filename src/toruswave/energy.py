"""Energy functionals for the damped wave flow.

Two families are tracked.  The modified energy couples the field to its
velocity through an omega cross term,

    E^2[v] = 1/2 int (v_t^2 + omega v v_t + 1/2 omega^2 v^2) dx
             + 1/2 int |grad v|^2 dx,

and is positive definite thanks to the completed-square identity

    E^2[v] = 1/2 ||v_t + omega v / 2||^2 + omega^2/8 ||v||^2
             + 1/2 ||grad v||^2.

The order-m version sums E^2 over all derivative multi-indices up to m.  The
standard energy drops the cross term and is the natural quantity for the
late-time decay statements:

    Estd^2 = 1/2 (||u_t||_{H^m}^2 + ||grad u||_{H^m}^2).

All integrals are weighted reductions of the coefficients (Parseval), and one
core computes them for both coefficient layouts: the normalized full spectrum
of ``transform`` (``sample_energies``, ``modified_energy``,
``standard_energy``) and the raw ``np.fft.rfftn`` half spectrum the time loop
keeps (``sample_half_spectrum``).  In the half layout the weights carry the
Hermitian multiplicity 1, 2, ..., 2, 1 of the k3 planes
(``fields.half_layout_weight``) and the n^-6 of raw coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import numpy.typing as npt

from . import fields
from .fields import (
    Field, Spectrum, VOLUME, derivative_weight, half_layout_weight, sobolev_weight, transform
)


@dataclass
class EnergySample:
    """Diagnostics recorded at one sample time along a trajectory.

    Both energies are stored squared; norms are plain.  ``u_min`` is the grid
    minimum of u, tracked because the nonlinearity needs 1 + u > 0.
    """

    t: float
    e_m_sq: float
    e_std_sq: float
    u_hm: float
    ut_hm: float
    f_hm: float
    u_mean: float
    f_mean: float
    u_min: float


def _check_pair(u: Field | Spectrum, ut: Field | Spectrum) -> None:
    if u.grid != ut.grid:
        raise ValueError(f"field grids differ: {u.grid.n} vs {ut.grid.n}")


def _check_omega(omega: float) -> None:
    if not omega > 0.0:
        raise ValueError(f"damping rate omega must be positive, got {omega}")


def _spectrum(u: Field | Spectrum) -> Spectrum:
    return transform(u) if isinstance(u, Field) else u


class _Weights:
    """Reduction weights for one coefficient layout, each built on first use.

    Every squared norm is ``scale * sum(w * |c|^2)`` for w = S_m (``s``),
    D_m (``d``) or S_m g (``sg``); g is the gradient symbol inside the
    density of E_m.  The full layout is the normalized spectrum of
    ``transform``: w is the weight ``fields`` caches and scale = VOLUME.  The
    half layout holds raw ``np.fft.rfftn`` coefficients, n^3 times the
    normalized ones: w is the full weight in the half layout
    (``fields.half_layout_weight``) and scale = VOLUME n^-6.
    """

    def __init__(self, n: int, m: int, half: bool):
        self.n, self.m, self.half = n, m, half
        self.scale = VOLUME * float(n) ** -6 if half else VOLUME

    def _layout(self, weight: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        if self.half:
            weight = half_layout_weight(weight)
        weight.flags.writeable = False  # cached and shared by every caller
        return weight

    @cached_property
    def s(self) -> npt.NDArray[np.float64]:
        return self._layout(sobolev_weight(self.n, self.m))

    @cached_property
    def d(self) -> npt.NDArray[np.float64]:
        return self._layout(derivative_weight(self.n, self.m))

    @cached_property
    def g(self) -> npt.NDArray[np.float64]:
        g = derivative_weight(self.n, 1, lowest=1)
        return g[..., : self.n // 2 + 1] if self.half else g

    @cached_property
    def sg(self) -> npt.NDArray[np.float64]:
        return self._layout(sobolev_weight(self.n, self.m) * derivative_weight(self.n, 1, lowest=1))


@lru_cache(maxsize=None)
def _weights(n: int, m: int, half: bool) -> _Weights:
    return _Weights(n, m, half)


def _modified_sq(uc, vc, w: _Weights, omega: float) -> float:
    """E_m^2: every term is diagonal in k, one sum of D_m times the density,
    with g for |grad d^a u|^2."""
    density = 0.5 * np.abs(vc) ** 2 + 0.5 * omega * (uc * np.conj(vc)).real
    density += (0.25 * omega**2 + 0.5 * w.g) * np.abs(uc) ** 2
    return float(w.scale * np.sum(w.d * density))


def _sobolev_sq(c, w: _Weights) -> float:
    return float(w.scale * np.sum(w.s * np.abs(c) ** 2))


def _standard_sq(uc, vc, w: _Weights) -> float:
    """Estd^2: one sum over S_m for u_t and one over S_m g for u."""
    return 0.5 * (_sobolev_sq(vc, w) + float(w.scale * np.sum(w.sg * np.abs(uc) ** 2)))


def modified_energy(u: Field | Spectrum, ut: Field | Spectrum, omega: float, m: int = 0) -> float:
    """Squared modified energy E_m^2, summed over multi-indices up to m."""
    _check_pair(u, ut)
    _check_omega(omega)
    w = _weights(u.grid.n, m, half=False)
    return _modified_sq(_spectrum(u).coeffs, _spectrum(ut).coeffs, w, omega)


def standard_energy(u: Field | Spectrum, ut: Field | Spectrum, m: int = 0) -> float:
    """Squared standard energy 1/2 (||u_t||_{H^m}^2 + ||grad u||_{H^m}^2)."""
    _check_pair(u, ut)
    w = _weights(u.grid.n, m, half=False)
    return _standard_sq(_spectrum(u).coeffs, _spectrum(ut).coeffs, w)


def damped_combination_norm(u: Field, ut: Field, omega: float) -> float:
    """L2 norm of u_t + (omega/2) u, the combination the energy controls."""
    _check_pair(u, ut)
    _check_omega(omega)
    combo = Field(u.grid, ut.values + 0.5 * omega * u.values)
    return fields.l2_norm(combo)


def _sample(t, u: Field, f: Field, uc, vc, fc, w: _Weights, omega: float) -> EnergySample:
    _check_omega(omega)
    return EnergySample(
        t=float(t),
        e_m_sq=_modified_sq(uc, vc, w, omega),
        e_std_sq=_standard_sq(uc, vc, w),
        u_hm=float(np.sqrt(_sobolev_sq(uc, w))),
        ut_hm=float(np.sqrt(_sobolev_sq(vc, w))),
        f_hm=float(np.sqrt(_sobolev_sq(fc, w))),
        u_mean=u.mean(),
        f_mean=f.mean(),
        u_min=float(np.min(u.values)),
    )


def sample_energies(
    t: float, u: Field, ut: Field, f: Field, omega: float, m: int
) -> EnergySample:
    """Evaluate the full diagnostic row for one instant; one transform per field."""
    _check_pair(u, ut)
    u_spec, ut_spec, f_spec = transform(u), transform(ut), transform(f)
    w = _weights(u.grid.n, m, half=False)
    return _sample(t, u, f, u_spec.coeffs, ut_spec.coeffs, f_spec.coeffs, w, omega)


def sample_half_spectrum(
    t: float, u: Field, f: Field, u_hat, ut_hat, f_hat, omega: float, m: int
) -> EnergySample:
    """The row of ``sample_energies`` from raw ``np.fft.rfftn`` coefficients.

    The time loop keeps its state in this layout and has u and F on the grid
    from the force evaluation; they give the minimum and the grid means.
    Every other entry is the reduction of ``sample_energies`` with the
    weights in the half layout.
    """
    w = _weights(u.grid.n, m, half=True)
    return _sample(t, u, f, u_hat, ut_hat, f_hat, w, omega)

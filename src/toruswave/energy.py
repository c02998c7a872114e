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

All integrals are weighted reductions of the raw ``np.fft.rfftn`` half
spectrum (Parseval): ``modified_energy`` and ``standard_energy`` transform
their grid fields once each, and ``sample_half_spectrum`` reads the
coefficients the time loop keeps.  The reduction weights of ``fields`` carry
the Hermitian multiplicity of the k3 planes; the n^-6 of raw coefficients is
the one scale factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import numpy.typing as npt

from .fields import Field, VOLUME, derivative_weight, gradient_symbol, norm_sq, sobolev_weight


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


def _check_pair(u: Field, ut: Field) -> None:
    if u.grid != ut.grid:
        raise ValueError(f"field grids differ: {u.grid.n} vs {ut.grid.n}")


def _check_omega(omega: float) -> None:
    if not omega > 0.0:
        raise ValueError(f"damping rate omega must be positive, got {omega}")


class _Weights:
    """The weights of one (n, m) on the raw rfftn half spectrum.

    Every squared norm is ``scale * sum(w * |c|^2)`` for a reduction weight
    w = S_m (``s``), D_m (``d``) or S_m g (``sg``), with scale = VOLUME n^-6;
    g is the per-mode gradient symbol inside the density of E_m.
    """

    def __init__(self, n: int, m: int):
        self.scale = VOLUME * float(n) ** -6
        self.s = sobolev_weight(n, m)
        self.d = derivative_weight(n, m)
        self.g = gradient_symbol(n)

    @cached_property
    def sg(self) -> npt.NDArray[np.float64]:
        sg = self.s * self.g
        sg.flags.writeable = False  # cached and shared by every caller
        return sg


@lru_cache(maxsize=None)
def _weights(n: int, m: int) -> _Weights:
    return _Weights(n, m)


def _modified_sq(uc, vc, w: _Weights, omega: float) -> float:
    """E_m^2: every term is diagonal in k, one sum of D_m times the density,
    with g for |grad d^a u|^2."""
    density = 0.5 * np.abs(vc) ** 2 + 0.5 * omega * (uc * np.conj(vc)).real
    density += (0.25 * omega**2 + 0.5 * w.g) * np.abs(uc) ** 2
    return float(w.scale * np.sum(w.d * density))


def _standard_sq(uc, vc, w: _Weights) -> float:
    """Estd^2: one sum over S_m for u_t and one over S_m g for u."""
    return 0.5 * (norm_sq(vc, w.s) + norm_sq(uc, w.sg))


def modified_energy(u: Field, ut: Field, omega: float, m: int = 0) -> float:
    """Squared modified energy E_m^2, summed over multi-indices up to m."""
    _check_pair(u, ut)
    _check_omega(omega)
    w = _weights(u.grid.n, m)
    return _modified_sq(np.fft.rfftn(u.values), np.fft.rfftn(ut.values), w, omega)


def standard_energy(u: Field, ut: Field, m: int = 0) -> float:
    """Squared standard energy 1/2 (||u_t||_{H^m}^2 + ||grad u||_{H^m}^2)."""
    _check_pair(u, ut)
    w = _weights(u.grid.n, m)
    return _standard_sq(np.fft.rfftn(u.values), np.fft.rfftn(ut.values), w)


def sample_half_spectrum(
    t: float, u, f, u_hat, ut_hat, f_hat, omega: float, m: int
) -> EnergySample:
    """The diagnostic row at one instant, from raw ``np.fft.rfftn`` coefficients.

    The time loop keeps its state in this layout and has the grid samples
    ``u`` and ``f`` of u and F from the force evaluation; they give the
    minimum and the grid means.  Every other entry is a reduction of the
    coefficients.
    """
    _check_omega(omega)
    w = _weights(u.shape[0], m)
    return EnergySample(
        t=float(t),
        e_m_sq=_modified_sq(u_hat, ut_hat, w, omega),
        e_std_sq=_standard_sq(u_hat, ut_hat, w),
        u_hm=math.sqrt(norm_sq(u_hat, w.s)),
        ut_hm=math.sqrt(norm_sq(ut_hat, w.s)),
        f_hm=math.sqrt(norm_sq(f_hat, w.s)),
        u_mean=float(np.mean(u)),
        f_mean=float(np.mean(f)),
        u_min=float(np.min(u)),
    )

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

Every integral reduces a per-mode density of the raw ``np.fft.rfftn`` half
spectrum through ``fields.reduce_power``, that is through the cached weight
matrix [S_m | D_1 ... D_m] of ``fields.norm_weights`` (Parseval).
E_m^2 is the D_0 = S_0 term plus the block columns applied to the density
above; Estd^2 is the S_m column applied to |v_hat|^2 + g |u_hat|^2, with g the
per-mode gradient symbol.  ``modified_energy`` and ``standard_energy``
transform their grid fields once each; ``sample_half_spectrum`` reads the
coefficients the time loop keeps and reduces all its densities in one
stacked product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field, gradient_symbol, reduce_power, spectral_power


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


def _density(u_hat, ut_hat, pu, pv, omega: float):
    """Per-mode energy density of E^2: 1/2 |v|^2 + omega/2 Re(u conj v)
    + (omega^2/4 + g/2) |u|^2, for the powers pu = |u_hat|^2, pv = |ut_hat|^2."""
    cross = u_hat.real * ut_hat.real + u_hat.imag * ut_hat.imag
    g = gradient_symbol(u_hat.shape[0])
    return 0.5 * pv + 0.5 * omega * cross + (0.25 * omega**2 + 0.5 * g) * pu


def _modified_sq(density, reduced) -> float:
    """E_m^2 from the density and its row ``reduce_power(density, m)``: the
    D_0 = S_0 term plus the blocks D_1 .. D_m."""
    return float(reduce_power(density, 0)[0] + np.sum(reduced[1:]))


def _standard_row(pu, pv):
    """|v_hat|^2 + g |u_hat|^2, whose S_m reduction is 2 Estd^2."""
    return pv + gradient_symbol(pu.shape[0]) * pu


def modified_energy(u: Field, ut: Field, omega: float, m: int = 0) -> float:
    """Squared modified energy E_m^2, summed over multi-indices up to m."""
    _check_pair(u, ut)
    _check_omega(omega)
    u_hat, ut_hat = np.fft.rfftn(u.values), np.fft.rfftn(ut.values)
    density = _density(u_hat, ut_hat, spectral_power(u_hat), spectral_power(ut_hat), omega)
    return _modified_sq(density, reduce_power(density, m))


def standard_energy(u: Field, ut: Field, m: int = 0) -> float:
    """Squared standard energy 1/2 (||u_t||_{H^m}^2 + ||grad u||_{H^m}^2)."""
    _check_pair(u, ut)
    pu, pv = (spectral_power(np.fft.rfftn(x.values)) for x in (u, ut))
    return float(0.5 * reduce_power(_standard_row(pu, pv), m)[0])


def sample_half_spectrum(
    t: float, u, f, u_hat, ut_hat, f_hat, omega: float, m: int
) -> EnergySample:
    """The diagnostic row at one instant, from raw ``np.fft.rfftn`` coefficients.

    The time loop keeps its state in this layout and has the grid samples
    ``u`` and ``f`` of u and F from the force evaluation; they give the
    minimum and the grid means.  Every other entry is a reduction of the
    coefficients: one stacked product for the energy density, the standard
    energy row and the powers of u, u_t and F.
    """
    _check_omega(omega)
    pu, pv, pf = (spectral_power(c) for c in (u_hat, ut_hat, f_hat))
    density = _density(u_hat, ut_hat, pu, pv, omega)
    reduced = reduce_power(np.stack([density, _standard_row(pu, pv), pu, pv, pf]), m)
    u_sq, ut_sq, f_sq = reduced[2:, 0].tolist()
    return EnergySample(
        t=float(t),
        e_m_sq=_modified_sq(density, reduced[0]),
        e_std_sq=float(0.5 * reduced[1, 0]),
        u_hm=math.sqrt(u_sq),
        ut_hm=math.sqrt(ut_sq),
        f_hm=math.sqrt(f_sq),
        u_mean=float(np.mean(u)),
        f_mean=float(np.mean(f)),
        u_min=float(np.min(u)),
    )

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

All integrals are weighted reductions of the coefficients (Parseval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields
from .fields import (
    Field, Spectrum, VOLUME, derivative_weight, sobolev_weight, transform, weighted_norm_sq
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


def modified_energy(u: Field | Spectrum, ut: Field | Spectrum, omega: float, m: int = 0) -> float:
    """Squared modified energy E_m^2, summed over multi-indices up to m.

    Every term is diagonal in k: one reduction over D_m, with g for |grad d^a u|^2.
    """
    _check_pair(u, ut)
    _check_omega(omega)
    uc, vc, n = _spectrum(u).coeffs, _spectrum(ut).coeffs, u.grid.n
    density = 0.5 * np.abs(vc) ** 2 + 0.5 * omega * (uc * np.conj(vc)).real
    density += (0.25 * omega**2 + 0.5 * derivative_weight(n, 1, lowest=1)) * np.abs(uc) ** 2
    return float(VOLUME * np.sum(derivative_weight(n, m) * density))


def standard_energy(u: Field | Spectrum, ut: Field | Spectrum, m: int = 0) -> float:
    """Squared standard energy 1/2 (||u_t||_{H^m}^2 + ||grad u||_{H^m}^2)."""
    _check_pair(u, ut)
    s_m = sobolev_weight(u.grid.n, m)
    grad_sq = weighted_norm_sq(_spectrum(u), s_m * derivative_weight(u.grid.n, 1, lowest=1))
    return 0.5 * (weighted_norm_sq(_spectrum(ut), s_m) + grad_sq)


def damped_combination_norm(u: Field, ut: Field, omega: float) -> float:
    """L2 norm of u_t + (omega/2) u, the combination the energy controls."""
    _check_pair(u, ut)
    _check_omega(omega)
    combo = Field(u.grid, ut.values + 0.5 * omega * u.values)
    return fields.l2_norm(combo)


def sample_energies(
    t: float, u: Field, ut: Field, f: Field, omega: float, m: int
) -> EnergySample:
    """Evaluate the full diagnostic row for one instant; one transform per field."""
    u_spec, ut_spec, f_spec = transform(u), transform(ut), transform(f)
    return EnergySample(
        t=float(t),
        e_m_sq=modified_energy(u_spec, ut_spec, omega, m),
        e_std_sq=standard_energy(u_spec, ut_spec, m),
        u_hm=fields.sobolev_norm(u_spec, m),
        ut_hm=fields.sobolev_norm(ut_spec, m),
        f_hm=fields.sobolev_norm(f_spec, m),
        u_mean=u.mean(),
        f_mean=f.mean(),
        u_min=float(np.min(u.values)),
    )

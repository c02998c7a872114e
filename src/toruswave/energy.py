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

Every integral is a ``fields.weighted_sums`` of a per-mode density of the
raw ``np.fft.rfftn`` half spectrum against rows of ``fields.norm_weights``
(Parseval), and each diagnostic takes only the rows it reads.  Estd^2 is the
S_m sum of |v_hat|^2 + g |u_hat|^2, with g the per-mode gradient symbol,
the H^m norms of u, u_t and F are the S_m sums of their powers, and the
means of u and F are the real parts of their k = 0 coefficients over n^3,
the paper's u_hat(0) in the raw scale.  E_m is
written once: ``_density`` writes the density above and ``_e_m_sq`` adds its
sums against D_1 .. D_m and D_0 = S_0, for ``modified_energy``'s one pair of
spectra (the initial data a scenario scales to its target E_m) and for
``SampleBlock``'s stack: the coefficients the time loop keeps for a block of
sample times and every run of a batch, of one Sobolev order.  The products
of a block's sums are written into its spent spectra.  The loop decides when
a block is flushed and how deep it is (``solver``).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .fields import gradient_symbol, norm_weights, weighted_sums

# The diagnostics of a sample time: the columns of ``SampleBlock``'s rows, and of
# ``solver.Trajectory.table`` after t.  Both energies are squared, norms plain;
# ``u_min`` is the grid minimum of u, since the nonlinearity needs 1 + u > 0.
COLUMNS = ("e_m_sq", "e_std_sq", "u_hm", "ut_hm", "f_hm", "u_mean", "f_mean", "u_min")


def _coefficients(omegas, n: int):
    """omega/2 and omega^2/4 + g/2, the coefficients of E^2's density, of each
    damping rate in ``omegas``, stacked to broadcast over (B, n, n, n/2 + 1)."""
    for omega in omegas:
        if not omega > 0.0:
            raise ValueError(f"damping rate omega must be positive, got {omega}")
    g = gradient_symbol(n)
    half_omega = np.array([0.5 * omega for omega in omegas]).reshape(-1, 1, 1, 1)
    return half_omega, np.stack([0.25 * omega**2 + 0.5 * g for omega in omegas])


def _density(floats, cross, rows, half_omega, coef) -> None:
    """Write E^2's per-mode density 1/2 |v|^2 + omega/2 Re(u conj v)
    + (omega^2/4 + g/2) |u|^2 into ``rows[0]`` and |u|^2, |v|^2 into
    ``rows[2:4]`` (``rows[1]`` is scratch).  ``floats`` is the float view of
    the stacked half spectra (u, v), squared in place, ``cross`` a float buffer
    of one of them; ``half_omega`` and ``coef`` are omega/2, omega^2/4 + g/2."""
    np.multiply(floats[0], floats[1], out=cross)  # re u re u_t, im u im u_t
    density, scratch, pu, pv = rows[:4]
    np.add(cross[..., 0::2], cross[..., 1::2], out=density)
    np.square(floats, out=floats)
    np.add(floats[..., 0::2], floats[..., 1::2], out=rows[2:4])
    np.multiply(half_omega, density, out=density)
    np.multiply(0.5, pv, out=scratch)
    np.add(scratch, density, out=density)
    np.multiply(coef, pu, out=scratch)
    np.add(density, scratch, out=density)


def _e_m_sq(density, n: int, m: int, scratch=None):
    """E_m^2 from its density: its sums against D_1 .. D_m, rows [1:] of
    ``norm_weights(n, m)``, then D_0 = S_0, the row of ``norm_weights(n, 0)``,
    added in that order."""
    rows = [*norm_weights(n, m)[1:], *norm_weights(n, 0)]
    return np.add.reduce(weighted_sums(density, rows, scratch), axis=-1)


def modified_energy(u, ut, omega: float, m: int = 0) -> float:
    """Squared modified energy E_m^2 of the grid arrays ``u`` and ``ut``,
    summed over multi-indices up to m."""
    if u.shape != ut.shape:
        raise ValueError(f"field grids differ: {u.shape} vs {ut.shape}")
    n = u.shape[0]
    half_omega, coef = _coefficients([omega], n)
    spectra = np.empty((2, 1, n, n, n // 2 + 1), dtype=np.complex128)
    np.fft.rfftn(u, out=spectra[0, 0])
    np.fft.rfftn(ut, out=spectra[1, 0])
    floats = spectra.view(np.float64)
    rows = np.empty((4, 1, n, n, n // 2 + 1))
    _density(floats, np.empty_like(floats[0]), rows, half_omega, coef)
    return float(_e_m_sq(rows[0], n, m, floats)[0])


class SampleBlock:
    """The diagnostics of blocks of sample times of B runs of Sobolev order
    ``m`` on one n^3 grid, each block reduced in one stacked pass; ``omegas``
    holds each run's damping rate, one per slot of the batch."""

    def __init__(self, n: int, omegas, m: int):
        self.n, self.m = n, m
        self.half_omega, self.coef = _coefficients(omegas, n)

    def reduce(self, entries) -> npt.NDArray[np.float64]:
        """Rows (j, B, 8) of ``COLUMNS`` for j sample times, each an entry
        (u_hat, ut_hat, f_hat, u_min): the raw half spectra of u, u_t and F
        and the B minima of u.  The standard energy row |v|^2 + g |u|^2 and
        the powers of u, u_t and F take their S_m sums, the E_m density its
        sums against D_1 .. D_m and D_0; the means of u and F are the real
        parts of their k = 0 coefficients over n^3.  Every row is reduced
        alone, so a run gets the same bits in any block."""
        n, b, j = self.n, len(self.half_omega), len(entries)
        shape = (j, b, n, n, n // 2 + 1)
        spectra = np.empty((3, *shape), dtype=np.complex128)
        table = np.empty((len(COLUMNS), j, b))
        for i, (u_hat, ut_hat, f_hat, _) in enumerate(entries):
            spectra[0, i], spectra[1, i], spectra[2, i] = u_hat, ut_hat, f_hat
        # the means, read before the spectra are squared in place below
        np.divide(spectra[::2, ..., 0, 0, 0].real, float(n**3), out=table[5:7])
        rows = np.empty((5, *shape))
        density, standard, pu, pv, pf = rows
        # (re, im) interleaved on the last axis; F's parts are squared in place,
        # then its buffer takes the cross products of u and u_t; once the rows
        # are written, the spectra's floats take the products of every sum
        floats = spectra.view(np.float64)
        np.square(floats[2], out=floats[2])
        np.add(floats[2, ..., 0::2], floats[2, ..., 1::2], out=pf)
        _density(floats[:2], floats[2], rows, self.half_omega, self.coef)
        np.multiply(gradient_symbol(n), pu, out=standard)
        np.add(pv, standard, out=standard)

        table[0] = _e_m_sq(density, n, self.m, floats)
        sobolev = weighted_sums(rows[1:], norm_weights(n, self.m)[:1], floats)[..., 0]
        table[1] = 0.5 * sobolev[0]
        table[2:5] = np.sqrt(sobolev[1:])
        table[7] = [entry[3] for entry in entries]
        return table.transpose(1, 2, 0)

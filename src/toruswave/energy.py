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
per-mode gradient symbol.  ``SampleBlock`` reads the coefficients the time
loop keeps for a block of sample times and every run of a batch: it writes
all their densities, both energies among them, with ``out=`` ufuncs into
arrays of the whole block and reduces them in one stacked product per
Sobolev order; the loop decides when a block is flushed and how deep it is,
and appends each run's rows, t first, to that run's table (``solver``).
``modified_energy`` transforms a pair of grid arrays once each, for the
initial data a scenario scales to its target E_m.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .fields import gradient_symbol, reduce_power, spectral_power

# The diagnostics of a sample time: the columns of ``SampleBlock``'s rows, and of
# ``solver.Trajectory.table`` after t.  Both energies are squared, norms plain;
# ``u_min`` is the grid minimum of u, since the nonlinearity needs 1 + u > 0.
COLUMNS = ("e_m_sq", "e_std_sq", "u_hm", "ut_hm", "f_hm", "u_mean", "f_mean", "u_min")


def _check_omega(omega: float) -> None:
    if not omega > 0.0:
        raise ValueError(f"damping rate omega must be positive, got {omega}")


def _density(u_hat, ut_hat, pu, pv, omega: float):
    """Per-mode energy density of E^2: 1/2 |v|^2 + omega/2 Re(u conj v)
    + (omega^2/4 + g/2) |u|^2, for the powers pu = |u_hat|^2, pv = |ut_hat|^2."""
    cross = u_hat.real * ut_hat.real + u_hat.imag * ut_hat.imag
    g = gradient_symbol(u_hat.shape[0])
    return 0.5 * pv + 0.5 * omega * cross + (0.25 * omega**2 + 0.5 * g) * pu


def modified_energy(u, ut, omega: float, m: int = 0) -> float:
    """Squared modified energy E_m^2 of the grid arrays ``u`` and ``ut``,
    summed over multi-indices up to m."""
    if u.shape != ut.shape:
        raise ValueError(f"field grids differ: {u.shape} vs {ut.shape}")
    _check_omega(omega)
    u_hat, ut_hat = np.fft.rfftn(u), np.fft.rfftn(ut)
    density = _density(u_hat, ut_hat, spectral_power(u_hat), spectral_power(ut_hat), omega)
    # the D_0 = S_0 term plus the blocks D_1 .. D_m
    return float(reduce_power(density, 0)[0] + np.sum(reduce_power(density, m)[1:]))


class SampleBlock:
    """The diagnostics of blocks of sample times of B runs on one n^3 grid, each
    block reduced in one stacked pass.

    ``omegas`` and ``ms`` hold each run's damping rate and Sobolev order, and
    ``take`` drops runs as they leave the batch.
    """

    def __init__(self, n: int, omegas, ms):
        for omega in omegas:
            _check_omega(omega)
        self.n, self.ms = n, list(ms)
        g = gradient_symbol(n)
        self.half_omega = np.array([0.5 * omega for omega in omegas]).reshape(-1, 1, 1, 1)
        self.coef = np.stack([0.25 * omega**2 + 0.5 * g for omega in omegas])

    def take(self, slots: list[int]) -> None:
        """Keep only the runs in ``slots``, in that order."""
        self.ms = [self.ms[b] for b in slots]
        self.half_omega, self.coef = self.half_omega[slots], self.coef[slots]

    def reduce(self, entries) -> npt.NDArray[np.float64]:
        """Rows (j, B, 8) of ``COLUMNS`` for j sample times, each an entry
        (u, f, u_hat, ut_hat, f_hat, u_min): the stacked grid arrays of u and
        F, the raw half spectra of u, u_t and F, and the B minima of u.

        Per sample time and run: the energy density (in ``_density``'s
        association), the standard energy row |v|^2 + g |u|^2 and the powers
        of u, u_t and F go through one ``reduce_power`` per Sobolev order,
        stacked; E_m's S_0 term through one more; the means are each run's
        grid sum over n^3.  Every row is reduced alone, so a run gets the same
        bits in any block.
        """
        n, b, j = self.n, len(self.ms), len(entries)
        shape = (j, b, n, n, n // 2 + 1)
        spectra = np.empty((3, *shape), dtype=np.complex128)
        grids = np.empty((2, j, b, n**3))
        for i, (u, f, u_hat, ut_hat, f_hat, _) in enumerate(entries):
            spectra[0, i], spectra[1, i], spectra[2, i] = u_hat, ut_hat, f_hat
            grids[0, i], grids[1, i] = u.reshape(b, -1), f.reshape(b, -1)
        rows = np.empty((5, *shape))
        density, standard, pu, pv, pf = rows
        # (re, im) interleaved on the last axis; each part is squared in place
        # once its plain values are used
        floats = spectra.view(np.float64)
        np.square(floats[2], out=floats[2])
        np.add(floats[2, ..., 0::2], floats[2, ..., 1::2], out=pf)
        cross = floats[2]  # re u re u_t, im u im u_t
        np.multiply(floats[0], floats[1], out=cross)
        np.add(cross[..., 0::2], cross[..., 1::2], out=density)
        np.square(floats[:2], out=floats[:2])
        np.add(floats[:2, ..., 0::2], floats[:2, ..., 1::2], out=rows[2:4])
        np.multiply(self.half_omega, density, out=density)
        np.multiply(0.5, pv, out=standard)
        np.add(standard, density, out=density)
        np.multiply(self.coef, pu, out=standard)
        np.add(density, standard, out=density)
        np.multiply(gradient_symbol(n), pu, out=standard)
        np.add(pv, standard, out=standard)

        table = np.empty((len(COLUMNS), j, b))
        s0 = reduce_power(density, 0)[..., 0]
        for m in sorted(set(self.ms)):
            slots = [i for i, order in enumerate(self.ms) if order == m]
            if len(slots) == b:
                slots = slice(None)  # one order for the batch: no gather
            reduced = reduce_power(rows[:, :, slots], m)
            table[0][:, slots] = s0[:, slots] + np.add.reduce(reduced[0, ..., 1:], axis=-1)
            table[1][:, slots] = 0.5 * reduced[1, ..., 0]
            table[2:5, :, slots] = np.sqrt(reduced[2:, ..., 0])
        np.divide(np.add.reduce(grids, axis=-1), float(n**3), out=table[5:7])
        table[7] = [entry[5] for entry in entries]
        return table.transpose(1, 2, 0)


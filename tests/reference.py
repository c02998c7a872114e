"""Slow reference computations the test suite checks the fast paths against.

Two kinds live here, and both should stay dumb.

* Computations that avoid the FFT and the spectral shortcuts on purpose:
  direct DFT sums, grid quadrature, finite differences.
* The full-complex spectral toolkit: normalized ``fftn`` spectra over all n^3
  wave vectors, derivatives by symbol multiplication, zero padding, weights
  on the full lattice, and the diagnostic row computed from them.  The
  package keeps every spectrum in the real-FFT half layout instead; this is
  the layout-free oracle its symbols, weights, norms and energies must
  reproduce.

``block_sample`` is no reference: it is the package's own diagnostic row of
one run at one sample time, which the oracles above are compared against.
``trajectory_from_rows`` builds the ``Trajectory`` a check reads from such rows.
"""

import dataclasses
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from toruswave.energy import COLUMNS, SampleBlock
from toruswave.fields import VOLUME, GridSpec
from toruswave.solver import Trajectory

TWO_PI = 2.0 * np.pi

# One row of ``Trajectory.table`` by name: t, then ``energy.COLUMNS``.
Sample = namedtuple("Sample", ("t", *COLUMNS))


def direct_dft(values):
    """Mode-by-mode DFT sum, O(n^6) work, no FFT involved."""
    n = values.shape[0]
    x = TWO_PI * np.arange(n) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    x1 = x[:, None, None]
    x2 = x[None, :, None]
    x3 = x[None, None, :]
    coeffs = np.zeros((n, n, n), dtype=np.complex128)
    for i1 in range(n):
        for i2 in range(n):
            for i3 in range(n):
                phase = np.exp(-1j * (k[i1] * x1 + k[i2] * x2 + k[i3] * x3))
                coeffs[i1, i2, i3] = np.sum(values * phase) / n**3
    return coeffs


def grid_integral(values):
    """Rectangle-rule integral over the box, exact for band-limited fields."""
    n = values.shape[0]
    return float(np.sum(values) * (TWO_PI / n) ** 3)


def central_difference(values, axis, spacing):
    """Fourth-order periodic central difference along one axis."""
    up1 = np.roll(values, -1, axis=axis)
    um1 = np.roll(values, 1, axis=axis)
    up2 = np.roll(values, -2, axis=axis)
    um2 = np.roll(values, 2, axis=axis)
    return (8.0 * (up1 - um1) - (up2 - um2)) / (12.0 * spacing)


def trapezoid_cumulative(t, y):
    """Cumulative trapezoid values of y over the grid t, starting at zero."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def white_noise(n, seed):
    """Unfiltered Gaussian samples: every mode is populated, Nyquist planes too."""
    return np.random.default_rng(seed).standard_normal((n, n, n))


# --- the full-complex spectral toolkit --------------------------------------


@dataclass
class Spectrum:
    """Normalized coefficients u_hat = fftn(u) / n^3 over the full n^3 lattice."""

    grid: GridSpec
    coeffs: np.ndarray


def transform(u):
    """The full spectrum of the grid array ``u``."""
    n = u.shape[0]
    return Spectrum(GridSpec(n), np.fft.fftn(u) / n**3)


def inverse_transform(spectrum):
    """Back to grid samples; the imaginary residue of a real field is dropped."""
    n = spectrum.grid.n
    return np.fft.ifftn(spectrum.coeffs * n**3).real


def wavenumbers(n):
    k = np.fft.fftfreq(n, d=1.0 / n)
    return k[:, None, None], k[None, :, None], k[None, None, :]


def spectral_derivative(spectrum, alpha):
    """d^alpha by symbol multiplication.  An odd order zeroes the Nyquist plane
    of its axis: the mode -n/2 has no +n/2 partner on an even grid."""
    if len(alpha) != 3 or any(a < 0 or a != int(a) for a in alpha):
        raise ValueError(f"multi-index must be three nonnegative integers, got {alpha!r}")
    n = spectrum.grid.n
    coeffs = spectrum.coeffs.copy()
    for axis, (a, k) in enumerate(zip(alpha, wavenumbers(n))):
        if a == 0:
            continue
        coeffs *= (1j * k) ** int(a)
        if a % 2 == 1:
            index = [slice(None)] * 3
            index[axis] = n // 2
            coeffs[tuple(index)] = 0.0
    return Spectrum(spectrum.grid, coeffs)


def multi_indices(max_order):
    """All multi-indices (a1, a2, a3) with a1 + a2 + a3 <= max_order."""
    return [
        (a1, a2, total - a1 - a2)
        for total in range(max_order + 1)
        for a1 in range(total + 1)
        for a2 in range(total - a1 + 1)
    ]


@lru_cache(maxsize=None)
def full_weight(n, m, lowest=0, zero_nyquist=False):
    """sum_{lowest <= |a| <= m} prod_i k_i^(2 a_i) on the full lattice,
    optionally zeroing the Nyquist plane of axis i for odd a_i."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    keep = np.where(np.arange(n) == n // 2, 0.0, 1.0) if zero_nyquist else 1.0
    factors = [k ** (2 * a) * (keep if a % 2 else 1.0) for a in range(m + 1)]
    weight = np.zeros((n, n, n))
    for alpha in multi_indices(m):
        if sum(alpha) >= lowest:
            weight += np.einsum("i,j,k->ijk", *(factors[a] for a in alpha))
    weight.flags.writeable = False  # cached and shared by every caller
    return weight


def full_sobolev_weight(n, m):
    return full_weight(n, m)


def full_derivative_weight(n, m, lowest=0):
    """The squared symbols of ``spectral_derivative`` summed over lowest <= |a| <= m."""
    return full_weight(n, m, lowest, zero_nyquist=True)


def full_laplacian_symbol(n):
    return full_weight(n, 1, 1)


def full_dealias_mask(n):
    keep = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n // 3
    return keep[:, None, None] & keep[None, :, None] & keep[None, None, :]


def weighted_norm_sq(spectrum, weight):
    return float(VOLUME * np.sum(weight * np.abs(spectrum.coeffs) ** 2))


def half_sobolev_weight(n, m):
    """``full_sobolev_weight`` on the half layout k3 = 0 .. n/2, each plane
    times its multiplicity 1, 2, ..., 2, 1: a reduction weight."""
    multiplicity = np.full(n // 2 + 1, 2.0)
    multiplicity[[0, -1]] = 1.0
    return full_sobolev_weight(n, m)[..., : n // 2 + 1] * multiplicity


def sobolev_sum(power, m):
    """VOLUME n^-6 sum_k power(k) S_m(k) of one half-layout density, summed as
    the package once did for its verification norms: the weight times the
    density, then one ``np.add.reduce`` over every axis."""
    n = power.shape[-3]
    weighted = half_sobolev_weight(n, m) * power
    return VOLUME * float(n) ** -6 * float(np.add.reduce(weighted, axis=None))


def spectrum_norm(spectrum, m=0):
    """H^m norm of a full spectrum; m = 0 is the L2 norm."""
    return math.sqrt(weighted_norm_sq(spectrum, full_sobolev_weight(spectrum.grid.n, m)))


def derivative_block_norm(spectrum, order):
    """sqrt of the sum of ||d^a u||_{L2}^2 over all |a| = order."""
    weight = full_derivative_weight(spectrum.grid.n, order, lowest=order)
    return math.sqrt(weighted_norm_sq(spectrum, weight))


def pad_spectrum(spectrum, new_n):
    """Zero padding in wavenumber onto a finer grid.  The source Nyquist
    planes are not carried over."""
    n = spectrum.grid.n
    half = n // 2
    out = np.zeros((new_n, new_n, new_n), dtype=np.complex128)
    lo = new_n // 2 - half
    out[lo : lo + n, lo : lo + n, lo : lo + n] = np.fft.fftshift(spectrum.coeffs)
    for axis in range(3):  # the unpaired -n/2 planes of the source layout
        index = [slice(None)] * 3
        index[axis] = lo
        out[tuple(index)] = 0.0
    return Spectrum(GridSpec(new_n), np.fft.ifftshift(out))


def padded_product(u, v):
    """uv on the doubled grid, where no mode of it aliases: both factors
    zero padded by ``pad_spectrum``."""
    n = u.shape[0]
    u_fine, v_fine = (inverse_transform(pad_spectrum(transform(x), 2 * n)) for x in (u, v))
    return u_fine * v_fine


def sample_energies(t, u, ut, f, omega, m):
    """The diagnostic row of ``block_sample`` from full spectra; the means are
    the k = 0 coefficients u_hat(0) and F_hat(0)."""
    n = u.shape[0]
    s, d = full_sobolev_weight(n, m), full_derivative_weight(n, m)
    g = full_derivative_weight(n, 1, lowest=1)
    uc, vc, fc = (transform(x).coeffs for x in (u, ut, f))
    density = 0.5 * np.abs(vc) ** 2 + 0.5 * omega * (uc * np.conj(vc)).real
    density += (0.25 * omega**2 + 0.5 * g) * np.abs(uc) ** 2
    power = [np.abs(c) ** 2 for c in (uc, vc, fc)]
    return Sample(
        t=float(t),
        e_m_sq=float(VOLUME * np.sum(d * density)),
        e_std_sq=0.5 * (VOLUME * np.sum(s * power[1]) + VOLUME * np.sum(s * g * power[0])),
        u_hm=math.sqrt(VOLUME * np.sum(s * power[0])),
        ut_hm=math.sqrt(VOLUME * np.sum(s * power[1])),
        f_hm=math.sqrt(VOLUME * np.sum(s * power[2])),
        u_mean=float(uc[0, 0, 0].real),
        f_mean=float(fc[0, 0, 0].real),
        u_min=float(np.min(u)),
    )


def block_sample(t, u, u_hat, ut_hat, f_hat, omega, m):
    """The package's diagnostic row at one instant: an ``energy.SampleBlock`` of
    one run reducing one entry, from the grid array ``u`` (for its minimum) and
    the raw ``np.fft.rfftn`` coefficients of u, u_t and F."""
    block = SampleBlock(u.shape[0], [omega], m)
    entry = (u_hat[None], ut_hat[None], f_hat[None], [float(np.min(u))])
    return Sample(float(t), *block.reduce([entry])[0, 0].tolist())


def trajectory_from_rows(rows, like=None, **fields):
    """A ``Trajectory`` whose table holds ``rows`` (``Sample``s, or sequences of
    t and the ``COLUMNS``), read-only as the loop leaves it; its other fields are
    ``like``'s, if given, updated by ``fields``."""
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(Sample._fields))
    table.flags.writeable = False
    if like is not None:
        return dataclasses.replace(like, table=table, **fields)
    return Trajectory(table=table, **fields)


def random_band_limited(grid, seed, band, amplitude=1.0, zero_mean=False):
    """``fields.random_band_limited`` drawn through full spectra."""
    white = np.random.default_rng(seed).standard_normal(grid.shape)
    coeffs = np.fft.fftn(white) / grid.n**3
    k1, k2, k3 = wavenumbers(grid.n)
    mask = (np.abs(k1) <= band) & (np.abs(k2) <= band) & (np.abs(k3) <= band)
    coeffs = np.where(mask, coeffs, 0.0)
    if zero_mean:
        coeffs[0, 0, 0] = 0.0
    values = inverse_transform(Spectrum(grid, coeffs))
    return values * (amplitude / np.max(np.abs(values)))


def embedding_extremizer(grid, m):
    """The field with full-layout coefficients 1/S_m(k)."""
    return inverse_transform(Spectrum(grid, 1.0 / full_sobolev_weight(grid.n, m)))

"""Spectral fields on the flat 3-torus.

The domain is the periodic box [0, 2pi)^3 sampled on a uniform n^3 grid.
Fourier coefficients follow the convention

    u_hat(k) = (2pi)^-3 * integral u(x) exp(-i k.x) dx,

so Parseval reads integral |u|^2 dx = (2pi)^3 * sum_k |u_hat(k)|^2.  All
derivatives and norms are computed on the coefficient side, which makes them
exact for band-limited fields.

Every norm and energy is one reduction VOLUME * sum_k w(k) |u_hat(k)|^2 over a
weight cached per grid size and order, summed over multi-indices a.  The
Nyquist plane k_i = -n/2 has no +n/2 partner, and two conventions apply:

* ``sobolev_weight`` S_m keeps Nyquist planes at full weight.  It serves
  ``sobolev_norm`` (every recorded H^m norm, the embedding extremizer and
  the constants measured with it) and, times g, the standard energy.
* ``derivative_weight`` D_m is the symbol of ``spectral_derivative``, which
  zeroes the Nyquist plane of axis i for odd a_i.  Its |a| = 1 block is the
  gradient weight g = sum_i k_i^2 N_i.  It serves the modified energy (D_m,
  D_m g), the composition constants and the Wirtinger check.

They stay separate because moving S_m would move the embedding extremizer,
hence ``c_sobolev`` and every ``budget:``-scaled amplitude.  Both agree on
fields without Nyquist content.

The time loop keeps real fields as the half spectrum ``np.fft.rfftn`` returns,
last axis k3 = 0 .. n/2 only.  ``half_layout_weight`` turns any of the cached
weights into that layout: slice the last axis and count each k3 plane with its
Hermitian multiplicity 1, 2, ..., 2, 1, because c(-k) = conj c(k) makes every
plane strictly between 0 and n/2 stand for its mirror as well.

Classes
-------
GridSpec, Field, Spectrum, MeanSplit

Functions
---------
transform, inverse_transform, spectral_derivative, sobolev_norm, sup_norm,
mean_decompose, multi_indices, sobolev_weight, derivative_weight,
half_layout_weight, weighted_norm_sq, pad_spectrum, random_band_limited
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.typing as npt

TWO_PI = 2.0 * np.pi
VOLUME = TWO_PI**3


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid with ``n`` points per axis on [0, 2pi)^3.

    ``n`` must be even (so the wavenumber set is symmetric apart from the
    Nyquist plane) and at least 4.
    """

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int):
            raise TypeError(f"grid size must be an int, got {type(self.n).__name__}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {self.n}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n

    def axis(self) -> npt.NDArray[np.float64]:
        """Grid coordinates along one axis."""
        return self.spacing * np.arange(self.n)

    def coordinates(self) -> tuple[npt.NDArray[np.float64], ...]:
        """Broadcastable (x1, x2, x3) coordinate arrays."""
        x = self.axis()
        return x[:, None, None], x[None, :, None], x[None, None, :]


def _first_bad_index(values: npt.NDArray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])


@dataclass
class Field:
    """Real scalar field sampled on a :class:`GridSpec`."""

    grid: GridSpec
    values: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError(
                f"field has a non-finite value at grid index {_first_bad_index(values)}"
            )
        self.values = values

    def mean(self) -> float:
        """Normalized mean (2pi)^-3 * integral u dx, i.e. the grid average."""
        return float(np.mean(self.values))


@dataclass
class Spectrum:
    """Fourier coefficients of a real field, in FFT index layout."""

    grid: GridSpec
    coeffs: npt.NDArray[np.complex128]

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != self.grid.shape:
            raise ValueError(
                f"coeffs shape {coeffs.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.isfinite(coeffs).all():
            raise ValueError(
                f"spectrum has a non-finite coefficient at index {_first_bad_index(coeffs)}"
            )
        self.coeffs = coeffs


@dataclass
class MeanSplit:
    """Decomposition u = oscillatory + mean with a zero-mean oscillatory part."""

    mean: float
    oscillatory: Field


@lru_cache(maxsize=None)
def _wavenumbers(n: int) -> tuple[npt.NDArray[np.float64], ...]:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return k[:, None, None], k[None, :, None], k[None, None, :]


@lru_cache(maxsize=None)
def laplacian_symbol(n: int) -> npt.NDArray[np.float64]:
    """|k|^2 on the FFT-ordered wavenumber lattice: the |a| = 1 block of S_1."""
    return _symbol_weight(n, 1, 1, zero_nyquist=False)


def transform(field: Field) -> Spectrum:
    """Forward transform with the (2pi)^-3 integral normalization."""
    n = field.grid.n
    return Spectrum(field.grid, np.fft.fftn(field.values) / n**3)


def inverse_transform(spectrum: Spectrum) -> Field:
    """Inverse transform back to grid samples.

    The imaginary residue of the inverse FFT is discarded; for spectra that
    represent real fields it is at machine level.
    """
    n = spectrum.grid.n
    values = np.fft.ifftn(spectrum.coeffs * n**3)
    return Field(spectrum.grid, values.real)


def _validate_alpha(alpha: tuple[int, int, int]) -> tuple[int, int, int]:
    if len(alpha) != 3 or any(a < 0 or a != int(a) for a in alpha):
        raise ValueError(f"multi-index must be three nonnegative integers, got {alpha!r}")
    return tuple(int(a) for a in alpha)


def spectral_derivative(spectrum: Spectrum, alpha: tuple[int, int, int]) -> Spectrum:
    """Partial derivative d^alpha computed by symbol multiplication.

    For odd derivative orders the Nyquist plane of the corresponding axis is
    zeroed: the mode -n/2 has no +n/2 partner on an even grid, so keeping it
    would break the conjugate symmetry that real fields require.
    """
    a1, a2, a3 = _validate_alpha(alpha)
    n = spectrum.grid.n
    k1, k2, k3 = _wavenumbers(n)
    coeffs = spectrum.coeffs.copy()
    for axis, (a, k) in enumerate(zip((a1, a2, a3), (k1, k2, k3))):
        if a == 0:
            continue
        coeffs *= (1j * k) ** a
        if a % 2 == 1:
            index = [slice(None)] * 3
            index[axis] = n // 2
            coeffs[tuple(index)] = 0.0
    return Spectrum(spectrum.grid, coeffs)


@lru_cache(maxsize=None)
def multi_indices(max_order: int) -> tuple[tuple[int, int, int], ...]:
    """All multi-indices (a1, a2, a3) with a1 + a2 + a3 <= max_order."""
    if max_order < 0:
        raise ValueError(f"derivative order must be >= 0, got {max_order}")
    out = []
    for total in range(max_order + 1):
        for a1 in range(total + 1):
            for a2 in range(total - a1 + 1):
                out.append((a1, a2, total - a1 - a2))
    return tuple(out)


def _symbol_weight(n: int, m: int, lowest: int, zero_nyquist: bool) -> npt.NDArray[np.float64]:
    """sum_{lowest <= |a| <= m} prod_i k_i^(2 a_i), optionally zeroing the Nyquist
    plane of axis i for odd a_i.  Entries are exact integers below 2^53."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    keep = np.where(np.arange(n) == n // 2, 0.0, 1.0) if zero_nyquist else 1.0
    factors = [k ** (2 * a) * (keep if a % 2 else 1.0) for a in range(m + 1)]
    weight = np.zeros((n, n, n))
    for alpha in multi_indices(m):
        if sum(alpha) >= lowest:
            weight += np.einsum("i,j,k->ijk", *(factors[a] for a in alpha))
    weight.flags.writeable = False  # cached and shared by every caller
    return weight


@lru_cache(maxsize=None)
def sobolev_weight(n: int, m: int) -> npt.NDArray[np.float64]:
    """S_m(k) = sum_{|a| <= m} k1^2a1 k2^2a2 k3^2a3; S_0 = 1 gives the L2 norm."""
    if m < 0:
        raise ValueError(f"Sobolev order must be >= 0, got {m}")
    return _symbol_weight(n, m, 0, zero_nyquist=False)


@lru_cache(maxsize=None)
def derivative_weight(n: int, m: int, lowest: int = 0) -> npt.NDArray[np.float64]:
    """sum_{lowest <= |a| <= m} |sigma_a(k)|^2 for the symbol sigma_a that
    ``spectral_derivative`` applies, so that ``weighted_norm_sq`` with it is
    exactly the sum of ||d^a u||_{L2}^2 over those multi-indices."""
    return _symbol_weight(n, m, lowest, zero_nyquist=True)


def half_layout_weight(weight: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """A full-layout weight w in the rfftn half layout, Hermitian multiplicity included.

    For a real field and any weight even under k -> -k (every weight here),
    sum w |c|^2 over the full spectrum equals the sum of this weight times
    |c|^2 over the half spectrum.  The plane at index n/2 is k3 = -n/2 in the
    full layout and +n/2 in the half one; an even weight has the same value
    on both.
    """
    n = weight.shape[-1]
    multiplicity = np.full(n // 2 + 1, 2.0)
    multiplicity[[0, -1]] = 1.0
    return weight[..., : n // 2 + 1] * multiplicity


def weighted_norm_sq(spectrum: Spectrum, weight: npt.NDArray[np.float64]) -> float:
    """VOLUME * sum(weight * |c|^2), the squared norm a spectral weight defines."""
    return float(VOLUME * np.sum(weight * np.abs(spectrum.coeffs) ** 2))


def sobolev_norm(u: Field | Spectrum, m: int) -> float:
    """Discrete H^m norm, computed spectrally via Parseval."""
    spectrum = transform(u) if isinstance(u, Field) else u
    return float(np.sqrt(weighted_norm_sq(spectrum, sobolev_weight(spectrum.grid.n, m))))


def l2_norm(u: Field | Spectrum) -> float:
    return sobolev_norm(u, 0)


def sup_norm(field: Field) -> float:
    return float(np.max(np.abs(field.values)))


def mean_decompose(field: Field) -> MeanSplit:
    """Split off the normalized mean; the remainder has zero mean.

    With this normalization the L2 norms satisfy
    ||u||^2 = ||u_osc||^2 + (2pi)^3 * mean^2.
    """
    mean = field.mean()
    return MeanSplit(mean, Field(field.grid, field.values - mean))


def pad_spectrum(spectrum: Spectrum, new_n: int) -> Spectrum:
    """Embed a spectrum into a finer grid (zero padding in wavenumber).

    Used for alias-free products: two fields band-limited below n/2 multiply
    exactly on the 2n grid.  The source Nyquist planes are not carried over,
    so the input should not hold Nyquist content.
    """
    n = spectrum.grid.n
    if new_n < n:
        raise ValueError(f"padding target {new_n} is smaller than source grid {n}")
    if new_n == n:
        return Spectrum(spectrum.grid, spectrum.coeffs.copy())
    half = n // 2
    shifted = np.fft.fftshift(spectrum.coeffs)
    out = np.zeros((new_n, new_n, new_n), dtype=np.complex128)
    lo = new_n // 2 - half
    out[lo : lo + n, lo : lo + n, lo : lo + n] = shifted
    # Drop the unpaired -n/2 planes of the source layout.
    for axis in range(3):
        index = [slice(None)] * 3
        index[axis] = lo
        out[tuple(index)] = 0.0
    return Spectrum(GridSpec(new_n), np.fft.ifftshift(out))


def random_band_limited(
    grid: GridSpec,
    seed: int,
    band: int,
    amplitude: float = 1.0,
    zero_mean: bool = False,
) -> Field:
    """Seeded random field with wavenumbers confined to max_k |k_i| <= band.

    The field is scaled so its sup norm equals ``amplitude``.  ``band`` must
    stay below the Nyquist wavenumber n/2.
    """
    if not 1 <= band <= grid.n // 2 - 1:
        raise ValueError(f"band must lie in [1, {grid.n // 2 - 1}], got {band}")
    if amplitude <= 0.0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(grid.shape)
    coeffs = np.fft.fftn(white) / grid.n**3
    k1, k2, k3 = _wavenumbers(grid.n)
    mask = (np.abs(k1) <= band) & (np.abs(k2) <= band) & (np.abs(k3) <= band)
    coeffs = np.where(mask, coeffs, 0.0)
    if zero_mean:
        coeffs[0, 0, 0] = 0.0
    field = inverse_transform(Spectrum(grid, coeffs))
    peak = sup_norm(field)
    if peak == 0.0:
        raise ValueError("band-limited draw collapsed to zero, change the seed")
    return Field(grid, field.values * (amplitude / peak))

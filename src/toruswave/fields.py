"""Real fields on the flat 3-torus and the weights of their spectral norms.

The domain is the periodic box [0, 2pi)^3 sampled on a uniform n^3 grid.
Fourier coefficients follow the convention

    u_hat(k) = (2pi)^-3 * integral u(x) exp(-i k.x) dx,

so Parseval reads integral |u|^2 dx = (2pi)^3 * sum_k |u_hat(k)|^2.  All
derivatives and norms are computed on the coefficient side, which makes them
exact for band-limited fields.

The one coefficient layout is the raw half spectrum of ``np.fft.rfftn``:
shape (n, n, n/2 + 1), k3 = 0 .. n/2, n^3 times u_hat.  Since c(-k) =
conj c(k), each k3 plane strictly between 0 and n/2 stands for its mirror too.
Per-mode symbols (``laplacian_symbol`` |k|^2, ``gradient_symbol`` g) multiply
coefficients; reduction weights carry the plane multiplicity 1, 2, ..., 2, 1,
so that ``norm_sq`` = VOLUME n^-6 sum w |c|^2 sums over the full spectrum.
Each is built once per grid size and order and cached read-only.

The Nyquist plane k_i = -n/2 has no +n/2 partner, and two weights differ there:

* ``sobolev_weight`` S_m keeps Nyquist planes at full weight.  It serves
  ``sobolev_norm`` (every recorded H^m norm, the embedding extremizer and
  the constants measured with it) and, times g, the standard energy.
* ``derivative_weight`` D_m zeroes the Nyquist plane of axis i for odd a_i,
  the symbol of an odd-order spectral derivative; its |a| = 1 block is g.  It
  serves the modified energy (D_m, D_m g), the composition constants and the
  Wirtinger check.

They stay separate because moving S_m would move the embedding extremizer,
hence ``c_sobolev`` and every ``budget:``-scaled amplitude.  Both agree on
fields without Nyquist content.
"""

from __future__ import annotations

import math
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
class MeanSplit:
    """Decomposition u = oscillatory + mean with a zero-mean oscillatory part."""

    mean: float
    oscillatory: Field


def _symbol_weight(
    n: int, m: int, lowest: int = 0, zero_nyquist: bool = False, hermitian: bool = False
) -> npt.NDArray[np.float64]:
    """sum_{lowest <= |a| <= m} prod_i k_i^(2 a_i) on the (n, n, n/2 + 1) half layout.

    ``zero_nyquist`` zeroes the Nyquist plane of axis i for odd a_i.
    ``hermitian`` multiplies every k3 plane by its multiplicity 1, 2, ..., 2, 1,
    which turns a per-mode symbol into a reduction weight.  Entries are exact
    integers below 2^53, so no summation order changes a bit.
    """
    if m < 0:
        raise ValueError(f"Sobolev or derivative order must be >= 0, got {m}")
    k = np.fft.fftfreq(n, d=1.0 / n)
    k3 = np.fft.rfftfreq(n, d=1.0 / n)

    def powers(k: npt.NDArray[np.float64]) -> list[npt.NDArray[np.float64]]:
        keep = np.where(np.abs(k) == n // 2, 0.0, 1.0) if zero_nyquist else 1.0
        return [k ** (2 * a) * (keep if a % 2 else 1.0) for a in range(m + 1)]

    multiplicity = np.where((k3 == 0) | (k3 == n // 2), 1.0, 2.0) if hermitian else 1.0
    p, p3 = powers(k), [f * multiplicity for f in powers(k3)]
    weight = np.zeros((n, n, n // 2 + 1))
    for order in range(lowest, m + 1):  # every multi-index a with |a| = order
        for a1 in range(order + 1):
            for a2 in range(order - a1 + 1):
                weight += np.einsum("i,j,k->ijk", p[a1], p[a2], p3[order - a1 - a2])
    weight.flags.writeable = False  # cached and shared by every caller
    return weight


@lru_cache(maxsize=None)
def laplacian_symbol(n: int) -> npt.NDArray[np.float64]:
    """|k|^2 per mode, Nyquist planes included: the propagator's symbol."""
    return _symbol_weight(n, 1, lowest=1)


@lru_cache(maxsize=None)
def gradient_symbol(n: int) -> npt.NDArray[np.float64]:
    """g = sum_i k_i^2 per mode with axis i's Nyquist plane zeroed: |grad u|^2 in E_m."""
    return _symbol_weight(n, 1, lowest=1, zero_nyquist=True)


@lru_cache(maxsize=None)
def sobolev_weight(n: int, m: int) -> npt.NDArray[np.float64]:
    """S_m(k) = sum_{|a| <= m} k1^2a1 k2^2a2 k3^2a3 as a reduction weight; S_0 gives L2."""
    return _symbol_weight(n, m, hermitian=True)


@lru_cache(maxsize=None)
def derivative_weight(n: int, m: int, lowest: int = 0) -> npt.NDArray[np.float64]:
    """D_m, the sum over lowest <= |a| <= m of the squared symbol of d^a, as a
    reduction weight: ``norm_sq`` with it is the sum of ||d^a u||_{L2}^2."""
    return _symbol_weight(n, m, lowest, zero_nyquist=True, hermitian=True)


def norm_sq(raw: npt.NDArray[np.complex128], weight: npt.NDArray[np.float64]) -> float:
    """VOLUME n^-6 sum(weight |raw|^2): the squared norm a reduction weight
    defines, for the raw ``np.fft.rfftn`` coefficients of a field on an n^3 grid."""
    return float(VOLUME * float(raw.shape[0]) ** -6 * np.sum(weight * np.abs(raw) ** 2))


def sobolev_norm(u: Field, m: int) -> float:
    """Discrete H^m norm, computed spectrally via Parseval."""
    return math.sqrt(norm_sq(np.fft.rfftn(u.values), sobolev_weight(u.grid.n, m)))


def l2_norm(u: Field) -> float:
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
    coeffs = np.fft.rfftn(rng.standard_normal(grid.shape))
    keep = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n)) <= band
    keep3 = np.fft.rfftfreq(grid.n, d=1.0 / grid.n) <= band
    coeffs = np.where(keep[:, None, None] & keep[None, :, None] & keep3, coeffs, 0.0)
    if zero_mean:
        coeffs[0, 0, 0] = 0.0
    values = np.fft.irfftn(coeffs, s=grid.shape, axes=(0, 1, 2))
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        raise ValueError("band-limited draw collapsed to zero, change the seed")
    return Field(grid, values * (amplitude / peak))

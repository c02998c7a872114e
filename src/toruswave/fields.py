"""Real fields on the flat 3-torus and the one weight matrix of their norms.

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
coefficients.

Every norm and energy goes through one reduction, ``reduce_power``: a real
per-mode density (|c|^2, or the energy density) times ``norm_weights(n, m)``,
the cached (n * n * (n/2 + 1), m + 1) matrix [S_m | D_1 ... D_m], times
VOLUME n^-6.  The columns carry the plane multiplicity 1, 2, ..., 2, 1,
so the product sums over the full spectrum; a stack of densities reduces
density by density, so a norm has the same bits whichever stack it is in.

* Column 0, S_m(k) = sum_{|a| <= m} k^2a, keeps the Nyquist planes k_i = -n/2
  at full weight.  It gives ``sobolev_norm`` (every recorded H^m norm, the
  embedding extremizer and the constants measured with it) and, applied to
  |v|^2 + g |u|^2, the standard energy.  ``sobolev_weight`` is a view of it.
* Column k >= 1, the block D_k, sums the squared symbols of d^a over |a| = k;
  the Nyquist plane of axis i has no +n/2 partner and is zeroed for odd a_i,
  as an odd-order spectral derivative zeroes it.  D_1 is the Wirtinger
  gradient; the blocks give the composition constants.  The modified energy
  E_m^2 is the D_0 = S_0 term (column 0 of the m = 0 matrix) plus the blocks,
  applied to its density.

The conventions stay apart because moving S_m would move the embedding
extremizer, hence ``c_sobolev`` and every ``budget:``-scaled amplitude; both
agree on fields without Nyquist content.
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
def norm_weights(n: int, m: int) -> npt.NDArray[np.float64]:
    """The (n * n * (n/2 + 1), m + 1) reduction weights [S_m | D_1 ... D_m]:
    S_m with Nyquist planes at full weight, then the blocks D_k over |a| = k
    with odd-order Nyquist planes zeroed.  The only cached reduction weight."""
    matrix = np.empty((n * n * (n // 2 + 1), m + 1))
    matrix[:, 0] = _symbol_weight(n, m, hermitian=True).ravel()  # raises first if m < 0
    for k in range(1, m + 1):
        matrix[:, k] = _symbol_weight(n, k, lowest=k, zero_nyquist=True, hermitian=True).ravel()
    matrix.flags.writeable = False  # cached and shared by every caller
    return matrix


def sobolev_weight(n: int, m: int) -> npt.NDArray[np.float64]:
    """S_m(k) = sum_{|a| <= m} k1^2a1 k2^2a2 k3^2a3 on the half layout, a read-only
    view of column 0 of ``norm_weights``; S_0 gives L2."""
    return norm_weights(n, m)[:, 0].reshape(n, n, n // 2 + 1)


def spectral_power(raw: npt.NDArray[np.complex128]) -> npt.NDArray[np.float64]:
    """|c|^2 per mode."""
    return np.square(raw.real) + np.square(raw.imag)


def reduce_power(power: npt.NDArray[np.float64], m: int) -> npt.NDArray[np.float64]:
    """VOLUME n^-6 (power @ ``norm_weights(n, m)``) for a per-mode density on the
    half layout, or a stack of them: [S_m, D_1, ..., D_m] norms squared.

    Each density is its own vector-matrix product, so its result does not
    depend on what else is in the stack.
    """
    n = power.shape[-3]
    rows = power.reshape(power.shape[:-3] + (1, -1))
    return VOLUME * float(n) ** -6 * (rows @ norm_weights(n, m))[..., 0, :]


def hm_norms(raw: npt.NDArray[np.complex128], m: int) -> list[float]:
    """[||u||_{H^m}, ||D_1 u||, ..., ||D_m u||] of the field whose raw
    ``np.fft.rfftn`` is ``raw``; ||D_k u||^2 is the sum of ||d^a u||^2 over |a| = k."""
    return np.sqrt(reduce_power(spectral_power(raw), m)).tolist()


def sobolev_norm(u: Field, m: int) -> float:
    """Discrete H^m norm, computed spectrally via Parseval."""
    return hm_norms(np.fft.rfftn(u.values), m)[0]


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

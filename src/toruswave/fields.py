"""Real fields as grid arrays on the 3-torus, and the one weighted sum of their norms.

The domain is the periodic box [0, 2pi)^3 sampled on a uniform n^3 grid; a
real field is its float array of samples, shape (n, n, n).
Fourier coefficients follow the convention

    u_hat(k) = (2pi)^-3 * integral u(x) exp(-i k.x) dx,

so Parseval reads integral |u|^2 dx = (2pi)^3 * sum_k |u_hat(k)|^2.  All
derivatives and norms are computed on the coefficient side, which makes them
exact for band-limited fields.

The one coefficient layout is the raw half spectrum of ``np.fft.rfftn``:
shape (n, n, n/2 + 1), k3 = 0 .. n/2, n^3 times u_hat.  Since c(-k) =
conj c(k), each k3 plane strictly between 0 and n/2 stands for its mirror too.
The mean is c(0) / n^3, so the oscillatory part u - mean is the same half
spectrum with c(0) set to zero, and Parseval splits ||u||^2 into
||u - mean||^2 + (2pi)^3 mean^2 with no grid subtraction.
Per-mode symbols (``laplacian_symbol`` |k|^2, ``gradient_symbol`` g) multiply
coefficients.

Every norm and energy is one weighted sum, ``weighted_sums``: VOLUME n^-6
times ``np.add.reduce`` of a real per-mode density (|c|^2, or the energy
density) times a weight row, along the flattened half layout.  The rows
carry the plane multiplicity 1, 2, ..., 2, 1, so each sum runs over the full
spectrum; ``np.add.reduce`` sums pairwise in an order fixed by the layout,
so a density has the same bits whichever stack it is in, and no BLAS runs.
``norm_weights(n, m)`` caches the rows [S_m, D_1, ..., D_m] of one grid and
order, and each caller passes only the rows it reads; the two
verification sums on the doubled grid and of order m + 1 pass an S_m row
built for the call and dropped, so no (2n)^3 weight is cached for one number.

* Row S_m(k) = sum_{|a| <= m} k^2a keeps the Nyquist planes k_i = -n/2
  at full weight.  It gives the H^m norm ``hm_norms(raw, m, np.s_[:1])`` (every
  recorded H^m norm, the source amplitude, the embedding extremizer and the
  constants measured with it) and, applied to |v|^2 + g |u|^2, the standard
  energy.
* Row D_k, k >= 1, sums the squared symbols of d^a over |a| = k;
  the Nyquist plane of axis i has no +n/2 partner and is zeroed for odd a_i,
  as an odd-order spectral derivative zeroes it.  D_1 is the Wirtinger
  gradient; the blocks give the composition constants.  The modified energy
  E_m^2 is the sum of its density against D_1, ..., D_m and D_0 = S_0.

The conventions stay apart because moving S_m would move the embedding
extremizer, hence ``c_sobolev`` and every ``budget:``-scaled amplitude; both
agree on fields without Nyquist content.

``refine`` is the package's one alias-free product: a product uv is the
pointwise product of the refined samples of u and v, and on the doubled grid
no mode of it aliases.  Calibration measures the algebra constant as the
H^m norm of such a product, and the final-state check squares its refined
samples in place.

The doubled-grid transforms run in place, so a (2n)^3 pass holds one complex
array, not numpy's fresh one per axis.  ``rfftn`` is ``np.fft.rfftn``'s
``rfft`` over the last axis followed by its two ``fft`` passes with ``out=``
the same array; ``refine`` runs ``np.fft.irfftn``'s two ``ifft`` passes with
``out=`` its own zero-padded buffer, then the ``irfft``; ``spectral_power``
adds |Im c|^2 into |Re c|^2.  The 1-D calls and their order are numpy's, so
every value is bit for bit the same.
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
    """The (m + 1, n, n, n/2 + 1) reduction weights [S_m, D_1, ..., D_m]: S_m
    with Nyquist planes at full weight, then the blocks D_k over |a| = k with
    odd-order Nyquist planes zeroed, each row contiguous.  The only cached
    reduction weight; E_m's D_0 = S_0 is the one row of ``norm_weights(n, 0)``."""
    s_m = _symbol_weight(n, m, hermitian=True)  # raises first if m < 0
    weights = np.empty((m + 1, *s_m.shape))
    weights[0] = s_m
    for k in range(1, m + 1):
        weights[k] = _symbol_weight(n, k, lowest=k, zero_nyquist=True, hermitian=True)
    weights.flags.writeable = False  # cached and shared by every caller
    return weights


def spectral_power(raw: npt.NDArray[np.complex128]) -> npt.NDArray[np.float64]:
    """|c|^2 per mode: the squared imaginary part is added in place."""
    power = np.square(raw.real)
    power += np.square(raw.imag)
    return power


def weighted_sums(
    density: npt.NDArray[np.float64], rows, scratch: npt.NDArray[np.float64] | None = None
) -> npt.NDArray[np.float64]:
    """VOLUME n^-6 sum_k density(k) w(k), shape (..., r), for a per-mode
    density on the (n, n, n/2 + 1) half layout, or a stack of them, and each
    of the r weight rows w in ``rows``, each on that layout.

    Each row's products are written into ``scratch``, a float buffer of at
    least the stack's size (``density`` itself, for one row), or a fresh array,
    and summed by ``np.add.reduce`` along the flattened layout, density by
    density.
    """
    n = density.shape[-3]
    flat = density.reshape(density.shape[:-3] + (-1,))
    products = np.empty_like(flat) if scratch is None else scratch.reshape(-1)[: flat.size]
    products = products.reshape(flat.shape)
    sums = np.empty(flat.shape[:-1] + (len(rows),))
    for i, row in enumerate(rows):
        sums[..., i] = np.add.reduce(np.multiply(flat, row.reshape(-1), out=products), axis=-1)
    return VOLUME * float(n) ** -6 * sums


def hm_norms(raw: npt.NDArray[np.complex128], m: int, rows: slice = slice(None)) -> list[float]:
    """The ``rows`` of [||u||_{H^m}, ||D_1 u||, ..., ||D_m u||] (default all) of
    the field whose raw ``np.fft.rfftn`` is ``raw``; ||D_k u||^2 is the sum of
    ||d^a u||^2 over |a| = k.  Each row is summed alone, so a norm has the
    same bits whichever rows are asked for."""
    return np.sqrt(weighted_sums(spectral_power(raw), norm_weights(len(raw), m)[rows])).tolist()


def refine(raw: npt.NDArray[np.complex128], n: int) -> npt.NDArray[np.float64]:
    """Samples on the 2n grid of the field whose raw ``np.fft.rfftn`` is ``raw``.

    Zero padding in the half layout: the coefficients with |k_i| < n/2 move to
    the (2n, 2n, n + 1) layout of the fine grid, the unpaired Nyquist index
    n/2 is dropped on every axis, since it has no +n/2 partner, and the
    factor 8 = (2n)^3 / n^3 carries the raw normalization to the finer grid.
    """
    half = n // 2
    keep = np.r_[0:half, half + 1 : n]  # coarse indices with |k| < n/2
    dest = np.r_[0:half, n + half + 1 : 2 * n]  # the same wavenumbers on the 2n grid
    fine = np.zeros((2 * n, 2 * n, n + 1), dtype=np.complex128)
    fine[dest[:, None], dest, :half] = 8.0 * raw[keep[:, None], keep, :half]
    # np.fft.irfftn's calls in its order, the two complex passes in place
    for axis in (0, 1):
        np.fft.ifft(fine, axis=axis, out=fine)
    return np.fft.irfft(fine, 2 * n, axis=2)


def rfftn(values: npt.NDArray[np.float64]) -> npt.NDArray[np.complex128]:
    """``np.fft.rfftn(values)`` of a cube of samples, bit for bit, in one
    complex array: numpy's ``rfft`` over axis 2, then its ``fft`` over axes 1
    and 0 in place."""
    raw = np.fft.rfft(values)
    for axis in (1, 0):
        np.fft.fft(raw, axis=axis, out=raw)
    return raw


def random_band_limited(
    grid: GridSpec,
    seed: int,
    band: int,
    amplitude: float = 1.0,
    zero_mean: bool = False,
) -> npt.NDArray[np.float64]:
    """Grid samples of a seeded random field with wavenumbers confined to max_k |k_i| <= band.

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
    return values * (amplitude / peak)

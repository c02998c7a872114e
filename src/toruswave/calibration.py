"""Measured inequality constants, frozen to a small key = value file.

The discrete embedding sup|u| <= C ||u||_{H^m}, the product bound
||uv||_{H^m} <= C ||u||_{H^m} ||v||_{H^m}, and the per-order composition
bounds behind the fractional-power estimate all hold on a fixed grid with
constants nobody should guess.  This module measures them: take the worst
ratio over a family of probe fields, inflate by a safety margin, and write
the result next to the grid size that produced it.  Anything downstream
refuses constants calibrated on a different grid.

The family is five deterministic probes: four blends 1 + b cos(x1) of a
constant with one slow mode (b = 0 is the constant itself), and the
aligned-phase embedding extremizer.  They set every constant.  ``n_fields``
seeded random band-limited members, measured before the probes, are opt-in;
the tests require that 36 of them move no constant for m <= 6.

``calibrate`` walks the family once, one member at a time as
``_field_family`` yields it: each member is transformed and refined to the
doubled grid once (``fields.refine``, or its line form), and every composed
field (1 + a u)^mu costs one forward transform.  The extremizer and the random
members are real FFTs of the cube in the raw ``np.fft.rfftn`` half layout,
made in place by ``fields.rfftn`` and ``fields.refine``.
A blend depends on x1 alone, so its spectrum is zero off the
(k2, k3) = (0, 0) line: it goes through ``_line_rfftn`` and
``_line_irfftn``, the 1-D calls ``rfftn``/``irfftn`` make restricted to that
line, O(n^2 log n) work each in place of O(n^3 log n), with bit for bit the
same values.  Products of two blends and their compositions stay on the
line; a product with a cube member broadcasts the line.  Every norm is a
``fields.weighted_sums`` of |c|^2 against the rows of ``fields.norm_weights``
it reads: a member's ||.||_{H^m} and blocks D_1 .. D_m on its grid, a
product's S_m and a composed field's blocks on the doubled grid, whose
weights calibration caches.  A line's n entries are summed against the
weights' (k2, k3) = (0, 0) line.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.typing as npt

from .estimates import composition_envelope
from .fields import (
    GridSpec,
    _symbol_weight,
    hm_norms,
    norm_weights,
    random_band_limited,
    refine,
    rfftn,
    spectral_power,
    weighted_sums,
)

SAFETY_MARGIN = 1.5
FILE_FORMAT = "toruswave-constants-1"

# Composition constants are measured against (1 + u)^mu for these exponents;
# the mix covers mu < 0, 0 < mu < 1, and a non-integer mu > 1.
_CALIBRATION_EXPONENTS = (0.5, -0.5, 1.0 / 3.0, 1.25)
_CALIBRATION_AMPLITUDES = (0.25, 0.5)
# Blends 1 + b cos(x1) of the constant with one slow mode.
_PROBE_BLENDS = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class CalibratedConstants:
    grid_n: int
    m: int
    seed: int
    n_fields: int
    safety: float
    c_sobolev: float
    c_algebra: float
    c_moser: dict[int, float]

    def require_grid(self, grid: GridSpec, m: int) -> None:
        if grid.n != self.grid_n or m > self.m:
            raise ValueError(
                f"constants were calibrated for n = {self.grid_n}, m <= {self.m}; "
                f"refusing a run at n = {grid.n}, m = {m}"
            )


def _embedding_extremizer(grid: GridSpec, m: int) -> npt.NDArray[np.float64]:
    """Grid samples of the field with coefficients 1/S_m(k); Cauchy-Schwarz is
    an equality for it at x = 0, so its ratio IS the discrete embedding constant."""
    raw = grid.n**3 / _symbol_weight(grid.n, m)
    return np.fft.irfftn(raw, s=grid.shape, axes=(0, 1, 2))


def _field_family(
    grid: GridSpec, m: int, seed: int, n_fields: int
) -> Iterator[npt.NDArray[np.float64]]:
    """Grid samples of the family, unit sup norm, one at a time: ``n_fields``
    random band-limited fields across the available bands, then the probes of
    the near-constant corner.

    A random band family never produces the fields that maximize the product
    and embedding ratios: constants (product ratio (2 pi)^{-3/2}), blends of a
    constant with one slow mode (the product extremizer direction), and the
    aligned-phase embedding extremizer.  Those go in explicitly.

    The probes of x1 alone are read-only broadcasts, so their strides say by
    construction which axes they vary along: (s, 0, 0) for a blend of its x1
    profile, (0, 0, 0) for the constant, a broadcast of one number.
    """
    top = grid.n // 2 - 1  # highest band below Nyquist; 1 on the smallest grid, n = 4
    bands = [b for b in (1, 2, grid.n // 6, grid.n // 4, grid.n // 3, top) if 1 <= b <= top]
    for i in range(n_fields):
        yield random_band_limited(grid, seed=seed + 7919 * i, band=bands[i % len(bands)])
    yield np.broadcast_to(1.0, grid.shape)
    x1, _, _ = grid.coordinates()
    for blend in _PROBE_BLENDS:
        profile = 1.0 + blend * np.cos(x1)
        # same unit-sup normalization as the random family; ratios are invariant
        yield np.broadcast_to(profile / np.max(np.abs(profile)), grid.shape)
    extremizer = _embedding_extremizer(grid, m)
    yield extremizer / np.max(np.abs(extremizer))


def _line_rfftn(values: npt.NDArray[np.float64]) -> npt.NDArray[np.complex128]:
    """The (k2, k3) = (0, 0) line of ``np.fft.rfftn`` of the N-cube whose samples
    depend on x1 alone, given as ``values`` of shape (N, 1, 1), bit for bit.

    These are the 1-D calls ``rfftn`` makes, in its order, restricted to the
    line: ``rfft`` over x3 of the constant rows, ``fft`` over x2 of the
    constant rows of their k3 = 0 entries, ``fft`` over x1.
    """
    n = len(values)
    rows = np.fft.rfft(np.broadcast_to(values[:, :, 0], (n, n)))[:, :1]
    return np.fft.fft(np.fft.fft(np.broadcast_to(rows, (n, n)))[:, 0])


def _line_irfftn(line: npt.NDArray[np.complex128]) -> npt.NDArray[np.float64]:
    """Samples, shape (N, 1, 1), of ``np.fft.irfftn`` on the N-cube of the half
    spectrum whose only non-zero entries are the (k2, k3) = (0, 0) line
    ``line``, bit for bit: ``ifft`` over x1, ``ifft`` over x2 of the rows with
    one non-zero entry, ``irfft`` over x3; every output row is constant."""
    n = len(line)
    rows = np.zeros((n, n), dtype=np.complex128)
    rows[:, 0] = np.fft.ifft(line)
    rows[:, 0] = np.fft.ifft(rows)[:, 0]
    return np.fft.irfft(rows[:, : n // 2 + 1], n)[:, :1, None]


def _rfftn(values: npt.NDArray[np.float64]) -> npt.NDArray[np.complex128]:
    """The raw spectrum of samples on the N-cube: the half spectrum, or the
    (k2, k3) = (0, 0) line of a field of x1 alone, shape (N, 1, 1)."""
    return _line_rfftn(values) if values.shape[1] == 1 else rfftn(values)


def _refine(raw: npt.NDArray[np.complex128], n: int) -> npt.NDArray[np.float64]:
    """``fields.refine`` of an ``_rfftn`` spectrum; a line's zero padding
    follows the line and gives samples of shape (2n, 1, 1)."""
    if raw.ndim == 3:
        return refine(raw, n)
    half = n // 2
    fine = np.zeros(2 * n, dtype=np.complex128)  # unpaired Nyquist index dropped
    fine[:half] = 8.0 * raw[:half]
    fine[n + half + 1 :] = 8.0 * raw[half + 1 :]
    return _line_irfftn(fine)


def _norms(raw: npt.NDArray[np.complex128], m: int, rows: slice) -> list[float]:
    """``fields.hm_norms`` of an ``_rfftn`` spectrum; a line's |c|^2 is summed
    against the rows' (k2, k3) = (0, 0) line."""
    if raw.ndim == 3:
        return hm_norms(raw, m, rows)
    weights = norm_weights(len(raw), m)[rows, :, 0, 0]
    return np.sqrt(weighted_sums(spectral_power(raw)[:, None, None], weights)).tolist()


def _product_ratio(u, v, m: int) -> float:
    """||uv||_{H^m} / (||u||_{H^m} ||v||_{H^m}) for two (refined samples, H^m norm) pairs."""
    return _norms(_rfftn(u[0] * v[0]), m, np.s_[:1])[0] / (u[1] * v[1])  # S_m


def _composition_ratios(
    refined: npt.NDArray[np.float64], peak: float, base_blocks: list[float], m: int
) -> Iterator[tuple[int, float]]:
    """(k, ratio) of ||D_k (1 + a u)^mu|| to its Moser envelope for every
    calibration amplitude a and exponent mu, u the member refined to ``refined``."""
    # refinement is linear and the amplitudes are powers of two, so
    # amplitude * refined is exactly the refinement of amplitude * base
    for amplitude in _CALIBRATION_AMPLITUDES:
        ceiling = amplitude * peak
        shifted = 1.0 + amplitude * refined
        for mu in _CALIBRATION_EXPONENTS:
            blocks = _norms(_rfftn(shifted**mu), m, np.s_[1:])  # D_1 .. D_m
            for k, (block, base_block) in enumerate(zip(blocks, base_blocks), start=1):
                denominator = composition_envelope(k, mu, ceiling) * amplitude * base_block
                yield k, block / denominator


def _measure(
    grid: GridSpec, m: int, seed: int, n_fields: int
) -> tuple[float, float, dict[int, float]]:
    """The ratio maxima (c_sobolev, c_algebra, c_moser) over the family's members
    and its product pairs: each member with the one before it, and the closing
    pair (last, first).  At most three refined fields are alive at a time: the
    first member's, the previous one's and the current one's.

    The constant takes no composition ratio: it has no derivatives, and on a
    grid with a prime factor >= 5 its transforms leave roundoff in the blocks,
    so a ratio would divide roundoff by roundoff."""
    c_sobolev = c_algebra = 0.0
    c_moser = {k: 0.0 for k in range(1, m + 1)}
    first = previous = None  # (refined samples, H^m norm) of the first and the previous member
    for base in _field_family(grid, m, seed, n_fields):
        composes = any(base.strides)  # not the constant (see _field_family)
        if base.strides[1:] == (0, 0):  # a field of x1 alone: measure its line
            base = base[:, :1, :1]
        raw = _rfftn(base)
        norm, *base_blocks = _norms(raw, m, np.s_[:])  # S_m, D_1 .. D_m
        refined = _refine(raw, grid.n)
        current = (refined, norm)
        sup = float(np.max(np.abs(base)))
        c_sobolev = max(c_sobolev, sup / norm)
        if previous is None:
            first = current
        else:
            c_algebra = max(c_algebra, _product_ratio(previous, current, m))
        if composes:
            peak = max(sup, float(np.max(np.abs(refined))))
            for k, ratio in _composition_ratios(refined, peak, base_blocks, m):
                c_moser[k] = max(c_moser[k], ratio)
        previous = current
    c_algebra = max(c_algebra, _product_ratio(previous, first, m))
    return c_sobolev, c_algebra, c_moser


def calibrate(
    grid: GridSpec, m: int, seed: int = 2024, n_fields: int = 0
) -> CalibratedConstants:
    """Measure the embedding, product, and composition constants on ``grid``:
    the worst ratios over the probes, after ``n_fields`` random members seeded
    by ``seed``, times the safety margin."""
    if m < 1:
        raise ValueError(f"Sobolev order must be >= 1, got {m}")
    if n_fields < 0:
        raise ValueError(f"need n_fields >= 0 random fields, got {n_fields}")
    c_sobolev, c_algebra, c_moser = _measure(grid, m, seed, n_fields)
    return CalibratedConstants(
        grid_n=grid.n,
        m=m,
        seed=seed,
        n_fields=n_fields,
        safety=SAFETY_MARGIN,
        c_sobolev=SAFETY_MARGIN * c_sobolev,
        c_algebra=SAFETY_MARGIN * c_algebra,
        c_moser={k: SAFETY_MARGIN * c for k, c in c_moser.items()},
    )


def save_constants(constants: CalibratedConstants, path: str | Path) -> None:
    lines = [
        f"format = {FILE_FORMAT}",
        f"grid_n = {constants.grid_n}",
        f"m = {constants.m}",
        f"seed = {constants.seed}",
        f"n_fields = {constants.n_fields}",
        f"safety = {constants.safety:.17g}",
        f"c_sobolev = {constants.c_sobolev:.17g}",
        f"c_algebra = {constants.c_algebra:.17g}",
    ]
    for k in sorted(constants.c_moser):
        lines.append(f"c_moser_{k} = {constants.c_moser[k]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_constants(path: str | Path) -> CalibratedConstants:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    if entries.get("format") != FILE_FORMAT:
        raise ValueError(
            f"{path}: unsupported constants format {entries.get('format')!r}"
        )

    def read(key: str, kind: type):
        if key not in entries:
            raise ValueError(f"{path}: missing required key {key!r}")
        try:
            return kind(entries[key])
        except ValueError:
            raise ValueError(f"{path}: {key} is not a valid {kind.__name__}: {entries[key]!r}") from None

    m = read("m", int)
    keys = ["safety", "c_sobolev", "c_algebra", *(f"c_moser_{k}" for k in range(1, m + 1))]
    scales = {key: read(key, float) for key in keys}
    header = {key: read(key, int) for key in ("grid_n", "m", "seed", "n_fields")}
    for key, value in scales.items():
        if not 0.0 < value < math.inf:  # NaN fails it too
            raise ValueError(f"{path}: {key} must be a finite number > 0, got {entries[key]!r}")
    moser = {k: scales.pop(f"c_moser_{k}") for k in range(1, m + 1)}
    return CalibratedConstants(**header, **scales, c_moser=moser)

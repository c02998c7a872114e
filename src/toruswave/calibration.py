"""Measured inequality constants, frozen to a small key = value file.

The discrete embedding sup|u| <= C ||u||_{H^m}, the product bound
||uv||_{H^m} <= C ||u||_{H^m} ||v||_{H^m}, and the per-order composition
bounds behind the fractional-power estimate all hold on a fixed grid with
constants nobody should guess.  This module measures them: take the worst
ratio over a family of probe fields, inflate by a safety margin, and write
the result next to the grid size that produced it.  Anything downstream
refuses constants calibrated on a different grid.

The family is five deterministic probes: four blends 1 + b cos(x1) of a
constant with one slow mode, and the aligned-phase embedding extremizer.
They set every constant.  ``n_fields`` seeded random band-limited members,
measured before the probes, are opt-in; the tests require that 36 of them
move no constant for m <= 6.

Every transform here is a real FFT in the raw ``np.fft.rfftn`` half layout.
``calibrate`` walks the family once, one member at a time as
``_field_family`` yields it: each member is transformed and refined to the
doubled grid once (``fields.refine``), and every composed field
(1 + a u)^mu costs one ``rfftn``.  All norms of one spectrum, ||.||_{H^m}
and the order-k blocks, come from ``fields.hm_norms``, the one product of
its |c|^2 with the weight matrix every norm and energy of the package
reduces through.  ``verify.check_algebra_final`` measures ||u^2||_{H^m}
with the same ``fields.product_norm``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.typing as npt

from .estimates import composition_envelope
from .fields import GridSpec, _symbol_weight, hm_norms, product_norm, random_band_limited, refine

SAFETY_MARGIN = 1.5
FILE_FORMAT = "toruswave-constants-1"

# Composition constants are measured against (1 + u)^mu for these exponents;
# the mix covers mu < 0, 0 < mu < 1, and a non-integer mu > 1.
_CALIBRATION_EXPONENTS = (0.5, -0.5, 1.0 / 3.0, 1.25)
_CALIBRATION_AMPLITUDES = (0.25, 0.5)
# Blends 1 + b cos(x1) of a constant with one slow mode (b = 0: the constant).
_PROBE_BLENDS = (0.0, 0.25, 0.5, 0.75)


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
    """
    top = grid.n // 2 - 1  # highest band below Nyquist; 1 on the smallest grid, n = 4
    bands = [b for b in (1, 2, grid.n // 6, grid.n // 4, grid.n // 3, top) if 1 <= b <= top]
    for i in range(n_fields):
        yield random_band_limited(grid, seed=seed + 7919 * i, band=bands[i % len(bands)])
    x1, _, _ = grid.coordinates()
    wave = np.broadcast_to(np.cos(x1), grid.shape)
    for blend in (*_PROBE_BLENDS, None):
        values = _embedding_extremizer(grid, m) if blend is None else 1.0 + blend * wave
        # same unit-sup normalization as the random family; ratios are invariant
        yield values / np.max(np.abs(values))


def _product_ratio(u, v, m: int) -> float:
    """||uv||_{H^m} / (||u||_{H^m} ||v||_{H^m}) for two (refined samples, H^m norm) pairs."""
    return product_norm(u[0], v[0], m) / (u[1] * v[1])


def _measure(
    grid: GridSpec, m: int, seed: int, n_fields: int
) -> tuple[float, float, dict[int, float]]:
    """The ratio maxima (c_sobolev, c_algebra, c_moser) over the family's members
    and its product pairs: each member with the one before it, and the closing
    pair (last, first).  At most three refined fields are alive at a time: the
    first member's, the previous one's and the current one's."""
    c_sobolev = c_algebra = 0.0
    c_moser = {k: 0.0 for k in range(1, m + 1)}
    first = previous = None  # (refined samples, H^m norm) of the first and the previous member
    for base in _field_family(grid, m, seed, n_fields):
        raw = np.fft.rfftn(base)
        norm, *base_blocks = hm_norms(raw, m)
        refined = refine(raw, grid.n)
        current = (refined, norm)
        sup = float(np.max(np.abs(base)))
        c_sobolev = max(c_sobolev, sup / norm)
        if previous is None:
            first = current
        else:
            c_algebra = max(c_algebra, _product_ratio(previous, current, m))
        # refinement is linear and the amplitudes are powers of two, so
        # amplitude * refined is exactly the refinement of amplitude * base
        peak = max(sup, float(np.max(np.abs(refined))))
        for amplitude in _CALIBRATION_AMPLITUDES:
            ceiling = amplitude * peak
            shifted = 1.0 + amplitude * refined
            for mu in _CALIBRATION_EXPONENTS:
                composed = np.fft.rfftn(shifted**mu)
                _, *blocks = hm_norms(composed, m)
                for k, (block, base_block) in enumerate(zip(blocks, base_blocks), start=1):
                    if base_block == 0.0:  # constant probes carry no derivatives
                        continue
                    denominator = composition_envelope(k, mu, ceiling) * amplitude * base_block
                    c_moser[k] = max(c_moser[k], block / denominator)
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
        entries[key.strip()] = value.strip()
    if entries.get("format") != FILE_FORMAT:
        raise ValueError(
            f"{path}: unsupported constants format {entries.get('format')!r}"
        )
    try:
        m = int(entries["m"])
        keys = ["safety", "c_sobolev", "c_algebra", *(f"c_moser_{k}" for k in range(1, m + 1))]
        scales = {key: float(entries[key]) for key in keys}
        header = {key: int(entries[key]) for key in ("grid_n", "m", "seed", "n_fields")}
    except KeyError as exc:
        raise ValueError(f"{path}: missing required key {exc.args[0]!r}") from exc
    for key, value in scales.items():
        if not 0.0 < value < math.inf:  # NaN fails it too
            raise ValueError(f"{path}: {key} must be a finite number > 0, got {entries[key]!r}")
    moser = {k: scales.pop(f"c_moser_{k}") for k in range(1, m + 1)}
    return CalibratedConstants(**header, **scales, c_moser=moser)

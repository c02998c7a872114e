"""Measured inequality constants, frozen to a small key = value file.

The discrete embedding sup|u| <= C ||u||_{H^m}, the product bound
||uv||_{H^m} <= C ||u||_{H^m} ||v||_{H^m}, and the per-order composition
bounds behind the fractional-power estimate all hold on a fixed grid with
constants nobody should guess.  This module measures them: take the worst
ratio over a seeded family of band-limited fields, inflate by a safety
margin, and write the result next to the grid size and seed that produced
it.  Anything downstream refuses constants calibrated on a different grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimates import composition_envelope
from .fields import (
    Field,
    GridSpec,
    Spectrum,
    derivative_weight,
    inverse_transform,
    pad_spectrum,
    random_band_limited,
    sobolev_norm,
    sobolev_weight,
    sup_norm,
    transform,
    weighted_norm_sq,
)

SAFETY_MARGIN = 1.5
FILE_FORMAT = "toruswave-constants-1"

# Composition constants are measured against (1 + u)^mu for these exponents;
# the mix covers mu < 0, 0 < mu < 1, and a non-integer mu > 1.
_CALIBRATION_EXPONENTS = (0.5, -0.5, 1.0 / 3.0, 1.25)
_CALIBRATION_AMPLITUDES = (0.25, 0.5)


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


def alias_free_product(u: Field, v: Field) -> Field:
    """Pointwise product evaluated on a doubled grid, so no mode aliases."""
    if u.grid.n != v.grid.n:
        raise ValueError(f"grids disagree: {u.grid.n} vs {v.grid.n}")
    fine = GridSpec(2 * u.grid.n)
    u_fine = inverse_transform(pad_spectrum(transform(u), fine.n))
    v_fine = inverse_transform(pad_spectrum(transform(v), fine.n))
    return Field(fine, u_fine.values * v_fine.values)


def refine_field(u: Field) -> Field:
    """The same band-limited field sampled on a doubled grid."""
    return inverse_transform(pad_spectrum(transform(u), 2 * u.grid.n))


def _derivative_block_norm(spectrum: Spectrum, order: int) -> float:
    """sqrt of the sum of ||d_alpha u||_{L^2}^2 over all |alpha| = order."""
    weight = derivative_weight(spectrum.grid.n, order, lowest=order)
    return math.sqrt(weighted_norm_sq(spectrum, weight))


def _embedding_extremizer(grid: GridSpec, m: int) -> Field:
    """Field with coefficients 1/W_m(k); Cauchy-Schwarz is an equality for it
    at x = 0, so its ratio IS the discrete embedding constant."""
    coeffs = (1.0 / sobolev_weight(grid.n, m)).astype(np.complex128)
    return inverse_transform(Spectrum(grid, coeffs))


def _field_family(grid: GridSpec, m: int, seed: int, n_fields: int) -> list[Field]:
    """Band-limited fields across the available bands, unit sup norm, plus
    deterministic probes of the near-constant corner.

    A random band family never produces the fields that maximize the product
    and embedding ratios: constants (product ratio (2 pi)^{-3/2}), blends of a
    constant with one slow mode (the product extremizer direction), and the
    aligned-phase embedding extremizer.  Those go in explicitly.
    """
    bands = [b for b in (1, 2, grid.n // 6, grid.n // 4, grid.n // 3, grid.n // 2 - 1) if b >= 1]
    fields = []
    for i in range(n_fields):
        band = bands[i % len(bands)]
        fields.append(random_band_limited(grid, seed=seed + 7919 * i, band=band))
    x1, _, _ = grid.coordinates()
    wave = np.broadcast_to(np.cos(x1), grid.shape)
    probes = [np.ones(grid.shape)]
    probes += [1.0 + blend * wave for blend in (0.25, 0.5, 0.75)]
    probes.append(_embedding_extremizer(grid, m).values)
    # same unit-sup normalization as the random family; ratios are invariant
    fields += [Field(grid, p / np.max(np.abs(p))) for p in probes]
    return fields


def calibrate(
    grid: GridSpec, m: int, seed: int = 2024, n_fields: int = 36
) -> CalibratedConstants:
    """Measure the embedding, product, and composition constants on ``grid``."""
    if m < 1:
        raise ValueError(f"Sobolev order must be >= 1, got {m}")
    if n_fields < 4:
        raise ValueError(f"need at least 4 fields for a meaningful family, got {n_fields}")
    family = _field_family(grid, m, seed, n_fields)

    c_sobolev = max(sup_norm(u) / sobolev_norm(u, m) for u in family)

    c_algebra = 0.0
    for u, v in zip(family, family[1:] + family[:1]):
        ratio = sobolev_norm(alias_free_product(u, v), m) / (
            sobolev_norm(u, m) * sobolev_norm(v, m)
        )
        c_algebra = max(c_algebra, ratio)

    c_moser = {k: 0.0 for k in range(1, m + 1)}
    for base in family:
        base_blocks = {
            k: _derivative_block_norm(transform(base), k) for k in range(1, m + 1)
        }
        for amplitude in _CALIBRATION_AMPLITUDES:
            scaled = Field(base.grid, amplitude * base.values)
            fine = refine_field(scaled)
            ceiling = max(sup_norm(scaled), sup_norm(fine))
            for mu in _CALIBRATION_EXPONENTS:
                composed = Field(fine.grid, (1.0 + fine.values) ** mu)
                spectrum = transform(composed)
                for k in range(1, m + 1):
                    if base_blocks[k] == 0.0:  # constant probes carry no derivatives
                        continue
                    numerator = _derivative_block_norm(spectrum, k)
                    denominator = (
                        composition_envelope(k, mu, ceiling)
                        * amplitude
                        * base_blocks[k]
                    )
                    c_moser[k] = max(c_moser[k], numerator / denominator)

    return CalibratedConstants(
        grid_n=grid.n,
        m=m,
        seed=seed,
        n_fields=n_fields,
        safety=SAFETY_MARGIN,
        c_sobolev=SAFETY_MARGIN * c_sobolev,
        c_algebra=SAFETY_MARGIN * c_algebra,
        c_moser={k: SAFETY_MARGIN * v for k, v in c_moser.items()},
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
        moser = {k: float(entries[f"c_moser_{k}"]) for k in range(1, m + 1)}
        return CalibratedConstants(
            grid_n=int(entries["grid_n"]),
            m=m,
            seed=int(entries["seed"]),
            n_fields=int(entries["n_fields"]),
            safety=float(entries["safety"]),
            c_sobolev=float(entries["c_sobolev"]),
            c_algebra=float(entries["c_algebra"]),
            c_moser=moser,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing required key {exc.args[0]!r}") from exc

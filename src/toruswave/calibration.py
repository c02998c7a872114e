"""Measured inequality constants, frozen to a small key = value file.

The discrete embedding sup|u| <= C ||u||_{H^m}, the product bound
||uv||_{H^m} <= C ||u||_{H^m} ||v||_{H^m}, and the per-order composition
bounds behind the fractional-power estimate all hold on a fixed grid with
constants nobody should guess.  This module measures them: take the worst
ratio over a seeded family of band-limited fields, inflate by a safety
margin, and write the result next to the grid size and seed that produced
it.  Anything downstream refuses constants calibrated on a different grid.

Every transform here is a real FFT in the raw ``np.fft.rfftn`` half layout.
``calibrate`` walks the family once, one member at a time as
``_field_family`` yields it: each member is transformed and refined to the
doubled grid once (``fields.refine``), and every composed field
(1 + a u)^mu costs one ``rfftn``.  All norms of one spectrum, ||.||_{H^m}
and the order-k blocks, come from ``fields.hm_norms``, the one product of
its |c|^2 with the weight matrix every norm and energy of the package
reduces through.  ``verify.check_algebra_final`` measures ||u^2||_{H^m}
with the same ``fields.product_norm``.

The family is measured in contiguous index ranges: one, or two from
``THREAD_MIN_N`` points per axis when the process's CPU affinity allows two
CPUs (the measured crossover: below it the thread hand-offs cost more than
the second core gives).  The calling thread measures the first range and a
one-worker ``ThreadPoolExecutor`` the second, under a copy of the caller's
context (so its ``np.errstate``); the worker's exception is raised in the
caller.  Every constant is a maximum of per-member ratios, and a maximum is
exact whatever order it is taken in, so the constants are the same bit for
bit.  Members are seeded by index, so each range draws its own; the second
refines the member before it once more for its first product pair, and the
closing pair (last member, first member) is taken after both ranges return.
Per range, at most three refined fields are alive at a time: member 0's (in
the range that holds it), the previous member's and the current one.
"""

from __future__ import annotations

import contextvars
import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.typing as npt

from .estimates import composition_envelope
from .fields import GridSpec, _symbol_weight, hm_norms, norm_weights, random_band_limited
from .fields import product_norm, refine

SAFETY_MARGIN = 1.5
FILE_FORMAT = "toruswave-constants-1"

# Composition constants are measured against (1 + u)^mu for these exponents;
# the mix covers mu < 0, 0 < mu < 1, and a non-integer mu > 1.
_CALIBRATION_EXPONENTS = (0.5, -0.5, 1.0 / 3.0, 1.25)
_CALIBRATION_AMPLITUDES = (0.25, 0.5)
# Blends 1 + b cos(x1) of a constant with one slow mode (b = 0: the constant).
_PROBE_BLENDS = (0.0, 0.25, 0.5, 0.75)

# Smallest grid whose calibration splits the family over two threads.  numpy
# releases the GIL in the transforms, powers and reductions, but on small
# grids a call on the doubled grid takes about 20 us and the hand-offs cost
# more than the second core gives.  Two chunks against one, medians of 9
# in-process runs: 0.66x at n = 8, 0.85x at n = 10, 0.85-1.11x at n = 12,
# 1.20-1.39x at n = 14, 1.61x at n = 16 and 1.7x at n = 20 to 28 (2-vCPU
# Xeon, OpenBLAS 0.3.31).  At n = 32 it was 1.09x: there the doubled grid's
# reductions wake an OpenBLAS worker, which spins on the second core.
THREAD_MIN_N = 14


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


def _family_size(n_fields: int) -> int:
    """Members of the family: the random fields, the blends and the extremizer."""
    return n_fields + len(_PROBE_BLENDS) + 1


def _field_family(
    grid: GridSpec, m: int, seed: int, n_fields: int, lo: int = 0, hi: int | None = None
) -> Iterator[npt.NDArray[np.float64]]:
    """Grid samples of band-limited fields across the available bands, unit sup
    norm, plus deterministic probes of the near-constant corner, one at a time:
    members ``lo`` to ``hi - 1``, every member by default.

    A random band family never produces the fields that maximize the product
    and embedding ratios: constants (product ratio (2 pi)^{-3/2}), blends of a
    constant with one slow mode (the product extremizer direction), and the
    aligned-phase embedding extremizer.  Those go in explicitly.
    """
    top = grid.n // 2 - 1  # highest band below Nyquist; 1 on the smallest grid, n = 4
    bands = [b for b in (1, 2, grid.n // 6, grid.n // 4, grid.n // 3, top) if 1 <= b <= top]
    for i in range(lo, _family_size(n_fields) if hi is None else hi):
        if i < n_fields:  # member i is seeded by its index, so any range can start anywhere
            yield random_band_limited(grid, seed=seed + 7919 * i, band=bands[i % len(bands)])
            continue
        if i < n_fields + len(_PROBE_BLENDS):
            x1, _, _ = grid.coordinates()
            wave = np.broadcast_to(np.cos(x1), grid.shape)
            values = 1.0 + _PROBE_BLENDS[i - n_fields] * wave
        else:
            values = _embedding_extremizer(grid, m)
        # same unit-sup normalization as the random family; ratios are invariant
        yield values / np.max(np.abs(values))


def _product_ratio(u, v, m: int) -> float:
    """||uv||_{H^m} / (||u||_{H^m} ||v||_{H^m}) for two (refined samples, H^m norm) pairs."""
    return product_norm(u[0], v[0], m) / (u[1] * v[1])


@dataclass
class _ChunkMaxima:
    """The ratio maxima over one contiguous range of members, and the refined
    fields (samples, H^m norm) that the closing product pair may need."""

    c_sobolev: float
    c_algebra: float
    c_moser: dict[int, float]
    first: tuple | None  # member 0's, if the range holds it
    last: tuple | None  # the range's last member's


def _measure(grid: GridSpec, m: int, seed: int, n_fields: int, lo: int, hi: int) -> _ChunkMaxima:
    """Maxima over members ``lo`` to ``hi - 1`` and over the product pairs
    (i - 1, i) they end; the pair (lo - 1, lo) refines member lo - 1 again."""
    members = _field_family(grid, m, seed, n_fields, max(lo - 1, 0), hi)
    c_sobolev = c_algebra = 0.0
    c_moser = {k: 0.0 for k in range(1, m + 1)}
    first = previous = None  # (refined samples, H^m norm) of members 0 and i - 1
    if lo > 0:
        raw = np.fft.rfftn(next(members))
        previous = (refine(raw, grid.n), hm_norms(raw, m)[0])
    for i, base in zip(range(lo, hi), members):
        raw = np.fft.rfftn(base)
        norm, *base_blocks = hm_norms(raw, m)
        refined = refine(raw, grid.n)
        current = (refined, norm)
        sup = float(np.max(np.abs(base)))
        c_sobolev = max(c_sobolev, sup / norm)
        if previous is not None:
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
        if i == 0:
            first = current
        previous = current
    return _ChunkMaxima(c_sobolev, c_algebra, c_moser, first, previous)


def _cpus() -> int:
    """CPUs this process may run on; 1 where the platform has no affinity call."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def calibrate(
    grid: GridSpec, m: int, seed: int = 2024, n_fields: int = 36
) -> CalibratedConstants:
    """Measure the embedding, product, and composition constants on ``grid``."""
    if m < 1:
        raise ValueError(f"Sobolev order must be >= 1, got {m}")
    if n_fields < 4:
        raise ValueError(f"need at least 4 fields for a meaningful family, got {n_fields}")
    count = _family_size(n_fields)
    split = [(count + 1) // 2] if grid.n >= THREAD_MIN_N and _cpus() >= 2 else []
    bounds = [0, *split, count]  # a later range also refines the member before it
    for size in (grid.n, 2 * grid.n):  # build the cached weights once, before any worker
        norm_weights(size, m)
    with ThreadPoolExecutor(1, thread_name_prefix="toruswave-calibrate") as pool:
        later = [
            pool.submit(contextvars.copy_context().run, _measure, grid, m, seed, n_fields, lo, hi)
            for lo, hi in zip(bounds[1:-1], bounds[2:])
        ]
        chunks = [_measure(grid, m, seed, n_fields, bounds[0], bounds[1])]
        chunks += [future.result() for future in later]
    closing = _product_ratio(chunks[-1].last, chunks[0].first, m)  # (last member, first)

    return CalibratedConstants(
        grid_n=grid.n,
        m=m,
        seed=seed,
        n_fields=n_fields,
        safety=SAFETY_MARGIN,
        c_sobolev=SAFETY_MARGIN * max(c.c_sobolev for c in chunks),
        c_algebra=SAFETY_MARGIN * max(*(c.c_algebra for c in chunks), closing),
        c_moser={k: SAFETY_MARGIN * max(c.c_moser[k] for c in chunks) for k in chunks[0].c_moser},
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

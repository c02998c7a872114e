"""Calibration on real FFTs: the streaming pass against the full-complex loops.

``calibrate`` once ran every transform as a normalized ``fftn``/``ifftn``
on full spectra, refined each family member three times and
took one weighted sum per derivative block.  That code is kept here as the
reference, on the full-complex toolkit of ``reference``: the single pass over
``rfftn`` half spectra must reproduce every constant, and the shared
half-layout padding must reproduce ``reference.pad_spectrum`` including the
planes it drops.
"""

import math
import tracemalloc

import numpy as np
import pytest

from test_cli import make_cfg
from toruswave import calibration, fields
from toruswave.calibration import (
    _CALIBRATION_AMPLITUDES,
    _CALIBRATION_EXPONENTS,
    SAFETY_MARGIN,
    _embedding_extremizer,
    calibrate,
)
from toruswave.cli import CONSTANTS_ENV, run_scenario
from toruswave.estimates import composition_envelope
from toruswave.fields import GridSpec, random_band_limited
from reference import (
    derivative_block_norm,
    inverse_transform,
    pad_spectrum,
    padded_product,
    spectrum_norm,
    transform,
    white_noise,
)

REL = 1e-14


# --- the full-complex implementation, kept as the reference -----------------


def reference_refine(u):
    return inverse_transform(pad_spectrum(transform(u), 2 * u.shape[0]))


def reference_family(grid, m, seed, n_fields):
    bands = [b for b in (1, 2, grid.n // 6, grid.n // 4, grid.n // 3, grid.n // 2 - 1) if b >= 1]
    family = []
    for i in range(n_fields):
        band = bands[i % len(bands)]
        family.append(random_band_limited(grid, seed=seed + 7919 * i, band=band))
    x1, _, _ = grid.coordinates()
    wave = np.broadcast_to(np.cos(x1), grid.shape)
    probes = [np.ones(grid.shape)]
    probes += [1.0 + blend * wave for blend in (0.25, 0.5, 0.75)]
    probes.append(_embedding_extremizer(grid, m))
    family += [p / np.max(np.abs(p)) for p in probes]
    return family


def reference_calibrate(grid, m, seed, n_fields):
    family = reference_family(grid, m, seed, n_fields)
    def norm(u):
        return spectrum_norm(transform(u), m)

    c_sobolev = max(np.max(np.abs(u)) / norm(u) for u in family)
    c_algebra = 0.0
    for u, v in zip(family, family[1:] + family[:1]):
        ratio = norm(padded_product(u, v)) / (norm(u) * norm(v))
        c_algebra = max(c_algebra, ratio)
    c_moser = {k: 0.0 for k in range(1, m + 1)}
    for base in family:
        base_blocks = {k: derivative_block_norm(transform(base), k) for k in range(1, m + 1)}
        for amplitude in _CALIBRATION_AMPLITUDES:
            scaled = amplitude * base
            fine = reference_refine(scaled)
            ceiling = max(np.max(np.abs(scaled)), np.max(np.abs(fine)))
            for mu in _CALIBRATION_EXPONENTS:
                spectrum = transform((1.0 + fine) ** mu)
                for k in range(1, m + 1):
                    if base_blocks[k] == 0.0:
                        continue
                    numerator = derivative_block_norm(spectrum, k)
                    denominator = composition_envelope(k, mu, ceiling) * amplitude * base_blocks[k]
                    c_moser[k] = max(c_moser[k], numerator / denominator)
    return (
        SAFETY_MARGIN * c_sobolev,
        SAFETY_MARGIN * c_algebra,
        {k: SAFETY_MARGIN * v for k, v in c_moser.items()},
    )


# --- constants ---------------------------------------------------------------


def assert_constants_match(new, reference):
    c_sobolev, c_algebra, c_moser = reference
    assert new.c_sobolev == pytest.approx(c_sobolev, rel=REL, abs=0.0)
    assert new.c_algebra == pytest.approx(c_algebra, rel=REL, abs=0.0)
    assert new.c_moser.keys() == c_moser.keys()
    for k, value in c_moser.items():
        assert new.c_moser[k] == pytest.approx(value, rel=REL, abs=0.0)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("seed", [2024, 7])
@pytest.mark.parametrize("n_fields", [0, 4, 12, 36])
def test_constants_match_reference_small_grids(n, m, seed, n_fields):
    grid = GridSpec(n)
    assert_constants_match(
        calibrate(grid, m, seed=seed, n_fields=n_fields),
        reference_calibrate(grid, m, seed, n_fields),
    )


# on n = 16 every order, seed and family size appears, without the full product
@pytest.mark.parametrize(
    "m, seed, n_fields",
    [(1, 2024, 12), (2, 7, 4), (3, 7, 12), (1, 7, 36), (2, 2024, 4), (2, 7, 0)],
)
def test_constants_match_reference_n16(m, seed, n_fields):
    grid = GridSpec(16)
    assert_constants_match(
        calibrate(grid, m, seed=seed, n_fields=n_fields),
        reference_calibrate(grid, m, seed, n_fields),
    )


def test_session_constants_match_reference(constants16):
    # the default n = 16, m = 3 probes every on-the-fly flagship run measures
    assert_constants_match(constants16, reference_calibrate(GridSpec(16), 3, 2024, 0))


@pytest.mark.parametrize("n", [6, 8, 16, 32])
def test_family_unchanged_above_the_smallest_grid(n):
    new = list(calibration._field_family(GridSpec(n), 3, 2024, 12))
    old = reference_family(GridSpec(n), 3, 2024, 12)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert np.array_equal(a, b)


def test_smallest_grid_calibrates():
    constants = calibrate(GridSpec(4), 3)
    values = [constants.c_sobolev, constants.c_algebra, *constants.c_moser.values()]
    assert all(math.isfinite(v) and v > 0.0 for v in values)
    assert sorted(constants.c_moser) == [1, 2, 3]


def test_smallest_grid_runs_without_constants_file(tmp_path, monkeypatch):
    monkeypatch.delenv(CONSTANTS_ENV, raising=False)
    cfg = make_cfg(tmp_path, **{"grid.n": "4", "initial.mode": "1,0,0"})
    assert run_scenario(str(cfg), tmp_path / "out") in (0, 1)
    assert (tmp_path / "out" / "constants.txt").is_file()


# --- padding -----------------------------------------------------------------


def refine(u):
    """``u`` sampled on the doubled grid, through ``fields.refine``."""
    return fields.refine(np.fft.rfftn(u), u.shape[0])


@pytest.mark.parametrize("n", [4, 8, 16])
def test_refine_matches_pad_spectrum_on_white_noise(n):
    u = white_noise(n, 100 + n)
    new, old = refine(u), reference_refine(u)
    assert new.shape == old.shape == GridSpec(2 * n).shape
    scale = np.max(np.abs(old))
    assert np.max(np.abs(new - old)) <= 1e-13 * scale


@pytest.mark.parametrize("n", [4, 8, 16])
def test_product_matches_pad_spectrum_on_white_noise(n):
    u, v = white_noise(n, 200 + n), white_noise(n, 300 + n)
    for a, b in ((u, v), (u, u)):
        new, old = refine(a) * refine(b), padded_product(a, b)
        scale = np.max(np.abs(old))
        assert np.max(np.abs(new - old)) <= 1e-13 * scale


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_nyquist_plane_dropped_on_every_axis(n, axis):
    # (-1)^j along one axis lives only on that axis' Nyquist plane
    grid = GridSpec(n)
    shape = [-1 if a == axis else 1 for a in range(3)]
    sign = np.broadcast_to((-1.0) ** np.arange(n).reshape(shape), grid.shape)
    nyquist = 1.0 + sign
    expected = np.ones(GridSpec(2 * n).shape)
    assert np.max(np.abs(refine(nyquist) - expected)) <= 1e-14
    assert np.max(np.abs(reference_refine(nyquist) - expected)) <= 1e-14


# --- structure and memory ----------------------------------------------------


def test_calibrate_uses_only_real_ffts(monkeypatch):
    grid, m, seed, n_fields = GridSpec(8), 3, 2024, 12
    family = list(calibration._field_family(grid, m, seed, n_fields))
    monkeypatch.setattr(calibration, "_field_family", lambda *args: iter(family))
    counts = {}

    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)
        counts[name] = 0

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, wrapper)

    constants = calibrate(grid, m, seed=seed, n_fields=n_fields)
    assert constants.n_fields == n_fields
    compositions = len(_CALIBRATION_AMPLITUDES) * len(_CALIBRATION_EXPONENTS)
    # the random members and the extremizer are cubes; their products are the
    # random members' consecutive pairs, (last random, constant), (blend 0.75,
    # extremizer) and the closing (extremizer, first random)
    n_cube, cube_products = n_fields + 1, n_fields + 2
    # a cube's forward transform is fields.rfftn's rfft and two in-place ffts;
    # its refinement is two in-place iffts and an irfft
    cube_forward = n_cube * (1 + compositions) + cube_products
    # the constant and three blends go through their lines, the constant with
    # no compositions; line products: (constant, 0.25), (0.25, 0.5), (0.5, 0.75)
    line_forward = 4 + 3 * compositions + 3
    assert counts == {
        "fftn": 0,
        "ifftn": 0,
        "rfftn": 0,
        "irfftn": 0,
        "rfft": line_forward + cube_forward,
        "fft": 2 * line_forward + 2 * cube_forward,
        "ifft": 2 * 4 + 2 * n_cube,
        "irfft": 4 + n_cube,
    }


def test_calibrate_streams_the_family():
    # warm the weight caches, then measure one pass over the 36 random members
    # and the probes; keeping all 41 refined 32-cube fields alive would read
    # about 14.5 MB
    grid = GridSpec(16)
    calibrate(grid, 3)
    tracemalloc.start()
    try:
        calibrate(grid, 3, n_fields=36)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20

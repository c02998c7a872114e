import math

import numpy as np
import pytest

from toruswave import fields
from toruswave.calibration import (
    SAFETY_MARGIN,
    CalibratedConstants,
    _embedding_extremizer,
    calibrate,
    load_constants,
    save_constants,
)
from toruswave.estimates import composition_envelope, fractional_constant
from toruswave.fields import GridSpec, VOLUME, hm_norms, random_band_limited
from reference import padded_product, spectrum_norm, transform


def refine(u):
    """``u`` sampled on the doubled grid, through ``fields.refine``."""
    return fields.refine(np.fft.rfftn(u), u.shape[0])


def sup(u):
    return np.max(np.abs(u))


def norm(u, m=3):
    """The full-complex H^m norm of ``reference``."""
    return spectrum_norm(transform(u), m)


def composition_adversaries(grid):
    """Fields at sup 0.4 built to strain the composition constants: periodic
    bumps of width 0.1 to 1, cos(k x1) and cos(k (x1 + x2 + x3)) for odd k up
    to 7, power-law spectra |k|^-p on the resolved modes, and white noise."""
    x = grid.coordinates()
    shapes = [
        np.exp(-sum(2.0 - 2.0 * np.cos(xi) for xi in x) / (2.0 * width**2))
        for width in (0.1, 0.25, 0.5, 1.0)
    ]
    for k in (1, 3, 5, 7):
        shapes += [np.cos(k * x[0]) + np.zeros(grid.shape), np.cos(k * (x[0] + x[1] + x[2]))]
    wavenumbers = np.fft.fftfreq(grid.n, 1.0 / grid.n)
    k1, k2, k3 = np.meshgrid(wavenumbers, wavenumbers, wavenumbers, indexing="ij")
    size = np.sqrt(k1**2 + k2**2 + k3**2)
    resolved = np.maximum(np.maximum(abs(k1), abs(k2)), abs(k3)) < grid.n // 2
    for p in (1, 2, 3):
        spectrum = np.zeros(grid.shape)
        np.divide(1.0, size**p, out=spectrum, where=resolved & (size > 0))
        shapes.append(np.fft.ifftn(spectrum).real)
    shapes.append(np.random.default_rng(0).standard_normal(grid.shape))
    return [0.4 * u / sup(u) for u in shapes]


class TestAliasFreeProduct:
    def test_matches_coarse_product_when_no_aliasing(self):
        grid = GridSpec(16)
        u = random_band_limited(grid, seed=11, band=2)
        v = random_band_limited(grid, seed=12, band=3)
        fine = refine(u) * refine(v)
        # band 5 product fits strictly inside the coarse grid, so the fine
        # samples at shared nodes must reproduce the coarse pointwise product
        coarse = u * v
        assert np.max(np.abs(fine[::2, ::2, ::2] - coarse)) < 1e-12

    def test_refine_preserves_norm_and_samples(self):
        u = random_band_limited(GridSpec(8), seed=5, band=3)
        fine = refine(u)
        assert fine.shape == GridSpec(16).shape
        assert norm(fine) == pytest.approx(norm(u), rel=1e-12)
        assert np.max(np.abs(fine[::2, ::2, ::2] - u)) < 1e-12


class TestDerivativeBlocks:
    def test_single_mode_blocks(self):
        grid = GridSpec(16)
        x1 = grid.coordinates()[0]
        u = np.broadcast_to(np.sin(x1), grid.shape).copy()
        _, *blocks = hm_norms(np.fft.rfftn(u), 3)
        # every derivative of sin x1 along axis 1 has L2 norm sqrt(V/2);
        # mixed derivatives vanish, so each block reduces to that single term
        expected = math.sqrt(VOLUME / 2.0)
        assert len(blocks) == 3
        for block in blocks:
            assert block == pytest.approx(expected, rel=1e-12)


class TestCalibrate:
    def test_deterministic_for_fixed_seed(self):
        grid = GridSpec(8)
        first = calibrate(grid, m=2, seed=7, n_fields=6)
        second = calibrate(grid, m=2, seed=7, n_fields=6)
        assert first == second

    def test_embedding_constant_is_exact_times_safety(self):
        # the aligned-phase probe attains the discrete sup, so c_sobolev does
        # not depend on the random seed: it is safety times the true constant
        grid = GridSpec(8)
        a = calibrate(grid, m=2, seed=7, n_fields=6)
        b = calibrate(grid, m=2, seed=8, n_fields=6)
        ext = _embedding_extremizer(grid, 2)
        exact = sup(ext) / norm(ext, 2)
        assert a.c_sobolev == b.c_sobolev == pytest.approx(SAFETY_MARGIN * exact, rel=1e-12)

    @pytest.mark.parametrize(
        "m, values, growth",
        [(1, (0.631, 0.972, 1.433), (1.4, math.inf)), (2, (0.301, 0.324, 0.336), (1.0, 1.1))],
        ids=["m1-diverges", "m2-converges"],
    )
    def test_embedding_constant_has_a_continuum_limit_only_above_order_one(
        self, m, values, growth
    ):
        # H^1 does not embed in L^inf on the 3-torus: at m = 1 c_sobolev grows
        # by about sqrt(2) per grid doubling, at m = 2 it settles
        got = [calibrate(GridSpec(n), m).c_sobolev for n in (8, 16, 32)]
        assert got == pytest.approx(values, abs=5e-4)
        low, high = growth  # per doubling
        assert all(low < fine / coarse < high for coarse, fine in zip(got, got[1:]))

    def test_constants_are_positive_and_finite(self, constants16):
        values = [constants16.c_sobolev, constants16.c_algebra]
        values += list(constants16.c_moser.values())
        assert all(math.isfinite(v) and v > 0.0 for v in values)
        assert sorted(constants16.c_moser) == [1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError, match="order"):
            calibrate(GridSpec(8), m=0)
        with pytest.raises(ValueError, match="fields"):
            calibrate(GridSpec(8), m=1, n_fields=-1)

    def test_embedding_holds_on_fresh_fields(self, constants16):
        grid = GridSpec(16)
        for i in range(12):
            u = random_band_limited(grid, seed=90_000 + i, band=(i % 7) + 1)
            assert sup(u) <= constants16.c_sobolev * norm(u)

    def test_algebra_holds_on_fresh_fields(self, constants16):
        grid = GridSpec(16)
        for i in range(12):
            u = random_band_limited(grid, seed=91_000 + i, band=(i % 7) + 1)
            v = random_band_limited(grid, seed=92_000 + i, band=((i + 3) % 7) + 1)
            product_norm = norm(padded_product(u, v))
            assert product_norm <= constants16.c_algebra * norm(u) * norm(v)

    def test_algebra_and_embedding_cover_near_constant_fields(self, constants16):
        # a pure constant maximizes ||uv|| / (||u|| ||v||) among slow fields;
        # late-time states are exactly of this shape, so it must be covered
        grid = GridSpec(16)
        x1 = grid.coordinates()[0]
        shapes = [np.full(grid.shape, 0.3)]
        shapes.append(0.3 * (1.0 + 0.5 * np.broadcast_to(np.cos(x1), grid.shape)))
        for values in shapes:
            u = values
            u_norm = norm(u)
            assert sup(u) <= constants16.c_sobolev * u_norm
            assert norm(padded_product(u, u)) <= constants16.c_algebra * u_norm**2

    def test_composition_blocks_hold_on_fresh_fields(self, constants16):
        grid = GridSpec(16)
        fresh = [
            random_band_limited(grid, seed=93_000 + i, band=(i % 5) + 1, amplitude=0.4)
            for i in range(8)
        ]
        for u in fresh + composition_adversaries(grid):
            fine = refine(u)
            ceiling = max(sup(u), sup(fine))
            _, *u_blocks = hm_norms(np.fft.rfftn(u), 3)
            for mu in (0.5, -0.5, 1.0 / 3.0, 1.25):
                _, *blocks = hm_norms(np.fft.rfftn((1.0 + fine) ** mu), 3)
                for k in (1, 2, 3):
                    lhs = blocks[k - 1]
                    rhs = (
                        constants16.c_moser[k]
                        * composition_envelope(k, mu, ceiling)
                        * u_blocks[k - 1]
                    )
                    assert lhs <= rhs

    def test_fractional_bound_holds_on_fresh_fields(self, constants16):
        grid = GridSpec(16)
        for i in range(8):
            u = random_band_limited(grid, seed=94_000 + i, band=(i % 5) + 1, amplitude=0.5)
            fine = refine(u)
            ceiling = min(max(sup(u), sup(fine)) + 1e-12, 0.999)
            for mu in (0.5, -0.5, 0.25):
                constant = fractional_constant(3, mu, ceiling, constants16.c_moser)
                lhs = norm((1.0 + fine) ** mu)
                assert lhs <= constant * norm(u) + VOLUME**0.5


class TestConstantsFile:
    def test_roundtrip(self, tmp_path, constants16):
        path = tmp_path / "constants.txt"
        save_constants(constants16, path)
        assert load_constants(path) == constants16

    def test_file_is_line_oriented_key_value(self, tmp_path, constants16):
        path = tmp_path / "constants.txt"
        save_constants(constants16, path)
        for line in path.read_text().splitlines():
            assert " = " in line

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "constants.txt"
        path.write_text("format = something-else\n")
        with pytest.raises(ValueError, match="format"):
            load_constants(path)

    def test_load_rejects_missing_key(self, tmp_path, constants16):
        path = tmp_path / "constants.txt"
        save_constants(constants16, path)
        pruned = [l for l in path.read_text().splitlines() if not l.startswith("c_algebra")]
        path.write_text("\n".join(pruned) + "\n")
        with pytest.raises(ValueError, match="c_algebra"):
            load_constants(path)

    def test_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "constants.txt"
        path.write_text(f"format = toruswave-constants-1\ngrid_n 16\n")
        with pytest.raises(ValueError, match="key = value"):
            load_constants(path)

    def test_load_rejects_duplicate_key(self, tmp_path):
        # the n = 32 constants with c_algebra given a second time: the last
        # value used to win silently
        path = tmp_path / "constants.txt"
        path.write_text(
            "format = toruswave-constants-1\ngrid_n = 32\nm = 3\nseed = 2024\n"
            "n_fields = 0\nsafety = 1.5\nc_sobolev = 0.21034923881474032\n"
            "c_algebra = 0.13098745194911449\nc_moser_1 = 1.4847293127201195\n"
            "c_moser_2 = 1.4847897613650942\nc_moser_3 = 1.4850315805808645\n"
            "c_algebra = 5\n"
        )
        with pytest.raises(ValueError, match=r"constants.txt:12: duplicate key 'c_algebra'"):
            load_constants(path)

    def test_grid_mismatch_refused(self, constants16):
        with pytest.raises(ValueError, match="refusing"):
            constants16.require_grid(GridSpec(8), 3)
        with pytest.raises(ValueError, match="refusing"):
            constants16.require_grid(GridSpec(16), 4)
        constants16.require_grid(GridSpec(16), 3)
        constants16.require_grid(GridSpec(16), 1)

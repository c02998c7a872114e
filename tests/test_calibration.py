import math

import numpy as np
import pytest

from toruswave.calibration import (
    SAFETY_MARGIN,
    CalibratedConstants,
    _embedding_extremizer,
    _refine,
    alias_free_product,
    calibrate,
    load_constants,
    save_constants,
)
from toruswave.estimates import composition_envelope, fractional_constant
from toruswave.fields import (
    Field,
    GridSpec,
    VOLUME,
    hm_norms,
    random_band_limited,
    sobolev_norm,
    sup_norm,
)


def refine(u):
    """``u`` sampled on the doubled grid, through ``calibration._refine``."""
    return Field(GridSpec(2 * u.grid.n), _refine(np.fft.rfftn(u.values), u.grid.n))


class TestAliasFreeProduct:
    def test_matches_coarse_product_when_no_aliasing(self):
        grid = GridSpec(16)
        u = random_band_limited(grid, seed=11, band=2)
        v = random_band_limited(grid, seed=12, band=3)
        fine = alias_free_product(u, v)
        # band 5 product fits strictly inside the coarse grid, so the fine
        # samples at shared nodes must reproduce the coarse pointwise product
        coarse = u.values * v.values
        assert np.max(np.abs(fine.values[::2, ::2, ::2] - coarse)) < 1e-12

    def test_rejects_mismatched_grids(self):
        u = random_band_limited(GridSpec(8), seed=1, band=2)
        v = random_band_limited(GridSpec(16), seed=1, band=2)
        with pytest.raises(ValueError, match="disagree"):
            alias_free_product(u, v)

    def test_refine_preserves_norm_and_samples(self):
        u = random_band_limited(GridSpec(8), seed=5, band=3)
        fine = refine(u)
        assert fine.grid.n == 16
        assert sobolev_norm(fine, 3) == pytest.approx(sobolev_norm(u, 3), rel=1e-12)
        assert np.max(np.abs(fine.values[::2, ::2, ::2] - u.values)) < 1e-12


class TestDerivativeBlocks:
    def test_single_mode_blocks(self):
        grid = GridSpec(16)
        x1 = grid.coordinates()[0]
        u = Field(grid, np.broadcast_to(np.sin(x1), grid.shape).copy())
        _, *blocks = hm_norms(np.fft.rfftn(u.values), 3)
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
        exact = sup_norm(ext) / sobolev_norm(ext, 2)
        assert a.c_sobolev == b.c_sobolev == pytest.approx(SAFETY_MARGIN * exact, rel=1e-12)

    def test_constants_are_positive_and_finite(self, constants16):
        values = [constants16.c_sobolev, constants16.c_algebra]
        values += list(constants16.c_moser.values())
        assert all(math.isfinite(v) and v > 0.0 for v in values)
        assert sorted(constants16.c_moser) == [1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError, match="order"):
            calibrate(GridSpec(8), m=0)
        with pytest.raises(ValueError, match="fields"):
            calibrate(GridSpec(8), m=1, n_fields=2)

    def test_embedding_holds_on_fresh_fields(self, constants16):
        grid = GridSpec(16)
        for i in range(12):
            u = random_band_limited(grid, seed=90_000 + i, band=(i % 7) + 1)
            assert sup_norm(u) <= constants16.c_sobolev * sobolev_norm(u, 3)

    def test_algebra_holds_on_fresh_fields(self, constants16):
        grid = GridSpec(16)
        for i in range(12):
            u = random_band_limited(grid, seed=91_000 + i, band=(i % 7) + 1)
            v = random_band_limited(grid, seed=92_000 + i, band=((i + 3) % 7) + 1)
            product_norm = sobolev_norm(alias_free_product(u, v), 3)
            assert product_norm <= constants16.c_algebra * sobolev_norm(u, 3) * sobolev_norm(v, 3)

    def test_algebra_and_embedding_cover_near_constant_fields(self, constants16):
        # a pure constant maximizes ||uv|| / (||u|| ||v||) among slow fields;
        # late-time states are exactly of this shape, so it must be covered
        grid = GridSpec(16)
        x1 = grid.coordinates()[0]
        shapes = [np.full(grid.shape, 0.3)]
        shapes.append(0.3 * (1.0 + 0.5 * np.broadcast_to(np.cos(x1), grid.shape)))
        for values in shapes:
            u = Field(grid, values)
            norm = sobolev_norm(u, 3)
            assert sup_norm(u) <= constants16.c_sobolev * norm
            assert sobolev_norm(alias_free_product(u, u), 3) <= constants16.c_algebra * norm**2

    def test_composition_blocks_hold_on_fresh_fields(self, constants16):
        grid = GridSpec(16)
        for i in range(8):
            u = random_band_limited(grid, seed=93_000 + i, band=(i % 5) + 1, amplitude=0.4)
            fine = refine(u)
            ceiling = max(sup_norm(u), sup_norm(fine))
            _, *u_blocks = hm_norms(np.fft.rfftn(u.values), 3)
            for mu in (0.5, -0.5):
                _, *blocks = hm_norms(np.fft.rfftn((1.0 + fine.values) ** mu), 3)
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
            ceiling = min(max(sup_norm(u), sup_norm(fine)) + 1e-12, 0.999)
            for mu in (0.5, -0.5, 0.25):
                constant = fractional_constant(3, mu, ceiling, constants16.c_moser)
                lhs = sobolev_norm(Field(fine.grid, (1.0 + fine.values) ** mu), 3)
                assert lhs <= constant * sobolev_norm(u, 3) + VOLUME**0.5


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

    def test_grid_mismatch_refused(self, constants16):
        with pytest.raises(ValueError, match="refusing"):
            constants16.require_grid(GridSpec(8), 3)
        with pytest.raises(ValueError, match="refusing"):
            constants16.require_grid(GridSpec(16), 4)
        constants16.require_grid(GridSpec(16), 3)
        constants16.require_grid(GridSpec(16), 1)

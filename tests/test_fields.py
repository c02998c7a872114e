"""Transforms, norms, and decompositions against slow reference computations.

The transforms and derivatives tested here are the full-complex reference
toolkit of ``reference``, checked against direct sums and finite
differences; the norms are the package's half-layout ones, checked against
that toolkit.
"""

import numpy as np
import pytest

from toruswave.cli import _initial_field
from toruswave.fields import (
    GridSpec,
    TWO_PI,
    VOLUME,
    hm_norms,
    norm_weights,
    random_band_limited,
    refine,
)
from toruswave.verify import _oscillatory
from reference import (
    Spectrum,
    central_difference,
    direct_dft,
    grid_integral,
    inverse_transform,
    multi_indices,
    pad_spectrum,
    spectral_derivative,
    spectrum_norm,
    transform,
)


def trig_field(grid):
    x1, x2, x3 = grid.coordinates()
    values = np.sin(2 * x1) * np.cos(x2) + 0.5 * np.cos(3 * x3) + 0.25
    return values + 0 * x1 * x2 * x3


class TestTransform:
    def test_matches_direct_dft_sum(self):
        grid = GridSpec(8)
        field = random_band_limited(grid, seed=11, band=3)
        expected = direct_dft(field)
        got = transform(field).coeffs
        assert np.max(np.abs(got - expected)) < 1e-10
        # the package's half layout is the k3 >= 0 half of the same spectrum
        half = np.fft.rfftn(field) / grid.n**3
        assert np.max(np.abs(half - expected[..., : grid.n // 2 + 1])) < 1e-10

    def test_round_trip(self):
        grid = GridSpec(16)
        field = random_band_limited(grid, seed=5, band=7)
        back = inverse_transform(transform(field))
        assert np.max(np.abs(back - field)) < 1e-12 * np.max(np.abs(field))

    def test_single_mode_coefficients(self):
        # cos(k.x) carries 1/2 at +-k under the integral normalization.
        grid = GridSpec(8)
        x1, _, _ = grid.coordinates()
        field = np.broadcast_to(np.cos(2 * x1), grid.shape).copy()
        coeffs = transform(field).coeffs
        assert abs(coeffs[2, 0, 0] - 0.5) < 1e-13
        assert abs(coeffs[-2, 0, 0] - 0.5) < 1e-13
        coeffs[2, 0, 0] = 0.0
        coeffs[-2, 0, 0] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-13

    def test_parseval(self):
        grid = GridSpec(16)
        field = random_band_limited(grid, seed=3, band=5)
        spectral = hm_norms(np.fft.rfftn(field), 0)[0] ** 2
        physical = grid_integral(field**2)
        assert abs(spectral - physical) < 1e-12 * physical

    def test_rejects_non_finite_values(self):
        grid = GridSpec(4)
        values = np.zeros(grid.shape)
        values[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match=r"\(1, 2, 3\)"):
            _initial_field("initial.u0_coeffs", values)


class TestGridSpec:
    @pytest.mark.parametrize("n", [2, 5, 0, -4])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            GridSpec(n)

    def test_spacing(self):
        assert GridSpec(8).spacing == pytest.approx(TWO_PI / 8)


class TestDerivative:
    def test_analytic_trig_derivative(self):
        grid = GridSpec(16)
        x1, x2, x3 = grid.coordinates()
        field = trig_field(grid)
        # d/dx1 d/dx2 of sin(2 x1) cos(x2) is -2 cos(2 x1) sin(x2).
        expected = -2.0 * np.cos(2 * x1) * np.sin(x2) + 0 * x3
        got = inverse_transform(spectral_derivative(transform(field), (1, 1, 0)))
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_against_finite_differences(self):
        grid = GridSpec(32)
        field = random_band_limited(grid, seed=7, band=4)
        got = inverse_transform(spectral_derivative(transform(field), (0, 0, 1)))
        approx = central_difference(field, axis=2, spacing=grid.spacing)
        # Fourth-order stencil, h^4 error scale for band 4 content.
        scale = np.max(np.abs(field)) * 4**5 * grid.spacing**4
        assert np.max(np.abs(got - approx)) < scale

    def test_second_derivative_keeps_nyquist_sign_convention(self):
        # Even orders act diagonally with k^2, including the Nyquist plane.
        grid = GridSpec(8)
        x1 = grid.coordinates()[0]
        field = np.broadcast_to(np.cos(4 * x1), grid.shape).copy()
        got = inverse_transform(spectral_derivative(transform(field), (2, 0, 0)))
        assert np.max(np.abs(got + 16.0 * field)) < 1e-11

    def test_odd_order_zeroes_nyquist_plane(self):
        grid = GridSpec(8)
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        coeffs[4, 0, 0] = 1.0
        deriv = spectral_derivative(Spectrum(grid, coeffs), (1, 0, 0))
        assert np.all(deriv.coeffs == 0.0)

    @pytest.mark.parametrize("alpha", [(1, 2), (1, 1, -1), (0.5, 0, 0)])
    def test_rejects_bad_multi_index(self, alpha):
        grid = GridSpec(4)
        spec = transform(np.zeros(grid.shape))
        with pytest.raises(ValueError):
            spectral_derivative(spec, alpha)


class TestSobolevNorm:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_constant_field(self, m):
        # Frozen reference: ||c||_{H^m} = |c| (2pi)^{3/2} for every m.
        grid = GridSpec(8)
        field = np.full(grid.shape, -1.5)
        assert hm_norms(np.fft.rfftn(field), m)[0] == pytest.approx(
            1.5 * TWO_PI**1.5, rel=1e-13
        )

    def test_single_sine_h1(self):
        # Frozen reference: ||sin x1||_{H^1} = (2pi)^{3/2}.
        grid = GridSpec(8)
        x1 = grid.coordinates()[0]
        field = np.broadcast_to(np.sin(x1), grid.shape).copy()
        assert hm_norms(np.fft.rfftn(field), 1)[0] == pytest.approx(TWO_PI**1.5, rel=1e-13)

    def test_matches_termwise_derivative_sum(self):
        grid = GridSpec(16)
        field = random_band_limited(grid, seed=13, band=4)
        spectrum, raw = transform(field), np.fft.rfftn(field)
        for m in (1, 2, 3):
            total = 0.0
            for alpha in multi_indices(m):
                total += spectrum_norm(spectral_derivative(spectrum, alpha)) ** 2
            assert hm_norms(raw, m)[0] == pytest.approx(np.sqrt(total), rel=1e-12)

    def test_monotone_in_m(self):
        grid = GridSpec(16)
        field = random_band_limited(grid, seed=2, band=5)
        norms = [hm_norms(np.fft.rfftn(field), m)[0] for m in range(4)]
        assert all(a <= b for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize(
        "k, m, expected",
        [
            ((1, 0, 0), 3, 4.0),
            ((1, 1, 0), 3, 10.0),
            ((2, 0, 0), 2, 21.0),
            ((0, 0, 0), 3, 1.0),
            ((0, 0, 1), 3, 2 * 4.0),
            ((1, 0, 2), 1, 2 * 6.0),
            ((0, 0, 4), 1, 17.0),
        ],
    )
    def test_weight_values(self, k, m, expected):
        # Hand-enumerated multi-index sums for small wave vectors, indexed in
        # the (8, 8, 5) half layout: the k3 = 0 and k3 = 4 planes count once,
        # the planes between them twice (for k and -k).
        weight = norm_weights(8, m)[0]
        assert weight[k] == pytest.approx(expected, rel=1e-14)

    def test_rejects_negative_order(self):
        grid = GridSpec(4)
        with pytest.raises(ValueError):
            hm_norms(np.fft.rfftn(np.zeros(grid.shape)), -1)


class TestMeanSplit:
    def test_pythagorean_identity(self):
        # the mean is c(0) / n^3; removing it zeroes that one raw coefficient
        grid = GridSpec(16)
        field = random_band_limited(grid, seed=21, band=5)
        field = field + 0.7
        raw = np.fft.rfftn(field)
        oscillatory = _oscillatory(raw)
        mean = raw[0, 0, 0].real / grid.n**3
        assert raw[0, 0, 0] != 0.0 and oscillatory[0, 0, 0] == 0.0
        assert mean == pytest.approx(np.mean(field), rel=1e-14)
        assert abs(np.fft.irfftn(oscillatory, s=grid.shape, axes=(0, 1, 2)).mean()) < 1e-14
        lhs = spectrum_norm(transform(field)) ** 2
        rhs = hm_norms(oscillatory, 0)[0] ** 2 + VOLUME * mean**2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_wirtinger_inequality(self):
        # Zero-mean fields: ||v|| <= ||grad v||.
        grid = GridSpec(16)
        for seed in range(6):
            v = random_band_limited(grid, seed=seed, band=5, zero_mean=True)
            spectrum = transform(v)
            grad_sq = sum(
                spectrum_norm(spectral_derivative(spectrum, alpha)) ** 2
                for alpha in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            )
            assert spectrum_norm(spectrum) <= np.sqrt(grad_sq) * (1 + 1e-12)

    def test_wirtinger_equality_for_first_mode(self):
        grid = GridSpec(8)
        x1 = grid.coordinates()[0]
        v = np.broadcast_to(np.sin(x1), grid.shape).copy()
        spectrum = transform(v)
        grad = np.sqrt(
            sum(
                spectrum_norm(spectral_derivative(spectrum, alpha)) ** 2
                for alpha in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            )
        )
        assert abs(spectrum_norm(spectrum) - grad) < 1e-12 * grad


class TestPadding:
    def test_padded_product_is_alias_free(self):
        grid = GridSpec(8)
        x1, x2, _ = grid.coordinates()
        u = np.broadcast_to(np.cos(3 * x1), grid.shape)
        v = np.broadcast_to(np.cos(2 * x1) * np.sin(x2), grid.shape)
        product = refine(np.fft.rfftn(u), 8) * refine(np.fft.rfftn(v), 8)
        assert product.shape == GridSpec(16).shape
        y1, y2, _ = GridSpec(16).coordinates()
        expected = np.cos(3 * y1) * np.cos(2 * y1) * np.sin(y2)
        assert np.max(np.abs(product - expected)) < 1e-12

    def test_padding_preserves_norms(self):
        grid = GridSpec(8)
        field = random_band_limited(grid, seed=4, band=3)
        padded = inverse_transform(pad_spectrum(transform(field), 20))
        for m in (0, 2):
            assert hm_norms(np.fft.rfftn(padded), m)[0] == pytest.approx(
                hm_norms(np.fft.rfftn(field), m)[0], rel=1e-12
            )


class TestRandomFields:
    def test_deterministic_and_band_limited(self):
        grid = GridSpec(16)
        a = random_band_limited(grid, seed=9, band=3)
        b = random_band_limited(grid, seed=9, band=3)
        assert np.array_equal(a, b)
        coeffs = np.fft.rfftn(a) / 16**3
        k = np.fft.fftfreq(16, d=1 / 16)
        outside = (np.abs(k[:, None, None]) > 3) | (np.abs(k[None, :, None]) > 3)
        outside = outside | (np.abs(k[None, None, :9]) > 3)
        assert np.max(np.abs(coeffs[outside])) < 1e-15

    def test_amplitude_and_zero_mean(self):
        grid = GridSpec(16)
        field = random_band_limited(grid, seed=1, band=4, amplitude=0.25, zero_mean=True)
        assert np.max(np.abs(field)) == pytest.approx(0.25, rel=1e-12)
        assert abs(np.mean(field)) < 1e-15

    def test_band_validation(self):
        with pytest.raises(ValueError):
            random_band_limited(GridSpec(8), seed=0, band=4)

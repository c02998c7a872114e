"""One spectral layout: every symbol, weight and check on the real-FFT half spectrum.

The package builds its symbols and weights directly on the (n, n, n/2 + 1)
layout ``np.fft.rfftn`` returns and runs no full-complex FFT anywhere.  The
full-lattice toolkit of ``reference`` is the oracle: a reduction weight is
the full weight on k3 = 0 .. n/2 times the plane multiplicity 1, 2, ..., 2, 1,
and every quantity built on the half layout matches the full-complex one.
"""

import inspect
import math
import warnings

import numpy as np
import pytest

from toruswave import calibration, energy
from toruswave.calibration import _embedding_extremizer, calibrate
from toruswave.cli import CONSTANTS_ENV, run_scenario
from toruswave.energy import modified_energy
from toruswave.fields import (
    GridSpec,
    gradient_symbol,
    hm_norms,
    laplacian_symbol,
    norm_weights,
    random_band_limited,
)
from toruswave.solver import SolverConfig, SolverState, dealias_mask, simulate
from toruswave.source import ModelParams, SourceSpec, eval_prepared, prepare_source
from toruswave.verify import _spectral_tail_fraction, check_algebra_final
import reference
from reference import (
    block_sample,
    full_dealias_mask,
    full_derivative_weight,
    full_laplacian_symbol,
    full_sobolev_weight,
    spectrum_norm,
    trajectory_from_rows,
    transform,
    white_noise,
)

ARTIFACTS = ("constants.txt", "resolved.cfg", "timeseries.csv", "report.txt", "report.csv")


def folded(full):
    """A full-lattice weight as a half-layout reduction weight."""
    n = full.shape[-1]
    multiplicity = np.full(n // 2 + 1, 2.0)
    multiplicity[[0, -1]] = 1.0
    return full[..., : n // 2 + 1] * multiplicity


def columns(n, m):
    """The rows S_m, D_1, ..., D_m of ``norm_weights(n, m)`` on the half layout."""
    return list(norm_weights(n, m))


@pytest.mark.parametrize("n", [4, 6, 8, 16, 32])
def test_weights_are_the_full_weights_folded(n):
    half = np.s_[..., : n // 2 + 1]
    d_0 = columns(n, 0)[0]  # D_0 = S_0: the multiplicity alone
    for m in range(5):
        s_m, *blocks = columns(n, m)
        assert np.array_equal(s_m, folded(full_sobolev_weight(n, m)))
        orders = [d_0] + blocks  # D_lowest + ... + D_m is the derivative weight
        for lowest in range(m + 1):
            want = folded(full_derivative_weight(n, m, lowest))
            assert np.array_equal(sum(orders[lowest:]), want)
    # per-mode symbols carry no multiplicity
    assert np.array_equal(laplacian_symbol(n), full_laplacian_symbol(n)[half])
    assert np.array_equal(gradient_symbol(n), full_derivative_weight(n, 1, lowest=1)[half])
    assert np.array_equal(dealias_mask(n), full_dealias_mask(n)[half])


def test_norm_weights_leave_no_block_arrays_cached():
    # a grid size no other test uses, so the cache of fields starts without it
    n, m = 14, 2
    before = norm_weights.cache_info().currsize
    weights = norm_weights(n, m)
    assert norm_weights.cache_info().currsize == before + 1
    assert not weights.flags.writeable
    assert weights.flags.c_contiguous
    assert weights.shape == (m + 1, n, n, n // 2 + 1)
    assert np.array_equal(weights[0], folded(full_sobolev_weight(n, m)))
    for k in range(1, m + 1):
        assert np.array_equal(weights[k], folded(full_derivative_weight(n, k, lowest=k)))
    # norms and energies add only the m = 0 weights, whose S_0 row is E_m's D_0 term
    u, ut = white_noise(n, 1), white_noise(n, 2)
    raw, raw_t = np.fft.rfftn(u), np.fft.rfftn(ut)
    hm_norms(raw, m)
    modified_energy(u, ut, 0.5, m)
    block_sample(0.0, u, raw, raw_t, raw, 0.5, m)
    assert norm_weights.cache_info().currsize == before + 2
    # and no module outside fields keeps a cache of its own
    for module in (calibration, energy):
        own = [f for f in vars(module).values() if getattr(f, "__module__", "") == module.__name__]
        assert not any(hasattr(f, "cache_info") for f in own)


@pytest.mark.parametrize("n, band", [(8, 1), (8, 3), (16, 4), (16, 7), (32, 5)])
@pytest.mark.parametrize("zero_mean", [False, True])
def test_random_band_limited_matches_full_complex_draw(n, band, zero_mean):
    grid = GridSpec(n)
    got = random_band_limited(grid, seed=n + band, band=band, amplitude=0.3, zero_mean=zero_mean)
    want = reference.random_band_limited(grid, n + band, band, 0.3, zero_mean)
    assert np.max(np.abs(got - want)) <= 1e-14 * 0.3


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_embedding_extremizer_matches_full_complex(n, m):
    got = _embedding_extremizer(GridSpec(n), m)
    want = reference.embedding_extremizer(GridSpec(n), m)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_field_family_is_a_stream():
    family = calibration._field_family(GridSpec(8), 3, 2024, 12)
    assert inspect.isgenerator(family)
    members = list(family)
    assert len(members) == 12 + 5
    assert all(isinstance(u, np.ndarray) and u.shape == GridSpec(8).shape for u in members)


def final_state_trajectory(u, m=3):
    raw = np.fft.rfftn(u)
    return trajectory_from_rows(
        [block_sample(0.1, u, raw, raw, raw, 0.5, m)],
        params=ModelParams(omega=0.5, kappa=0.25, mu=0.5, m=m),
        config=SolverConfig(GridSpec(u.shape[0]), dt=0.1, t_end=0.1),
        final_state=SolverState(0.1, raw, raw),
    )


@pytest.mark.parametrize("n", [8, 16])
def test_algebra_final_matches_full_complex_measurement(n):
    u = random_band_limited(GridSpec(n), seed=3, band=n // 2 - 1, amplitude=0.5)
    constants = calibrate(GridSpec(n), 3, n_fields=4)
    result = check_algebra_final(final_state_trajectory(u), constants)
    fine = reference.inverse_transform(reference.pad_spectrum(transform(u), 2 * n))
    lhs = spectrum_norm(transform(fine**2), 3)
    rhs = constants.c_algebra * spectrum_norm(transform(u), 3) ** 2
    assert result.worst_margin == pytest.approx((rhs - lhs) / rhs, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("n", [8, 16])
def test_spectral_tail_fraction_matches_full_complex(n):
    u = white_noise(n, 40 + n)
    spectrum = transform(u)
    weight = full_sobolev_weight(n, 4)
    total = reference.weighted_norm_sq(spectrum, weight)
    tail = reference.weighted_norm_sq(spectrum, weight * ~full_dealias_mask(n))
    got = _spectral_tail_fraction(final_state_trajectory(u))
    assert got == pytest.approx(math.sqrt(tail / total), rel=1e-13)


def overflow_case():
    grid = GridSpec(8)
    params = ModelParams(omega=0.5, kappa=0.25, mu=-40.0)
    u0 = np.full(grid.shape, -1.0 + 1e-10)
    return grid, params, SourceSpec(amplitude=0.5), u0


def test_overflowing_power_reports_breakdown():
    grid, params, spec, u0 = overflow_case()
    prepared = prepare_source(spec, grid, params.m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, u_min, failed = eval_prepared(0.0, u0[None], [params], [prepared])
    assert list(failed) == [0] and "overflow" in failed[0]
    assert "at t = 0:" in failed[0] and u_min[0] == pytest.approx(-1.0 + 1e-10)


def test_overflowing_force_is_a_breakdown_not_an_error():
    # (1e-10)^-40 overflows: simulate returns a breakdown at t = 0, no NaN
    # sample, and no floating-point warning on the way
    grid, params, spec, u0 = overflow_case()
    config = SolverConfig(grid=grid, dt=0.1, t_end=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajectory = simulate(u0, np.zeros(grid.shape), params, spec, config)
    assert trajectory.breakdown.t == 0.0 and trajectory.breakdown.step == 0
    assert "overflow" in trajectory.breakdown.reason
    assert len(trajectory.table) == 0 and trajectory.final_state is None


def test_no_full_complex_fft_runs(tmp_path, monkeypatch):
    # the flagship at n = 8, calibrating on the fly, with fftn/ifftn unusable
    def refuse(*args, **kwargs):
        raise AssertionError("a full-complex FFT ran")

    monkeypatch.delenv(CONSTANTS_ENV, raising=False)
    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    out = tmp_path / "out"
    assert run_scenario("flagship", out, grid_n=8) == 0
    for name in ARTIFACTS:
        assert (out / name).is_file() and (out / name).stat().st_size > 0

"""The loop's transforms: dense DFT products up to ``DFT_MAX_N``, ``np.fft`` above.

``solver._rfftn``/``_irfftn`` stand for ``np.fft.rfftn``/``irfftn`` over axes
(1, 2, 3) of a stack.  On small grids they are products with the cached
tables of ``_dft_tables``; they must agree with ``np.fft`` to roundoff, ignore
what ``irfftn`` ignores, keep each slot of a batch as its solo run has it, and
hand over to ``np.fft`` bit for bit above the crossover.
"""

import numpy as np
import pytest

from toruswave import solver
from toruswave.fields import GridSpec
from toruswave.solver import DFT_MAX_N, SolverConfig, simulate, simulate_batch
from toruswave.source import ModelParams, SourceSpec, eval_prepared, prepare_source

DFT_GRIDS = range(4, DFT_MAX_N + 1, 2)
# the largest error over 40 white-noise stacks per grid was 1.26e-15 of the
# largest coefficient (forward) or grid value (inverse)
REL_DFT = 2.5e-15


def noise(n, batch, seed=0):
    """Gaussian samples: every mode is populated, Nyquist planes too."""
    return np.random.default_rng(seed).standard_normal((batch, n, n, n))


def self_conjugate(n):
    """Index of the 8 modes whose k equals -k: every k_i in {0, n/2}."""
    ends = np.array([0, n // 2])
    return np.ix_(range(1), ends, ends, ends)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("n", DFT_GRIDS)
def test_products_match_numpy_fft(n, batch):
    f = noise(n, batch, seed=n)
    want = np.fft.rfftn(f, axes=(1, 2, 3))
    got = solver._rfftn(f)
    assert got.shape == want.shape and got.dtype == np.complex128
    assert np.max(np.abs(got - want)) <= REL_DFT * np.max(np.abs(want))
    back = np.fft.irfftn(want, s=(n, n, n), axes=(1, 2, 3))
    got_back = solver._irfftn(want)
    assert got_back.shape == back.shape and got_back.dtype == np.float64
    assert np.max(np.abs(got_back - back)) <= REL_DFT * np.max(np.abs(back))


@pytest.mark.parametrize("n", DFT_GRIDS)
def test_tables_are_cached_read_only_and_exact_at_quarter_turns(n):
    tables = solver._dft_tables(n)
    assert solver._dft_tables(n) is tables
    half, full, full_inverse, half_inverse = tables
    residue = np.outer(np.arange(n), np.arange(n)) % n
    for quarter, value in enumerate((1, -1j, -1, 1j)):  # exp(-2 pi i q / 4)
        exact = 4 * residue == quarter * n
        assert np.all(full[exact] == value) and np.all(full_inverse[exact] == np.conj(value))
    assert np.all(half[:, [1, n + 1]] == 0.0)  # -sin columns of k3 = 0 and n/2
    assert np.all(half_inverse[[1, n + 1]] == 0.0)  # their rows in the inverse


@pytest.mark.parametrize("n", DFT_GRIDS)
def test_half_axis_ignores_imaginary_parts_of_the_end_planes(n):
    # the last product of the inverse reads the interleaved (Re, Im) of
    # k3 = 0 .. n/2; changing Im of k3 = 0 and n/2 leaves every bit
    half, _, _, half_inverse = solver._dft_tables(n)
    rng = np.random.default_rng(n)
    z = rng.standard_normal((3, n * n, n + 2))
    perturbed = z.copy()
    perturbed[..., [1, n + 1]] = rng.standard_normal((3, n * n, 2)) * 1e3
    assert np.array_equal(z @ half_inverse, perturbed @ half_inverse)
    # and the first product of the forward pass leaves them exact zeros
    forward = (noise(n, 3).reshape(3, n * n, n) @ half).view(np.complex128)
    assert np.all(forward[..., [0, n // 2]].imag == 0.0)


@pytest.mark.parametrize("n", DFT_GRIDS)
def test_self_conjugate_modes_are_real_both_ways(n):
    # the 8 modes with k = -k: the forward pass gives them no imaginary part,
    # and the inverse ignores it bit for bit, as np.fft.irfftn does
    f = noise(n, 1, seed=3)
    raw = solver._rfftn(f)
    assert np.all(raw[self_conjugate(n)].imag == 0.0)
    perturbed = raw.copy()
    perturbed[self_conjugate(n)] += 1j * np.random.default_rng(4).standard_normal((1, 2, 2, 2))
    assert np.array_equal(solver._irfftn(perturbed), solver._irfftn(raw))
    s, axes = (n, n, n), (1, 2, 3)
    assert np.array_equal(np.fft.irfftn(perturbed, s=s, axes=axes), np.fft.irfftn(raw, s=s, axes=axes))


def test_first_grid_above_the_crossover_is_numpy_fft_bit_for_bit():
    n = DFT_MAX_N + 2
    grid = GridSpec(n)
    params = ModelParams(omega=0.5, kappa=0.25, mu=0.5)
    prepared = prepare_source(SourceSpec(amplitude=0.5, preset="band", seed=2), grid, params.m)
    stepper = solver._Stepper([params, params], [prepared, prepared],
                              SolverConfig(grid=grid, dt=0.05, t_end=1.0))
    u_hat = np.fft.rfftn(0.1 * noise(n, 2), axes=(1, 2, 3))
    f_hat, _, _ = stepper.force(0.3, u_hat)
    want_u = np.fft.irfftn(u_hat, s=grid.shape, axes=(1, 2, 3))
    assert np.array_equal(solver._irfftn(u_hat), want_u)
    want_f = eval_prepared(0.3, want_u, stepper.params, stepper.prepared)[0]
    assert np.array_equal(f_hat, np.fft.rfftn(want_f, s=grid.shape, axes=(1, 2, 3)))


def test_every_slot_of_a_batch_at_n16_matches_its_solo_run():
    grid = GridSpec(16)
    x1, x2, x3 = grid.coordinates()
    wave = np.cos(x1 + 2 * x2 - x3) + np.zeros(grid.shape)
    runs = [
        (0.1 * wave, 0.0 * wave, ModelParams(omega=0.5, kappa=0.25, mu=0.5),
         SourceSpec(amplitude=0.02, preset="bump")),
        (0.2 * wave, 0.3 * wave, ModelParams.from_equation_of_state(0.6, 0.75),
         SourceSpec(amplitude=0.05, sigma="cos", sigma_rate=2.0)),
        (0.3 * wave + 0.1, 0.1 * wave, ModelParams(omega=0.4, kappa=0.3, mu=2.0),
         SourceSpec(amplitude=0.1, preset="band", seed=3)),
    ]
    config = SolverConfig(grid=grid, dt=0.05, t_end=0.6, sample_every=3)
    u0, u1, params, sources = zip(*runs)
    batch = simulate_batch(np.stack(u0), np.stack(u1), list(params), list(sources), config)
    for got, (a, b, p, s) in zip(batch, runs):
        want = simulate(a, b, p, s, config)
        assert got.breakdown is None and want.breakdown is None
        assert np.array_equal(got.table, want.table)  # every float, exactly
        assert np.array_equal(got.final_state.u_hat, want.final_state.u_hat)
        assert np.array_equal(got.final_state.ut_hat, want.final_state.ut_hat)

"""One grid buffer per force: ``eval_prepared`` builds 1 + u, the power, the
profile and the envelope in one array, and every force of the loop writes F
over the grid array of its inverse transform; a sample reads only the force's
spectrum and minima, never the grid arrays.

F written into a reused buffer must hold the bits of a fresh evaluation, a
batch's slice those of its solo run, and a force must allocate one n^3 grid
array, the inverse transform's (``tracemalloc``).
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from toruswave import solver
from toruswave.energy import COLUMNS
from toruswave.fields import GridSpec
from toruswave.solver import SolverConfig, simulate, simulate_batch
from toruswave.source import ModelParams, SourceSpec, eval_prepared, prepare_source


def noise(grid, seed, scale=0.2):
    return scale * np.random.default_rng(seed).standard_normal(grid.shape)


def force_inputs(grid, mus):
    params = [ModelParams(omega=0.5, kappa=0.25 + 0.1 * b, mu=mu) for b, mu in enumerate(mus)]
    sources = [SourceSpec(amplitude=0.3, preset=preset, sigma="cos", seed=b)
               for b, preset in enumerate(["bump", "band", "single-mode", "uniform"][: len(mus)])]
    prepared = [prepare_source(s, grid, p.m) for s, p in zip(sources, params)]
    u = np.stack([noise(grid, b) for b in range(len(mus))])
    return u, params, prepared


@pytest.mark.parametrize("mus", [(0.5,), (0.5, 0.5, 0.5), (0.5, 1.0 / 3.0, 2.0, -0.5)],
                         ids=["solo", "one-mu", "mixed-mu"])
def test_f_over_u_holds_the_bits_of_a_fresh_evaluation(mus):
    grid = GridSpec(8)
    u, params, prepared = force_inputs(grid, mus)
    u[-1, 0, 0, 0] = -2.0  # the last slot fails: its NaN base stays in its own slice
    fresh, lows, failed = eval_prepared(0.7, u, params, prepared)
    buffer = u.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, buffer_lows, buffer_failed = eval_prepared(0.7, buffer, params, prepared, out=buffer)
    assert f is buffer
    assert buffer_failed == failed == {len(mus) - 1: "1 + u reached -1 at t = 0.7"}
    assert buffer_lows.tobytes() == lows.tobytes()
    assert f[:-1].tobytes() == fresh[:-1].tobytes() and np.isnan(f[-1]).all()


@pytest.mark.parametrize("n", [8, 20])  # dense DFT products and np.fft
def test_a_force_is_eval_prepared_between_the_two_transforms(n):
    grid = GridSpec(n)
    u, params, prepared = force_inputs(grid, (0.5, 2.0))
    stepper = solver._Stepper(params, prepared, SolverConfig(grid=grid, dt=0.05, t_end=1.0))
    u_hat = np.fft.rfftn(u, axes=(1, 2, 3))
    want_u = solver._irfftn(u_hat)
    want_f, want_min, _ = eval_prepared(0.3, want_u, params, prepared)
    want_f_hat = solver._rfftn(want_f)
    f_hat, u_min, failed = stepper.force(0.3, u_hat)
    assert failed == {} and u_min.tobytes() == want_min.tobytes()
    assert f_hat.tobytes() == want_f_hat.tobytes()


@pytest.mark.parametrize("n", [8, 20])
def test_a_slice_of_a_mixed_mu_batch_is_its_solo_run(n):
    grid = GridSpec(n)
    config = SolverConfig(grid=grid, dt=0.05, t_end=0.5, sample_every=3)
    params = [ModelParams.from_equation_of_state(2.0 / 3.0, 0.5),  # mu = 0.5
              ModelParams.from_equation_of_state(0.6, 0.4),  # mu = 1/3
              ModelParams(omega=0.4, kappa=0.3, mu=2.0),
              ModelParams.from_equation_of_state(2.0 / 3.0, 0.7)]
    sources = [SourceSpec(amplitude=0.05, preset=preset, seed=1)
               for preset in ("bump", "band", "single-mode", "uniform")]
    u0 = np.stack([noise(grid, 10 + b, 0.05) for b in range(4)])
    u1 = np.stack([noise(grid, 20 + b, 0.05) for b in range(4)])
    batch = simulate_batch(u0, u1, params, sources, config)
    for b, got in enumerate(batch):
        want = simulate(u0[b], u1[b], params[b], sources[b], config)
        assert got.breakdown is None and got.table.tobytes() == want.table.tobytes()
        assert got.final_state.u_hat.tobytes() == want.final_state.u_hat.tobytes()
        assert got.final_state.ut_hat.tobytes() == want.final_state.ut_hat.tobytes()


@pytest.mark.parametrize("n", [8, 20])  # dense DFT products and np.fft
def test_recorded_means_are_the_zero_coefficients_over_n_cubed(n):
    # each run's u_mean and f_mean at t_k are, bit for bit, the real parts of the
    # k = 0 coefficients of its state at t_k (the final state of its run to t_k)
    # and of its force there, over n^3, in its solo run and in a batch
    grid = GridSpec(n)
    config = SolverConfig(grid=grid, dt=0.05, t_end=0.3, sample_every=2)
    params = [ModelParams.from_equation_of_state(2.0 / 3.0, 0.5),
              ModelParams(omega=0.4, kappa=0.3, mu=2.0)]
    sources = [SourceSpec(amplitude=0.05, preset=preset, seed=1) for preset in ("bump", "uniform")]
    u0 = np.stack([noise(grid, 10 + b, 0.05) + 0.01 for b in range(2)])
    u1 = np.stack([noise(grid, 20 + b, 0.05) for b in range(2)])
    batch = simulate_batch(u0, u1, params, sources, config)
    columns = [1 + COLUMNS.index("u_mean"), 1 + COLUMNS.index("f_mean")]
    for b, in_batch in enumerate(batch):
        solo = simulate(u0[b], u1[b], params[b], sources[b], config)
        prepared = prepare_source(sources[b], grid, params[b].m)
        stepper = solver._Stepper([params[b]], [prepared], config)
        assert solo.breakdown is None and len(solo.table) == 4  # t = 0, 0.1, 0.2, 0.3
        for row_solo, row_batch in zip(solo.table, in_batch.table):
            t = row_solo[0]
            if t == 0.0:
                u_hat = np.fft.rfftn(u0[b])
            else:
                to_t = dataclasses.replace(config, t_end=t)
                u_hat = simulate(u0[b], u1[b], params[b], sources[b], to_t).final_state.u_hat
            f_hat = stepper.force(t, u_hat[None])[0][0]
            want = [u_hat[0, 0, 0].real / n**3, f_hat[0, 0, 0].real / n**3]
            assert row_solo[columns].tolist() == row_batch[columns].tolist() == want


@pytest.mark.parametrize("n", [8, 20])
def test_initial_velocity_mean_is_the_zero_coefficient_over_n_cubed(n):
    # u1_mean, which gates the mean-mode check, takes the convention of the
    # recorded means: the real part of c(0) of rfftn(u1) over n^3, not a grid
    # mean, bit for bit in a solo run and in a batch
    grid = GridSpec(n)
    config = SolverConfig(grid=grid, dt=0.05, t_end=0.1)
    params = [ModelParams(omega=0.5, kappa=0.25, mu=0.5)] * 3
    sources = [SourceSpec(amplitude=0.0)] * 3
    u0 = np.zeros((3, *grid.shape))
    u1 = np.stack([noise(grid, 30 + b, 0.05) + 0.01 * b for b in range(3)])
    batch = simulate_batch(u0, u1, params, sources, config)
    for b, in_batch in enumerate(batch):
        solo = simulate(u0[b], u1[b], params[b], sources[b], config)
        want = np.fft.rfftn(u1[b])[0, 0, 0].real / n**3
        assert solo.u1_mean == in_batch.u1_mean == want


def traced_peak(call):
    """``call()`` and the peak of traced memory above what was traced at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("at", ["step", "sample"])
def test_a_force_allocates_one_grid_array_at_n32(monkeypatch, at):
    # the force's peak is its transforms' own: the inverse transform's output,
    # which then holds F, beside the forward transform's working set.  The loop
    # forces twice per step: F(t) at the state, which its sample and its step
    # share ("sample"), and F(t + dt) at the predicted state in ``advance`` ("step")
    n = 32
    grid = GridSpec(n)
    u, params, prepared = force_inputs(grid, (0.5,))
    stepper = solver._Stepper(params, prepared, SolverConfig(grid=grid, dt=0.05, t_end=1.0))
    u_hat = np.fft.rfftn(u, axes=(1, 2, 3))
    t = 0.3
    if at == "step":
        ut_hat = np.fft.rfftn(noise(grid, 7)[None], axes=(1, 2, 3))
        f0_hat = stepper.force(t, u_hat)[0]
        u_hat = stepper.p11 * u_hat + stepper.p12 * ut_hat + stepper.wu * f0_hat
        t += stepper.config.dt
        del ut_hat, f0_hat
    grid_bytes = u.nbytes
    inverse, inverse_peak = traced_peak(lambda: solver._irfftn(u_hat))
    _, forward_peak = traced_peak(lambda: solver._rfftn(inverse))
    inverses, forces = [], []
    irfftn, evaluate = solver._irfftn, solver.eval_prepared

    def recorded_irfftn(raw):
        inverses.append(irfftn(raw))
        return inverses[-1]

    def recorded_eval(*args, **kwargs):
        result = evaluate(*args, **kwargs)
        forces.append(result[0])
        return result

    monkeypatch.setattr(solver, "_irfftn", recorded_irfftn)
    monkeypatch.setattr(solver, "eval_prepared", recorded_eval)
    (_, _, failed), peak = traced_peak(lambda: stepper.force(t, u_hat))
    assert failed == {} and forces[0] is inverses[0]  # F went into the inverse's array
    assert peak <= max(inverse_peak, grid_bytes + forward_peak) + grid_bytes // 8

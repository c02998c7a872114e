"""One grid buffer per force: ``eval_prepared`` builds 1 + u, the power, the
profile and the envelope in one array, and every force of the loop writes F
over the grid array of its inverse transform; a sample's force hands its
sample the grid sums of u and F instead of the arrays.

F written into a reused buffer must hold the bits of a fresh evaluation, a
batch's slice those of its solo run, and a force must allocate one n^3 grid
array, the inverse transform's (``tracemalloc``).
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from toruswave import solver
from toruswave.energy import grid_sums
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
    for sums in (False, True):
        u_sum, f_sum, f_hat, u_min, failed = stepper.force(0.3, u_hat, sums=sums)
        assert failed == {} and u_min.tobytes() == want_min.tobytes()
        assert f_hat.tobytes() == want_f_hat.tobytes()
    assert u_sum.tobytes() == grid_sums(want_u).tobytes()
    assert f_sum.tobytes() == grid_sums(want_f).tobytes()
    assert stepper.force(0.3, u_hat)[:2] == (None, None)


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


def traced_peak(call):
    """``call()`` and the peak of traced memory above what was traced at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sums", [False, True], ids=["step", "sample"])
def test_a_force_allocates_one_grid_array_at_n32(monkeypatch, sums):
    # the force's peak is its transforms' own: the inverse transform's output,
    # which then holds F, beside the forward transform's working set
    n = 32
    grid = GridSpec(n)
    u, params, prepared = force_inputs(grid, (0.5,))
    stepper = solver._Stepper(params, prepared, SolverConfig(grid=grid, dt=0.05, t_end=1.0))
    u_hat = np.fft.rfftn(u, axes=(1, 2, 3))
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
    (_, _, _, _, failed), peak = traced_peak(lambda: stepper.force(0.3, u_hat, sums=sums))
    assert failed == {} and forces[0] is inverses[0]  # F went into the inverse's array
    assert peak <= max(inverse_peak, grid_bytes + forward_peak) + grid_bytes // 8

"""The batched time loop: B runs in one loop, each with its solo run's bits.

``simulate_batch`` stacks runs that share the grid, dt, horizon and sampling
along a leading axis.  Every run must come out as ``simulate`` gives it alone:
the same samples, breakdown and final state, bit for bit, whatever else is in
its batch, including runs that break down before it, after it or at step 0.
"""

import warnings

import numpy as np
import pytest

from toruswave import solver
from toruswave.fields import GridSpec
from toruswave.solver import SolverConfig, batch_size, simulate, simulate_batch
from toruswave.source import (
    BreakdownError,
    ModelParams,
    PointBreakdowns,
    SourceSpec,
    eval_prepared,
    prepare_source,
)

GRID = GridSpec(8)
CONFIG = SolverConfig(grid=GRID, dt=0.05, t_end=3.0, sample_every=3)


def wave(amplitude, offset=0.0):
    """offset + amplitude cos(x1 + 2 x2 - x3) on the grid."""
    x1, x2, x3 = GRID.coordinates()
    return offset + amplitude * np.cos(x1 + 2 * x2 - x3) + np.zeros(GRID.shape)


# (u0, u1, params, source): the runs of one batch.  Different omega, kappa
# and mu per run; run 2 breaks down at step 0 (1 + u0 < 0), run 3 part way
# (its velocity drives 1 + u through zero), run 5 with an integer mu.
RUNS = [
    (wave(0.1), wave(0.0), ModelParams(omega=0.5, kappa=0.25, mu=0.5),
     SourceSpec(amplitude=0.02, preset="bump")),
    (wave(0.2), wave(0.3), ModelParams.from_equation_of_state(0.6, 0.75),
     SourceSpec(amplitude=0.05, sigma="cos", sigma_rate=2.0)),
    (wave(1.5), wave(0.0), ModelParams(omega=0.5, kappa=0.25, mu=0.5),
     SourceSpec(amplitude=0.01)),
    (wave(0.5), wave(3.0), ModelParams(omega=0.3, kappa=0.2, mu=-0.5),
     SourceSpec(amplitude=0.01, preset="single-mode")),
    (wave(0.0), wave(0.0), ModelParams(omega=0.5, kappa=0.25, mu=0.5),
     SourceSpec(amplitude=0.0)),
    (wave(0.3, 0.1), wave(0.1), ModelParams(omega=0.4, kappa=0.3, mu=2.0),
     SourceSpec(amplitude=0.1, preset="band", seed=3)),
]


def run_batch(runs, config=CONFIG):
    u0, u1, params, sources = zip(*runs)
    return simulate_batch(np.stack(u0), np.stack(u1), list(params), list(sources), config)


def run_alone(run, config=CONFIG):
    u0, u1, params, source = run
    return simulate(u0, u1, params, source, config)


def assert_same_run(got, want):
    assert got.samples == want.samples  # dataclass equality: every float, exactly
    assert got.breakdown == want.breakdown
    assert got.source_amplitude == want.source_amplitude and got.u1_mean == want.u1_mean
    if want.final_state is None:
        assert got.final_state is None
        return
    assert got.final_state.t == want.final_state.t
    assert np.array_equal(got.final_state.u_hat, want.final_state.u_hat)
    assert np.array_equal(got.final_state.ut_hat, want.final_state.ut_hat)


def test_every_run_of_a_batch_matches_its_solo_run():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = run_batch(RUNS)
    alone = [run_alone(run) for run in RUNS]
    for got, want in zip(batch, alone):
        assert_same_run(got, want)
    # the batch covers what it claims: breakdowns at step 0 and part way, and
    # runs that go the distance
    assert batch[2].breakdown.step == 0 and batch[2].samples == []
    assert 0 < batch[3].breakdown.step < CONFIG.n_steps and batch[3].samples
    assert all(batch[i].breakdown is None for i in (0, 1, 4, 5))


@pytest.mark.parametrize("order", [(3, 0), (0, 3), (2, 3, 0), (5, 1)])
def test_a_run_does_not_depend_on_its_batch(order):
    runs = [RUNS[i] for i in order]
    for got, index in zip(run_batch(runs), order):
        assert_same_run(got, run_alone(RUNS[index]))


def test_a_non_finite_slot_leaves_the_batch(monkeypatch):
    # the step ending at step 8 leaves run 1's u_t infinite: run 1 stops at
    # step 8 as it does alone, and the runs around it go on untouched
    broken = RUNS[1][2]
    advance = solver._Stepper.advance

    def overflowing(self, t, *args):
        u_hat, ut_hat = advance(self, t, *args)
        if t == 7 * CONFIG.dt and broken in self.params:
            ut_hat = ut_hat.copy()
            ut_hat[self.params.index(broken), 0, 0, 0] = np.inf
        return u_hat, ut_hat

    monkeypatch.setattr(solver._Stepper, "advance", overflowing)
    runs = [RUNS[0], RUNS[1], RUNS[4]]
    batch = run_batch(runs)
    for got, run in zip(batch, runs):
        assert_same_run(got, run_alone(run))
    assert batch[1].breakdown.reason == "state became non-finite at step 8 (t = 0.4)"
    assert batch[0].breakdown is None and batch[2].breakdown is None


def test_shared_mu_takes_one_power_over_the_stack():
    runs = [RUNS[0], RUNS[2], RUNS[4]]  # mu = 0.5 for all three
    for got, run in zip(run_batch(runs), runs):
        assert_same_run(got, run_alone(run))


def test_byte_budget_splits_the_points_into_batches(monkeypatch):
    monkeypatch.setattr(solver, "BATCH_BYTES", 2 * 8 * 8 * 5 * 16)  # two runs at n = 8
    assert batch_size(8) == 2
    calls = []
    run_batch_loop = solver._run_batch

    def counted(trajectories, *args):
        calls.append(len(trajectories))
        return run_batch_loop(trajectories, *args)

    monkeypatch.setattr(solver, "_run_batch", counted)
    batch = run_batch(RUNS)
    assert calls == [2, 2, 2]
    for got, run in zip(batch, RUNS):
        assert_same_run(got, run_alone(run))


def test_budget_batches_small_grids_and_not_large_ones():
    assert batch_size(8) >= 6  # the six-point sweep shares one loop
    assert batch_size(16) >= 6
    assert batch_size(32) == 1 and batch_size(64) == 1


def test_stack_of_the_wrong_shape_is_rejected():
    u0, u1, params, source = RUNS[0]
    with pytest.raises(ValueError, match="do not stack"):
        simulate_batch(np.stack([u0, u0]), np.stack([u1]), [params] * 2, [source] * 2, CONFIG)
    with pytest.raises(ValueError, match="do not stack"):
        simulate_batch(u0[None], u1[None], [params] * 2, [source] * 2, CONFIG)


def test_batched_force_names_every_failing_slot():
    params = [ModelParams(omega=0.5, kappa=0.25, mu=mu) for mu in (0.5, 3.0, -40.0, 0.5)]
    prepared = [prepare_source(SourceSpec(amplitude=0.5), GRID, p.m) for p in params]
    u = np.stack([wave(0.1), wave(1e110), np.full(GRID.shape, -1.0 + 1e-10), wave(2.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PointBreakdowns) as info:
            eval_prepared(0.5, u, params, prepared)
    errors = info.value.errors
    assert sorted(errors) == [1, 2, 3]
    assert all(isinstance(e, BreakdownError) and e.t == 0.5 for e in errors.values())
    assert "max |1 + u| = 1e+110" in errors[1].reason
    assert "overflows" in errors[2].reason
    assert errors[3].reason.startswith("1 + u reached")


def test_integer_power_overflow_is_a_breakdown():
    # max |1 + u| = 1e110 cubed overflows: a BreakdownError naming the
    # overflow, with no floating-point warning on the way
    params = ModelParams(omega=0.5, kappa=0.5, mu=3.0)
    prepared = prepare_source(SourceSpec(amplitude=0.001), GRID, params.m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overflow = r"overflows at t = 0\.25: max \|1 \+ u\| = 1e\+110"
        with pytest.raises(PointBreakdowns, match=overflow) as info:
            eval_prepared(0.25, wave(1e110)[None], [params], [prepared])
        assert isinstance(info.value.errors[0], BreakdownError)  # the message is its reason
        run = (wave(1e110), wave(0.0), params, SourceSpec(amplitude=0.001))
        trajectory = run_alone(run)
    assert trajectory.breakdown.step == 0 and "overflows" in trajectory.breakdown.reason
    assert trajectory.samples == [] and trajectory.final_state is None
    # below the overflow the integer power has no gate: 1 + u < 0 is fine
    assert np.isfinite(eval_prepared(0.0, wave(1e100)[None], [params], [prepared])).all()

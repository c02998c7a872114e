"""The batched time loop: B runs in one loop, each with its solo run's bits.

``simulate_batch`` stacks runs that share the grid, dt, horizon and sampling
along a leading axis.  Every run must come out as ``simulate`` gives it alone:
the same samples, breakdown and final state, bit for bit, whatever else is in
its batch, including runs that break down before it, after it or at step 0.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from toruswave import solver
from toruswave.fields import GridSpec
from toruswave.solver import SolverConfig, batch_size, simulate, simulate_batch
from toruswave.source import ModelParams, SourceSpec, eval_prepared, prepare_source

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
    assert np.array_equal(got.table, want.table)  # every float, exactly
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
    assert batch[2].breakdown.step == 0 and len(batch[2].table) == 0
    assert 0 < batch[3].breakdown.step < CONFIG.n_steps and len(batch[3].table)
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
        u_hat, ut_hat, failed = advance(self, t, *args)
        if t == 7 * CONFIG.dt and broken in self.params:
            ut_hat = ut_hat.copy()
            ut_hat[self.params.index(broken), 0, 0, 0] = np.inf
        return u_hat, ut_hat, failed

    monkeypatch.setattr(solver._Stepper, "advance", overflowing)
    runs = [RUNS[0], RUNS[1], RUNS[4]]
    batch = run_batch(runs)
    for got, run in zip(batch, runs):
        assert_same_run(got, run_alone(run))
    assert batch[1].breakdown.reason == "state became non-finite at step 8 (t = 0.4)"
    assert batch[0].breakdown is None and batch[2].breakdown is None


def test_a_run_that_breaks_down_keeps_its_state_not_the_stack():
    # run 3 breaks down part way: its final state owns its arrays, so runs that
    # end at different steps do not each keep a stacked (B, n, n, n/2 + 1) array
    state = run_batch(RUNS)[3].final_state
    assert state.u_hat.base is None and state.ut_hat.base is None
    assert state.u_hat.shape == state.ut_hat.shape == (8, 8, 5)


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
        _, _, failed = eval_prepared(0.5, u, params, prepared)
    assert sorted(failed) == [1, 2, 3]
    assert all("at t = 0.5" in reason for reason in failed.values())
    assert "max |1 + u| = 1e+110" in failed[1]
    assert "overflows" in failed[2]
    assert failed[3].startswith("1 + u reached")


def test_integer_power_overflow_is_a_breakdown():
    # max |1 + u| = 1e110 cubed overflows: a breakdown naming the overflow,
    # with no floating-point warning on the way
    params = ModelParams(omega=0.5, kappa=0.5, mu=3.0)
    prepared = prepare_source(SourceSpec(amplitude=0.001), GRID, params.m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overflow = r"overflows at t = 0\.25: max \|1 \+ u\| = 1e\+110"
        _, _, failed = eval_prepared(0.25, wave(1e110)[None], [params], [prepared])
        assert list(failed) == [0] and re.search(overflow, failed[0])
        run = (wave(1e110), wave(0.0), params, SourceSpec(amplitude=0.001))
        trajectory = run_alone(run)
    assert trajectory.breakdown.step == 0 and "overflows" in trajectory.breakdown.reason
    assert len(trajectory.table) == 0 and trajectory.final_state is None
    # below the overflow the integer power has no gate: 1 + u < 0 is fine
    f, _, failed = eval_prepared(0.0, wave(1e100)[None], [params], [prepared])
    assert np.isfinite(f).all() and failed == {}


# Deferred samples: the loop reduces its samples in blocks of up to
# ``block_depth`` sample times and flushes a block when it is full, at the last
# step and before any run breaks down.  A run must get the same samples,
# breakdown and final state whatever the block size.

def set_block(monkeypatch, runs, config, whole):
    """Blocks of one sample time, or one block for every sample of the run."""
    n = config.grid.n
    per_time = 48 * runs * n * n * (n // 2 + 1)
    samples = config.n_steps // config.sample_every + 2
    monkeypatch.setattr(solver, "SAMPLE_BLOCK_BYTES", per_time * samples if whole else 0)
    assert solver.block_depth(n, runs) == (samples if whole else 1)


def run_both_ways(monkeypatch, runs, config=CONFIG):
    """The batch of ``runs`` with blocks of one sample time and with one block
    for the whole run, asserted bit-identical; returns the second."""
    results = []
    for whole in (False, True):
        set_block(monkeypatch, len(runs), config, whole)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results.append(run_batch(runs, config))
    for got, want in zip(results[1], results[0]):
        assert_same_run(got, want)
    return results[1]


def slot_of(stepper, params):
    """The batch slot of the run whose params are the object ``params``, or None."""
    return next((b for b, p in enumerate(stepper.params) if p is params), None)


def patch_force_spectrum(monkeypatch, params, t_at, change):
    """``change(f_hat slice)`` the force spectrum of the run with ``params`` at t_at,
    in the sample and in the steps alike."""
    force = solver._Stepper.force

    def patched(self, t, u_hat):
        f_hat, u_min, failed = force(self, t, u_hat)
        b = slot_of(self, params)
        if abs(t - t_at) < 1e-9 and b is not None:
            f_hat = f_hat.copy()
            change(f_hat[b])
        return f_hat, u_min, failed

    monkeypatch.setattr(solver._Stepper, "force", patched)


def test_block_depth_defers_small_grids_only():
    # from n = 16 on every sample is reduced at its own time, as flagship's are
    assert solver.block_depth(8, 1) > 1
    assert all(solver.block_depth(n, 1) == 1 for n in (16, 32, 64))


def test_deferred_samples_of_a_solo_run_every_step(monkeypatch):
    config = SolverConfig(grid=GRID, dt=0.05, t_end=1.0, sample_every=1)
    (trajectory,) = run_both_ways(monkeypatch, [RUNS[1]], config)
    assert trajectory.breakdown is None and len(trajectory.table) == config.n_steps + 1
    assert trajectory.final_state.t == trajectory.times()[-1] == config.t_end


def test_deferred_samples_of_a_batch_with_mixed_rates(monkeypatch):
    # per-run omega, kappa and mu at one order m = 2; run 2 breaks down at
    # step 0, run 3 part way
    runs = [(u0, u1, dataclasses.replace(params, m=2), source) for u0, u1, params, source in RUNS]
    batch = run_both_ways(monkeypatch, runs)
    monkeypatch.undo()
    for got, run in zip(batch, runs):
        assert_same_run(got, run_alone(run))
    assert batch[2].breakdown.step == 0 and 0 < batch[3].breakdown.step < CONFIG.n_steps
    assert [t.params.m for t in batch] == [2] * len(RUNS)


def test_a_batch_of_two_orders_is_refused():
    # a batch reduces its samples at one Sobolev order; a sweep cannot vary m
    runs = [(u0, u1, dataclasses.replace(params, m=m), source)
            for (u0, u1, params, source), m in zip(RUNS, (3, 2))]
    with pytest.raises(ValueError, match=re.escape("a batch runs one Sobolev order, got m = [3, 2]")):
        run_batch(runs)


def test_overflow_in_the_middle_of_a_block(monkeypatch):
    # run 1's F gets a Nyquist mode of 1e200 at t = 0.6 (step 12): its H^m norm
    # overflows, and the dealiased step ignores the mode, so the state stays
    # finite; run 5 goes non-finite at step 17, later in the same block
    runs = [RUNS[0], RUNS[1], RUNS[5]]
    patch_force_spectrum(monkeypatch, RUNS[1][2], 0.6, lambda f_hat: f_hat.__setitem__((4, 0, 0), 1e200))
    advance = solver._Stepper.advance

    def overflowing(self, t, *args):
        u_hat, ut_hat, failed = advance(self, t, *args)
        b = slot_of(self, RUNS[5][2])
        if abs(t - 16 * CONFIG.dt) < 1e-9 and b is not None:
            ut_hat = ut_hat.copy()
            ut_hat[b, 0, 0, 0] = np.inf
        return u_hat, ut_hat, failed

    monkeypatch.setattr(solver._Stepper, "advance", overflowing)
    batch = run_both_ways(monkeypatch, runs)
    assert batch[1].breakdown == solver.BreakdownInfo(
        0.6000000000000001, 12, "the diagnostics overflow at t = 0.6: f_hm"
    )
    assert batch[1].times().tolist() == [k * CONFIG.dt for k in range(0, 12, 3)]
    assert batch[1].final_state.t == batch[1].times()[-1]
    assert batch[2].breakdown.reason == "state became non-finite at step 17 (t = 0.85)"
    assert batch[0].breakdown is None
    monkeypatch.undo()
    assert_same_run(batch[0], run_alone(runs[0]))


def test_overflow_wins_over_a_later_breakdown_in_its_block(monkeypatch):
    # run 1's sample at t = 0.6 (step 12) overflows as above, and the step from
    # there shifts its mean to -10, so the force of step 13 fails, and the
    # predictor built on its NaN force with it: in a block that still defers the
    # sample, those failures come first.  The dead slot is stepped on, NaN, and
    # fails at every later force; those failures are ignored
    runs = [RUNS[0], RUNS[1], RUNS[5]]
    patch_force_spectrum(monkeypatch, RUNS[1][2], 0.6, lambda f_hat: f_hat.__setitem__((4, 0, 0), 1e200))
    advance = solver._Stepper.advance

    def shifting(self, t, *args):
        u_hat, ut_hat, failed = advance(self, t, *args)
        b = slot_of(self, RUNS[1][2])
        if abs(t - 12 * CONFIG.dt) < 1e-9 and b is not None:
            u_hat = u_hat.copy()
            u_hat[b, 0, 0, 0] -= 10.0 * GRID.n**3
        return u_hat, ut_hat, failed

    passes = []  # per batch loop: (step, params) of each failing slot
    evaluate, run_batch_loop = solver.eval_prepared, solver._run_batch

    def recording(t, u, params, prepared, **kwargs):
        f, u_min, reasons = evaluate(t, u, params, prepared, **kwargs)
        passes[-1].extend((round(t / CONFIG.dt), params[b]) for b in reasons)
        return f, u_min, reasons

    def counted(*args):
        passes.append([])
        return run_batch_loop(*args)

    monkeypatch.setattr(solver._Stepper, "advance", shifting)
    monkeypatch.setattr(solver, "eval_prepared", recording)
    monkeypatch.setattr(solver, "_run_batch", counted)
    batch = run_both_ways(monkeypatch, runs)
    # the whole-run block: the failures seen before the run ends at the flush of step 13
    assert passes[1][:2] == [(13, RUNS[1][2]), (14, RUNS[1][2])]
    assert all(p is RUNS[1][2] for failed in passes for _, p in failed)
    assert batch[1].breakdown == solver.BreakdownInfo(
        0.6000000000000001, 12, "the diagnostics overflow at t = 0.6: f_hm"
    )
    assert batch[1].times()[-1] == 9 * CONFIG.dt == batch[1].final_state.t
    monkeypatch.undo()
    for i in (0, 2):
        assert_same_run(batch[i], run_alone(runs[i]))


def test_a_dead_slot_costs_no_flush(monkeypatch):
    # run 1 with a NaN in u0 breaks down at step 0 and stays NaN in its slot,
    # which is stepped on: the batch reduces as many blocks as with run 1
    # healthy, and the runs around it keep their solo bits
    reduce, calls = solver.SampleBlock.reduce, []

    def counted(self, entries):
        calls.append(len(entries))
        return reduce(self, entries)

    monkeypatch.setattr(solver.SampleBlock, "reduce", counted)
    u0, u1, params, source = RUNS[1]
    nan_u0 = u0.copy()
    nan_u0[1, 2, 3] = np.nan
    counts = []
    for first in (u0, nan_u0):
        calls.clear()
        batch = run_batch([RUNS[0], (first, u1, params, source), RUNS[5]])
        counts.append(list(calls))
    assert counts[0] == counts[1] and len(counts[0]) > 1
    assert batch[1].breakdown == solver.BreakdownInfo(0.0, 0, "state became non-finite at step 0 (t = 0)")
    assert len(batch[1].table) == 0 and batch[1].final_state is None
    monkeypatch.undo()
    for got, run in zip((batch[0], batch[2]), (RUNS[0], RUNS[5])):
        assert_same_run(got, run_alone(run))


def test_overflow_at_the_last_sample(monkeypatch):
    runs = [RUNS[0], RUNS[1]]
    patch_force_spectrum(monkeypatch, RUNS[0][2], CONFIG.t_end, lambda f_hat: f_hat.__setitem__((4, 0, 0), 1e200))
    batch = run_both_ways(monkeypatch, runs)
    assert batch[0].breakdown.step == CONFIG.n_steps
    assert batch[0].breakdown.reason == "the diagnostics overflow at t = 3: f_hm"
    assert batch[0].final_state.t == batch[0].times()[-1] == (CONFIG.n_steps - 3) * CONFIG.dt
    assert batch[1].breakdown is None and batch[1].times()[-1] == CONFIG.t_end


def test_force_returns_the_minima_it_checked():
    params = [ModelParams(omega=0.5, kappa=0.25, mu=mu) for mu in (0.5, 2.0)]
    prepared = [prepare_source(SourceSpec(amplitude=0.5), GRID, p.m) for p in params]
    u = np.stack([wave(0.1), wave(0.4, 0.2)])
    f, u_min, failed = eval_prepared(0.5, u, params, prepared)
    assert f.shape == u.shape and u_min.tolist() == [float(np.min(x)) for x in u]
    assert failed == {}


# A failed force is a return value: ``eval_prepared`` evaluates every slot and
# names the failing ones, the loop gives each failing slot its force's time,
# and it flushes before the failing runs break down.

FAILING = {
    # (mu, grid values of the failing slot)
    "negative-base": (0.5, wave(2.0)),
    "zero-base": (-0.5, np.full(GRID.shape, -1.0)),
    "overflow": (-40.0, np.full(GRID.shape, -1.0 + 1e-10)),
    "integer-overflow": (3.0, wave(1e110)),
}


@pytest.mark.parametrize("shared", [True, False], ids=["one-mu", "three-mus"])
@pytest.mark.parametrize("kind", sorted(FAILING))
def test_a_failing_slot_leaves_the_other_slices_alone(kind, shared):
    mu, bad = FAILING[kind]
    mus = (mu, mu, mu) if shared else (0.5, mu, 2.0)
    params = [ModelParams(omega=0.5, kappa=0.25, mu=m) for m in mus]
    prepared = [prepare_source(SourceSpec(amplitude=0.5, preset="bump"), GRID, p.m) for p in params]
    u = np.stack([wave(0.1), bad, wave(0.3, 0.2)])
    assert np.geterr()["over"] == np.geterr()["invalid"] == np.geterr()["divide"] == "warn"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, u_min, failed = eval_prepared(0.5, u, params, prepared)
        alone = [eval_prepared(0.5, u[b][None], [params[b]], [prepared[b]]) for b in (0, 2)]
    assert list(failed) == [1] and "at t = 0.5" in failed[1]
    for b, (f_b, u_min_b, failed_b) in zip((0, 2), alone):
        assert failed_b == {}
        assert np.array_equal(f[b], f_b[0]) and u_min[b] == u_min_b[0]



@pytest.mark.parametrize("mu", [1.0 / 3.0, 2.0], ids=["fractional-mu", "integer-mu"])
def test_a_nan_slot_fails_with_one_reason_for_every_mu(mu):
    # a NaN passes 1 + u <= 0 and a fractional power unnoticed, and reads as
    # max |1 + u| = nan to an integer one: it is named as such for every mu
    params = [ModelParams(omega=0.5, kappa=0.25, mu=mu) for _ in range(3)]
    prepared = [prepare_source(SourceSpec(amplitude=0.5, preset="bump"), GRID, p.m) for p in params]
    bad = wave(0.2)
    bad[1, 2, 3] = np.nan
    u = np.stack([wave(0.1), bad, wave(0.3, 0.2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, u_min, failed = eval_prepared(0.5, u, params, prepared)
        alone = [eval_prepared(0.5, u[b][None], [params[b]], [prepared[b]]) for b in (0, 2)]
    assert failed == {1: "u is not a number at t = 0.5"}
    for b, (f_b, u_min_b, failed_b) in zip((0, 2), alone):
        assert failed_b == {}
        assert np.array_equal(f[b], f_b[0]) and u_min[b] == u_min_b[0]


def test_failed_forces_and_an_overflow_in_one_step(monkeypatch):
    # in one batch, at step 13 (no sample step): run 0's sample at step 12 has
    # overflowed, still deferred in a whole-run block; run 1's F(t_13) fails,
    # since the step to 13 shifts its mean to -10; run 2's predictor fails at
    # t_14, since that step gives it a mean velocity of -40; run 3 goes on
    predictor_run = (wave(0.1), wave(0.0), ModelParams(omega=0.5, kappa=0.25, mu=-0.5),
                     SourceSpec(amplitude=0.01))
    runs = [RUNS[1], RUNS[0], predictor_run, RUNS[5]]
    patch_force_spectrum(monkeypatch, RUNS[1][2], 0.6, lambda f_hat: f_hat.__setitem__((4, 0, 0), 1e200))
    advance = solver._Stepper.advance

    def kicking(self, t, *args):
        u_hat, ut_hat, failed = advance(self, t, *args)
        if abs(t - 12 * CONFIG.dt) < 1e-9:
            u_hat, ut_hat = u_hat.copy(), ut_hat.copy()
            for params, state, change in ((RUNS[0][2], u_hat, -10.0), (runs[2][2], ut_hat, -40.0)):
                b = slot_of(self, params)
                if b is not None:
                    state[b, 0, 0, 0] += change * GRID.n**3
        return u_hat, ut_hat, failed

    monkeypatch.setattr(solver._Stepper, "advance", kicking)
    batch = run_both_ways(monkeypatch, runs)
    for got, run in zip(batch, runs):
        assert_same_run(got, run_alone(run))
    overflow, at_t, predictor, survivor = (t.breakdown for t in batch)
    assert overflow == solver.BreakdownInfo(
        0.6000000000000001, 12, "the diagnostics overflow at t = 0.6: f_hm"
    )
    assert (at_t.t, at_t.step) == (13 * CONFIG.dt, 13)
    assert at_t.reason.startswith("1 + u reached") and at_t.reason.endswith("at t = 0.65")
    assert (predictor.t, predictor.step) == (14 * CONFIG.dt, 13)
    assert predictor.reason.startswith("1 + u reached") and predictor.reason.endswith("at t = 0.7")
    assert survivor is None
    assert batch[1].times().tolist() == [k * CONFIG.dt for k in range(0, 13, 3)]
    monkeypatch.undo()
    assert_same_run(batch[3], run_alone(runs[3]))


def test_a_failed_force_at_t_wins_over_the_predictor(monkeypatch):
    # the step to 13 (no sample step) sets the run's u to 1e110 cos(...): cubed,
    # it overflows at F(t_13), and the predictor built on that failed F is not
    # a number, so it fails too; the run ends with F(t_13)'s time and reason,
    # and the run beside it goes on
    failing = (wave(0.1), wave(0.0), ModelParams(omega=0.5, kappa=0.5, mu=3.0),
               SourceSpec(amplitude=0.001))
    runs = [RUNS[0], failing]
    advance = solver._Stepper.advance

    def blowing_up(self, t, *args):
        u_hat, ut_hat, failed = advance(self, t, *args)
        b = slot_of(self, failing[2])
        if abs(t - 12 * CONFIG.dt) < 1e-9 and b is not None:
            u_hat = u_hat.copy()
            u_hat[b] = np.fft.rfftn(wave(1e110))
        return u_hat, ut_hat, failed

    failures = []  # (step of the force time, reason) of each failure of the failing run
    evaluate = solver.eval_prepared

    def recording(t, u, params, prepared, **kwargs):
        result = evaluate(t, u, params, prepared, **kwargs)
        failures.extend((round(t / CONFIG.dt), reason) for b, reason in result[2].items()
                        if params[b] is failing[2])
        return result

    monkeypatch.setattr(solver._Stepper, "advance", blowing_up)
    monkeypatch.setattr(solver, "eval_prepared", recording)
    batch = run_both_ways(monkeypatch, runs)
    (step, at_t), (next_step, predicted) = failures[:2]
    assert (step, next_step) == (13, 14)
    assert "overflows at t = 0.65:" in at_t and predicted.endswith("at t = 0.7")
    assert batch[1].breakdown == solver.BreakdownInfo(13 * CONFIG.dt, 13, at_t)
    assert batch[1].times()[-1] == 12 * CONFIG.dt == batch[1].final_state.t
    monkeypatch.undo()
    assert_same_run(batch[0], run_alone(runs[0]))

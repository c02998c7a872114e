"""The half-spectrum time loop against the full-complex loop it replaced.

``simulate`` keeps (u, u_t) as raw ``np.fft.rfftn`` coefficients, folds the
2/3 mask into the forcing weights, shares F(t_k) between a sample and the
step after it and samples straight from the coefficients.  The reference
below is the earlier loop, kept here as the oracle: full complex spectra
through ``reference.transform``/``inverse_transform``, the mask applied to
every force, and ``reference.sample_energies`` on grid fields at every sample.
"""

import sys

import numpy as np
import pytest

from toruswave import solver
from toruswave.cli import CONSTANTS_ENV, build_scenario, load_config
from toruswave.fields import (
    GridSpec,
    hm_norms,
    norm_weights,
    random_band_limited,
    spectral_power,
    weighted_sums,
)
from toruswave.solver import (
    BreakdownInfo,
    SolverConfig,
    SolverState,
    _propagator_pieces,
    simulate,
)
from toruswave.source import ModelParams, SourceSpec, eval_prepared, prepare_source
from reference import (
    Spectrum,
    block_sample,
    full_dealias_mask,
    full_derivative_weight,
    full_laplacian_symbol,
    full_sobolev_weight,
    inverse_transform,
    sample_energies,
    transform,
    weighted_norm_sq,
    white_noise,
)

SERIES = ("e_m_sq", "e_std_sq", "u_hm", "ut_hm", "f_hm", "u_mean", "f_mean", "u_min")
REL_LOOP = 1e-13
REL_REDUCE = 1e-14


class Breakdown(Exception):
    """A force of the reference loop failed: its time and reason."""

    def __init__(self, t, reason):
        super().__init__(reason)
        self.t, self.reason = t, reason


def reference_simulate(u0, u1, params, spec, config):
    """The full-complex predictor-corrector loop: (samples, breakdown, final_state),
    the final state being the last recorded sample's, in the half layout and raw
    scale ``simulate`` keeps."""
    grid, dt = config.grid, config.dt
    prepared = prepare_source(spec, grid, params.m)
    p11, p12, p21, p22, wu, wv = _propagator_pieces(
        full_laplacian_symbol(grid.n), params.omega, dt
    )
    mask = full_dealias_mask(grid.n) if config.dealias else None

    def evaluate(t, u):
        """F(t) of this one run on the grid; raises ``Breakdown`` if it fails."""
        f, _, failed = eval_prepared(t, u[None], [params], [prepared])
        if failed:
            raise Breakdown(t, failed[0])
        return f[0]

    def force(t, u_hat):
        u = inverse_transform(Spectrum(grid, u_hat))
        f_hat = transform(evaluate(t, u)).coeffs
        return f_hat if mask is None else np.where(mask, f_hat, 0.0)

    def advance(t, u_hat, ut_hat):
        f0 = force(t, u_hat)
        u_pred = p11 * u_hat + p12 * ut_hat + wu * f0
        f_avg = 0.5 * (f0 + force(t + dt, u_pred))
        return p11 * u_hat + p12 * ut_hat + wu * f_avg, p21 * u_hat + p22 * ut_hat + wv * f_avg

    samples = []
    u_hat, ut_hat = transform(u0).coeffs, transform(u1).coeffs

    def record(k):
        t = k * dt
        u = inverse_transform(Spectrum(grid, u_hat))
        ut = inverse_transform(Spectrum(grid, ut_hat))
        f = evaluate(t, u)
        samples.append(sample_energies(t, u, ut, f, params.omega, params.m))
        # the normalized full spectrum, cut to k3 >= 0 and scaled to raw rfftn
        half = (..., slice(0, grid.n // 2 + 1))
        return SolverState(t, grid.n**3 * u_hat[half], grid.n**3 * ut_hat[half])

    state = None
    for k in range(config.n_steps):
        if k % config.sample_every == 0:
            try:
                state = record(k)
            except Breakdown as err:
                return samples, BreakdownInfo(err.t, k, err.reason), state
        try:
            u_hat, ut_hat = advance(k * dt, u_hat, ut_hat)
        except Breakdown as err:
            return samples, BreakdownInfo(err.t, k, err.reason), state
        if not (np.isfinite(u_hat).all() and np.isfinite(ut_hat).all()):
            raise AssertionError("the reference runs here stay finite")
    try:
        return samples, None, record(config.n_steps)
    except Breakdown as err:
        return samples, BreakdownInfo(err.t, config.n_steps, err.reason), state


def assert_close(got, want, rel):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if want.size == 0:
        return
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= rel * scale


def assert_matches_reference(traj, reference):
    samples, breakdown, final_state = reference
    assert traj.breakdown == breakdown
    assert traj.times().tolist() == [s.t for s in samples]
    for name in SERIES:
        assert_close(traj.series(name), [getattr(s, name) for s in samples], REL_LOOP)
    if final_state is None:
        assert traj.final_state is None
        return
    assert traj.final_state.t == final_state.t
    assert_close(traj.final_state.u_hat, final_state.u_hat, REL_LOOP)
    assert_close(traj.final_state.ut_hat, final_state.ut_hat, REL_LOOP)


def initial_data(grid, amplitude=0.3):
    band = grid.n // 2 - 1
    u0 = random_band_limited(grid, seed=21, band=band, amplitude=amplitude)
    u1 = random_band_limited(grid, seed=22, band=band, amplitude=amplitude)
    return u0, u1


MU = {"fractional": 0.5, "integer": 2.0}


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("preset", ["bump", "band"])
@pytest.mark.parametrize("mu", sorted(MU))
def test_simulate_matches_full_complex_loop(n, dealias, preset, mu):
    grid = GridSpec(n)
    params = ModelParams(omega=0.5, kappa=0.25, mu=MU[mu], m=3)
    spec = SourceSpec(amplitude=0.8, preset=preset, seed=5, sigma="cos")
    config = SolverConfig(grid=grid, dt=0.05, t_end=1.0, sample_every=3, dealias=dealias)
    u0, u1 = initial_data(grid)
    traj = simulate(u0, u1, params, spec, config)
    assert traj.breakdown is None and len(traj.table) == 8
    assert_matches_reference(traj, reference_simulate(u0, u1, params, spec, config))


# (mu, source amplitude, u_t, sample_every, t_end): 1 + u falls through 0 where F is due
BREAKDOWNS = {
    # the corrected state after step 1 crosses; F(t_2) fails in the sample
    "at-sample": (0.5, 300.0, -3.75, 1, 2.0),
    # the same crossing, but step 2 is no sample: F(t_2) fails in the step
    "step-start": (0.5, 300.0, -3.75, 3, 2.0),
    # the same crossing at t_end = t_2: F(t_2) fails in the closing sample
    "closing-sample": (0.5, 300.0, -3.75, 3, 0.2),
    # mu < 0 lets the predictor overshoot: F(t_2 + dt) fails mid-step
    "predictor": (-0.5, 0.01, -2.0, 1, 2.0),
}


@pytest.mark.parametrize("kind", sorted(BREAKDOWNS))
def test_breakdown_matches_full_complex_loop(kind):
    mu, amplitude, velocity, sample_every, t_end = BREAKDOWNS[kind]
    grid = GridSpec(8)
    params = ModelParams(omega=0.5, kappa=0.25, mu=mu)
    spec = SourceSpec(amplitude=amplitude)
    config = SolverConfig(grid=grid, dt=0.1, t_end=t_end, sample_every=sample_every)
    ripple = random_band_limited(grid, seed=3, band=2, amplitude=0.01)
    u0 = ripple - 0.5
    u1 = np.full(grid.shape, velocity)
    traj = simulate(u0, u1, params, spec, config)
    assert traj.breakdown.step == 2
    # one rule for every kind: the final state is the last recorded sample's
    assert traj.final_state.t == traj.times()[-1]
    if kind == "at-sample":
        assert traj.final_state.t == pytest.approx(0.1) and traj.breakdown.t == pytest.approx(0.2)
    elif kind in ("step-start", "closing-sample"):
        assert traj.final_state.t == 0.0 and traj.breakdown.t == pytest.approx(0.2)
    else:
        assert traj.final_state.t == pytest.approx(0.2) and traj.breakdown.t == pytest.approx(0.3)
    assert_matches_reference(traj, reference_simulate(u0, u1, params, spec, config))


def test_breakdown_of_the_initial_data():
    grid = GridSpec(8)
    params = ModelParams(omega=0.5, kappa=0.25, mu=0.5)
    spec = SourceSpec(amplitude=0.01)
    config = SolverConfig(grid=grid, dt=0.01, t_end=1.0, sample_every=5)
    u0 = np.full(grid.shape, -1.5)
    u1 = np.zeros(grid.shape)
    traj = simulate(u0, u1, params, spec, config)
    assert traj.breakdown.step == 0 and len(traj.table) == 0 and traj.final_state is None
    assert_matches_reference(traj, reference_simulate(u0, u1, params, spec, config))


@pytest.mark.parametrize("amplitude, step", [(1e2, 8), (1e3, 5)])
def test_non_finite_state_is_a_breakdown(monkeypatch, amplitude, step):
    # a step that leaves u_t infinite, here the one ending at step 8 (a sample
    # step) or step 5 (none), stops the run when the next step starts; the
    # blow-up of u'' ~ u^2 that once got here is now caught as an overflow of
    # (1 + u)^2 (test_batched_loop::test_integer_power_overflow_is_a_breakdown)
    grid = GridSpec(8)
    params = ModelParams(omega=0.5, kappa=0.25, mu=2.0)
    config = SolverConfig(grid=grid, dt=0.1, t_end=3.0, sample_every=2)
    u0, u1 = np.full(grid.shape, 0.01), np.zeros(grid.shape)
    advance = solver._Stepper.advance

    def overflowing(self, t, *args):
        u_hat, ut_hat, failed = advance(self, t, *args)
        if t == (step - 1) * config.dt:
            ut_hat = ut_hat.copy()
            ut_hat[:, 0, 0, 0] = np.inf
        return u_hat, ut_hat, failed

    monkeypatch.setattr(solver._Stepper, "advance", overflowing)
    traj = simulate(u0, u1, params, SourceSpec(amplitude=amplitude), config)
    t = step * config.dt
    assert traj.breakdown == BreakdownInfo(
        t, step, f"state became non-finite at step {step} (t = {t:.6g})"
    )
    assert traj.times().tolist() == [k * config.dt for k in range(0, step, 2)]
    assert traj.final_state.t == traj.times()[-1]


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("part", ["velocity", "displacement"])
def test_final_state_norm_is_the_last_sample_norm(monkeypatch, n, part):
    # the final state is the loop's own spectrum, so its H^m norm is the same
    # float as the u_hm the last sample recorded from it
    monkeypatch.delenv(CONSTANTS_ENV, raising=False)
    entries = load_config("flagship")
    entries.update({"grid.n": str(n), "initial.part": part, "solver.t_end": "20"})
    scenario = build_scenario(entries)
    traj = simulate(scenario.u0, scenario.u1, scenario.params, scenario.source, scenario.solver)
    assert traj.breakdown is None
    assert hm_norms(traj.final_state.u_hat, scenario.params.m)[0] == traj.series("u_hm")[-1]


def counted(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    # rebind the name in every toruswave module that imported it
    for key, mod in list(sys.modules.items()):
        if key.startswith("toruswave") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)


@pytest.mark.parametrize("sample_every,t_end", [(1, 0.5), (3, 1.0), (4, 0.4)])
def test_loop_costs_two_forces_per_step_and_no_full_transforms(monkeypatch, sample_every, t_end):
    grid = GridSpec(8)
    params = ModelParams(omega=0.5, kappa=0.25, mu=0.5)
    spec = SourceSpec(amplitude=0.5, preset="bump")
    config = SolverConfig(grid=grid, dt=0.05, t_end=t_end, sample_every=sample_every)
    u0, u1 = initial_data(grid)
    counts = {"eval_prepared": 0, "fftn": 0, "ifftn": 0}
    counted(monkeypatch, solver, "eval_prepared", counts)
    for name in ("fftn", "ifftn"):
        counted(monkeypatch, np.fft, name, counts)
    traj = simulate(u0, u1, params, spec, config)
    assert traj.breakdown is None
    assert counts == {"eval_prepared": 2 * config.n_steps + 1, "fftn": 0, "ifftn": 0}


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "weight",
    [
        # (the squared norm through rows of the half-layout weights, the same
        # weight on the full lattice); D_0 is S_0, the row of the m = 0 weights
        lambda p, m: (weighted_sums(p, norm_weights(len(p), m)[:1])[0],
                      full_sobolev_weight),  # Nyquist at full weight
        lambda p, m: (sum(weighted_sums(p, [*norm_weights(len(p), 0), *norm_weights(len(p), m)[1:]])),
                      full_derivative_weight),  # odd Nyquist zeroed
        lambda p, m: (sum(weighted_sums(p, norm_weights(len(p), m)[1:])),
                      lambda n, m: full_derivative_weight(n, m, lowest=1)),
    ],
    ids=["sobolev", "derivative", "derivative-lowest-1"],
)
def test_half_layout_reduction_matches_full(n, m, weight):
    u = white_noise(n, 100 + n + m)
    half, full_weight = weight(spectral_power(np.fft.rfftn(u)), m)
    full = weighted_norm_sq(transform(u), full_weight(n, m))
    assert half == pytest.approx(full, rel=REL_REDUCE, abs=0.0)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_half_spectrum_sample_matches_sample_energies(n, m):
    u, ut, f = white_noise(n, 7), white_noise(n, 8), white_noise(n, 9)
    want = sample_energies(0.25, u, ut, f, 0.62, m)
    got = block_sample(
        0.25, u, *(np.fft.rfftn(x) for x in (u, ut, f)), 0.62, m
    )
    assert got.t == want.t
    for name in SERIES:
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=REL_REDUCE, abs=0.0)

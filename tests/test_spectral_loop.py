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
from toruswave.energy import sample_half_spectrum
from toruswave.fields import (
    Field,
    GridSpec,
    random_band_limited,
    reduce_power,
    spectral_power,
)
from toruswave.solver import (
    BreakdownInfo,
    SolverConfig,
    SolverState,
    _propagator_pieces,
    simulate,
)
from toruswave.source import (
    BreakdownError,
    ModelParams,
    SourceSpec,
    eval_prepared,
    prepare_source,
)
from reference import (
    Spectrum,
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


def reference_simulate(u0, u1, params, prepared, config):
    """The full-complex predictor-corrector loop: (samples, breakdown, final_state)."""
    grid, dt = config.grid, config.dt
    p11, p12, p21, p22, wu, wv = _propagator_pieces(
        full_laplacian_symbol(grid.n), params.omega, dt
    )
    mask = full_dealias_mask(grid.n) if config.dealias else None

    def force(t, u_hat):
        u = inverse_transform(Spectrum(grid, u_hat))
        f_hat = transform(Field(grid, eval_prepared(t, u.values, params, prepared))).coeffs
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
        f = Field(grid, eval_prepared(t, u.values, params, prepared))
        samples.append(sample_energies(t, u, ut, f, params.omega, params.m))
        return SolverState(t, u, ut)

    state = None
    for k in range(config.n_steps):
        if k % config.sample_every == 0:
            try:
                state = record(k)
            except BreakdownError as err:
                return samples, BreakdownInfo(err.t, k, err.reason), None
        try:
            u_hat, ut_hat = advance(k * dt, u_hat, ut_hat)
        except BreakdownError as err:
            return samples, BreakdownInfo(err.t, k, err.reason), state
        if not (np.isfinite(u_hat).all() and np.isfinite(ut_hat).all()):
            raise AssertionError("the reference runs here stay finite")
    try:
        return samples, None, record(config.n_steps)
    except BreakdownError as err:
        return samples, BreakdownInfo(err.t, config.n_steps, err.reason), None


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
    assert [s.t for s in traj.samples] == [s.t for s in samples]
    for name in SERIES:
        assert_close(traj.series(name), [getattr(s, name) for s in samples], REL_LOOP)
    if final_state is None:
        assert traj.final_state is None
        return
    assert traj.final_state.t == final_state.t
    assert_close(traj.final_state.u.values, final_state.u.values, REL_LOOP)
    assert_close(traj.final_state.ut.values, final_state.ut.values, REL_LOOP)


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
    prepared = prepare_source(spec, grid, params.m)
    config = SolverConfig(grid=grid, dt=0.05, t_end=1.0, sample_every=3, dealias=dealias)
    u0, u1 = initial_data(grid)
    traj = simulate(u0, u1, params, prepared, config)
    assert traj.breakdown is None and len(traj.samples) == 8
    assert_matches_reference(traj, reference_simulate(u0, u1, params, prepared, config))


# (mu, source amplitude, u_t, sample_every): 1 + u falls through 0 where F is due
BREAKDOWNS = {
    # the corrected state after step 1 crosses; F(t_2) fails in the sample
    "at-sample": (0.5, 300.0, -3.75, 1),
    # the same crossing, but step 2 is no sample: F(t_2) fails in the step
    "step-start": (0.5, 300.0, -3.75, 3),
    # mu < 0 lets the predictor overshoot: F(t_2 + dt) fails mid-step
    "predictor": (-0.5, 0.01, -2.0, 1),
}


@pytest.mark.parametrize("kind", sorted(BREAKDOWNS))
def test_breakdown_matches_full_complex_loop(kind):
    mu, amplitude, velocity, sample_every = BREAKDOWNS[kind]
    grid = GridSpec(8)
    params = ModelParams(omega=0.5, kappa=0.25, mu=mu)
    prepared = prepare_source(
        SourceSpec(amplitude=amplitude), grid, params.m
    )
    config = SolverConfig(grid=grid, dt=0.1, t_end=2.0, sample_every=sample_every)
    ripple = random_band_limited(grid, seed=3, band=2, amplitude=0.01)
    u0 = Field(grid, ripple.values - 0.5)
    u1 = Field(grid, np.full(grid.shape, velocity))
    traj = simulate(u0, u1, params, prepared, config)
    assert traj.breakdown.step == 2
    if kind == "at-sample":
        assert traj.final_state is None and traj.breakdown.t == pytest.approx(0.2)
    elif kind == "step-start":
        assert traj.final_state.t == 0.0 and traj.breakdown.t == pytest.approx(0.2)
    else:
        assert traj.final_state.t == pytest.approx(0.2) and traj.breakdown.t == pytest.approx(0.3)
    assert_matches_reference(traj, reference_simulate(u0, u1, params, prepared, config))


def test_breakdown_of_the_initial_data():
    grid = GridSpec(8)
    params = ModelParams(omega=0.5, kappa=0.25, mu=0.5)
    prepared = prepare_source(SourceSpec(amplitude=0.01), grid, 3)
    config = SolverConfig(grid=grid, dt=0.01, t_end=1.0, sample_every=5)
    u0 = Field(grid, np.full(grid.shape, -1.5))
    u1 = Field(grid, np.zeros(grid.shape))
    traj = simulate(u0, u1, params, prepared, config)
    assert traj.breakdown.step == 0 and traj.samples == [] and traj.final_state is None
    assert_matches_reference(traj, reference_simulate(u0, u1, params, prepared, config))


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
    prepared = prepare_source(
        SourceSpec(amplitude=0.5, preset="bump"), grid, params.m
    )
    config = SolverConfig(grid=grid, dt=0.05, t_end=t_end, sample_every=sample_every)
    u0, u1 = initial_data(grid)
    counts = {"eval_prepared": 0, "fftn": 0, "ifftn": 0, "fields": 0}
    counted(monkeypatch, solver, "eval_prepared", counts)
    for name in ("fftn", "ifftn"):
        counted(monkeypatch, np.fft, name, counts)
    check_field = Field.__post_init__

    def counted_field(self):
        counts["fields"] += 1
        check_field(self)

    monkeypatch.setattr(Field, "__post_init__", counted_field)
    traj = simulate(u0, u1, params, prepared, config)
    assert traj.breakdown is None
    # the loop works on arrays; the only Fields are the final state's u and u_t
    assert counts == {
        "eval_prepared": 2 * config.n_steps + 1,
        "fftn": 0,
        "ifftn": 0,
        "fields": 2,
    }


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "weight",
    [
        # (the squared norm through the half-layout weight matrix, the same
        # weight on the full lattice); D_0 is S_0, column 0 of the m = 0 matrix
        lambda p, m: (reduce_power(p, m)[0], full_sobolev_weight),  # Nyquist at full weight
        lambda p, m: (reduce_power(p, 0)[0] + sum(reduce_power(p, m)[1:]),
                      full_derivative_weight),  # odd Nyquist zeroed
        lambda p, m: (sum(reduce_power(p, m)[1:]),
                      lambda n, m: full_derivative_weight(n, m, lowest=1)),
    ],
    ids=["sobolev", "derivative", "derivative-lowest-1"],
)
def test_half_layout_reduction_matches_full(n, m, weight):
    u = white_noise(n, 100 + n + m)
    half, full_weight = weight(spectral_power(np.fft.rfftn(u.values)), m)
    full = weighted_norm_sq(transform(u), full_weight(n, m))
    assert half == pytest.approx(full, rel=REL_REDUCE, abs=0.0)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_half_spectrum_sample_matches_sample_energies(n, m):
    u, ut, f = white_noise(n, 7), white_noise(n, 8), white_noise(n, 9)
    want = sample_energies(0.25, u, ut, f, 0.62, m)
    got = sample_half_spectrum(
        0.25, u.values, f.values, *(np.fft.rfftn(x.values) for x in (u, ut, f)), 0.62, m
    )
    assert got.t == want.t
    for name in SERIES:
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=REL_REDUCE, abs=0.0)

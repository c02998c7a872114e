"""Time integration of u_tt - Lap u = -2 omega u_t + F(t, x, u).

Every Fourier mode obeys a damped oscillator v'' + 2 omega v' + |k|^2 v = f.
The linear part is advanced by its exact one-step propagator, so with the
source switched off the scheme reproduces the closed-form solution to
roundoff for any step size.  The forcing is handled by a two-stage
predictor-corrector: the predictor freezes f over the step, the corrector
re-evaluates it at the predicted endpoint and averages, which is second
order in dt.  Both stages share the free part p11 u + p12 u_t.

State layout: from the first transform of (u0, u1) to the final state the
loop keeps (u, u_t) as raw ``np.fft.rfftn`` coefficients, the n x n x (n/2+1)
half spectrum with no normalization that every symbol and weight of
``fields`` is laid out on.  The propagator is linear, so the raw scale
cancels; each force is one inverse transform to a grid array,
``eval_prepared`` on that array and one forward transform back.  No force
keeps u or F on the grid, so F is written over the inverse transform's own
array, the one grid array a force allocates.  Every diagnostic is a reduction
of these coefficients (``energy.SampleBlock``), and the final state a run
hands to verification is the same pair of arrays.

Transforms: up to ``DFT_MAX_N`` points per axis a force's two transforms
are products with cached dense DFT tables (``_dft_tables``), since at those
sizes pocketfft's per-axis calls cost more than the arithmetic: one real
product for the half axis, whose interleaved cos/sin columns give the half
spectrum as a ``complex128`` view, and one complex product per full axis.
Larger grids call ``np.fft.rfftn``/``irfftn``.  The two forms agree to
roundoff, not bit for bit; the choice depends on the grid size alone.

Batch axis: the loop advances B runs at once.  The state, the propagator
pieces and the forcing weights have shape (B, n, n, n/2+1), the grid arrays
(B, n, n, n), and every transform runs on axes (1, 2, 3), so B runs share
each transform call and its Python overhead.  Every operation acts on each
slice alone (a DFT product is a stack of one matrix product per slot, of the
same shapes in any batch): a run gets the same bits in any batch,
``simulate`` is the batch of one, and ``simulate_batch`` serves a sweep,
whose points share one Sobolev order, as a sweep cannot vary it.
Each run keeps its own finiteness, positivity and overflow tests and its own
rows, and its slot for the life of the batch: a run that breaks down marks
its slot dead, and the dead slot is stepped on with the others, its values
never read again.  Its final state is copied out of the stacked arrays, so
runs that end at different steps do not keep a stack each.
``BATCH_BYTES`` caps a batch, since stacking stops paying on bigger grids.

The nonlinear product may be de-aliased with the standard 2/3-rule mask
before injection.  The mask is folded into the cached forcing weights, and
the zero mode is never touched by it, so the mean dynamics are unaffected.

The loop evaluates F(t_k) once per time level, for the sample (at a sample
time) and for the step that starts there, so a run costs two force
evaluations per step plus one for the final sample.  A run whose F(t_k)
fails ends before that step, so the step's predictor never names it.
Samples are deferred: a sample time keeps the spectra force and state made
for it (no step changes them in place) and the grid minima of u that the
positivity checks reduced, and ``energy.SampleBlock`` reduces a block of
sample times for every run of the batch in one stacked pass; each run's rows
go to a list, which becomes its ``Trajectory.table`` when the batch is done.
A block is flushed when it is full, at the last step, and before any live run
breaks down.  A force returns the reasons of the slots it fails for beside its
arrays, so every stage runs on all slots; a live run whose state is not finite
or whose force failed breaks down right after the flush, and a dead slot's
failures are dropped unread, so they cost no flush.  A run whose flushed row
is not finite keeps the rows before it and the state of the last of them, and
that overflow is its breakdown, so a failure it would meet later in the block
never counts.  ``SAMPLE_BLOCK_BYTES`` sets the block's depth, ``block_depth``:
it spares the per-call overhead of small grids with frequent samples, and from
n = 14 on a block is one sample time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.typing as npt

from .energy import COLUMNS, SampleBlock
from .fields import GridSpec, laplacian_symbol
from .source import ModelParams, SourceSpec, eval_prepared, prepare_source

# Bytes of stacked half spectrum (one complex array of the state) per batch.
BATCH_BYTES = 512 * 1024

# Bytes of the stacked half spectra of u, u_t and F of a batch over the sample
# times of one block of deferred samples.  One sample time of one run takes
# 48 n^2 (n/2 + 1) bytes, so a block of one run holds 8 sample times at n = 8,
# 2 at n = 12 and one from n = 14 on; a batch of six runs at n = 8 holds one.
# Each flush allocates its arrays afresh.  A block of several sample times then
# stays under glibc's default mmap threshold of 128 KiB, and the one sample
# time of a larger grid is a mapped chunk whose release lifts the threshold
# above the loop's own arrays; arrays kept for the whole loop left it low, and
# at n = 32 each step's arrays were mapped anew, with 10x the page faults.
SAMPLE_BLOCK_BYTES = 128 * 1024

# Largest grid whose loop transforms are dense DFT products.  A round trip
# rfftn + irfftn of one 3-d array took 0.4-0.65x np.fft's time for n = 8 .. 18;
# from n = 20 the products pass OpenBLAS's threading threshold and take a
# second core for at best the same wall time, and at n = 32 they are 1.3x
# slower (2-vCPU Xeon, OpenBLAS 0.3.31).
DFT_MAX_N = 18

# Below this x = 2 omega dt the zero mode's forcing weights sum their power
# series; from it up, their closed forms, which lose about eps / x^2 of wu to
# cancellation (at most 2.6e-13 relative, measured for x >= 0.02).
ZERO_MODE_SERIES_X = 0.02


@dataclass
class SolverState:
    """State (t, u, u_t) as the loop keeps it: ``u_hat`` and ``ut_hat`` are the
    raw ``np.fft.rfftn`` half spectra, shape (n, n, n/2 + 1), n^3 times the
    normalized coefficients."""

    t: float
    u_hat: npt.NDArray[np.complex128]
    ut_hat: npt.NDArray[np.complex128]


@dataclass
class SolverConfig:
    """Discretization parameters.

    ``t_end`` must be a whole number (>= 1) of steps so the final time is hit
    exactly; samples are taken at t = 0, every ``sample_every`` steps, and at
    t_end regardless of divisibility.
    """

    grid: GridSpec
    dt: float
    t_end: float
    sample_every: int = 1
    dealias: bool = True

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not (isinstance(self.sample_every, int) and self.sample_every >= 1):
            raise ValueError(f"sample_every must be a positive integer, got {self.sample_every}")
        steps = self.t_end / self.dt
        if not math.isfinite(steps):
            raise ValueError(
                f"t_end = {self.t_end} over dt = {self.dt} is not a finite number of steps"
            )
        if steps >= 2.0**53:  # from there on every float is an integer: no test below can fail
            raise ValueError(
                f"t_end = {self.t_end} over dt = {self.dt} is {steps:.3g} steps; "
                f"a run takes fewer than 2**53"
            )
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"t_end = {self.t_end} is not an integer number of steps of dt = {self.dt}"
            )
        if self.n_steps < 1:
            raise ValueError(f"t_end = {self.t_end} is shorter than one step of dt = {self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class BreakdownInfo:
    """Where and why a run stopped early."""

    t: float
    step: int
    reason: str


@dataclass
class Trajectory:
    """Sampled diagnostics of one run plus enough context to verify it: ``table``
    has a row (t, *``energy.COLUMNS``) per sample time and is read-only, and
    ``times`` and ``series`` are views of its columns."""

    params: ModelParams
    config: SolverConfig
    table: npt.NDArray[np.float64]
    breakdown: BreakdownInfo | None = None
    source_amplitude: float = 0.0
    u1_mean: float = 0.0  # c(0)/n^3 of the initial u_t spectrum, like u_mean
    final_state: SolverState | None = None

    def times(self) -> npt.NDArray[np.float64]:
        return self.table[:, 0]

    def series(self, name: str) -> npt.NDArray[np.float64]:
        return self.table[:, 1 + COLUMNS.index(name)]


def _table(rows) -> npt.NDArray[np.float64]:
    """The read-only ``Trajectory.table`` of ``rows``, column major: a series is contiguous."""
    table = np.array(rows, dtype=np.float64, order="F").reshape(len(rows), 1 + len(COLUMNS))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def dealias_mask(n: int) -> npt.NDArray[np.bool_]:
    """Keep |k_i| <= n/3 on every axis (the 2/3 rule), per mode of the half layout."""
    keep = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n // 3
    mask = keep[:, None, None] & keep[None, :, None] & keep[: n // 2 + 1]
    mask.flags.writeable = False  # cached and shared by every caller
    return mask


def _phi_series(x: float, j: int) -> float:
    """phi_j(x) = sum_k (-x)^k / (k + j)!, the exp(-x) remainders phi_1 = (1 - e^-x) / x
    and phi_2 = (e^-x - 1 + x) / x^2; ten terms reach roundoff for x < 0.1."""
    total = 0.0
    for k in reversed(range(10)):
        total = 1.0 / math.factorial(k + j) - x * total
    return total


def _propagator_pieces(n_sq, omega: float, dt: float):
    """Entries of the exact propagator and the constant-forcing weights.

    Underdamped modes (|k|^2 > omega^2) use the trigonometric branch,
    overdamped ones (including the zero mode) the hyperbolic branch, and the
    critical case is the shared s -> 0 limit.  All branches are the same
    analytic function of s^2 = omega^2 - |k|^2.
    """
    n_sq = np.asarray(n_sq, dtype=np.float64)
    disc = omega**2 - n_sq
    s = np.sqrt(np.abs(disc))
    arg = s * dt
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_like = np.where(disc < 0.0, np.cos(arg), np.cosh(arg))
        sin_like = np.where(
            s > 0.0,
            np.where(disc < 0.0, np.sin(arg), np.sinh(arg)) / np.where(s > 0.0, s, 1.0),
            dt,
        )
    decay = np.exp(-omega * dt)
    p11 = decay * (cos_like + omega * sin_like)
    p12 = decay * sin_like
    p21 = -n_sq * decay * sin_like
    p22 = decay * (cos_like - omega * sin_like)

    # Forcing weights: the particular solution for f frozen on the step.
    # For n_sq > 0 relax toward f / n_sq; the zero mode integrates directly,
    # wv = dt phi1(x) and wu = dt^2 phi2(x) with x = 2 omega dt, whose closed
    # forms cancel as x -> 0, so small x sums their series.
    x = 2.0 * omega * dt
    if x < ZERO_MODE_SERIES_X:
        wv_zero = dt * _phi_series(x, 1)
        wu_zero = dt * dt * _phi_series(x, 2)
    else:
        wv_zero = (1.0 - np.exp(-x)) / (2.0 * omega)
        wu_zero = (dt - wv_zero) / (2.0 * omega)
    safe = np.where(n_sq > 0.0, n_sq, 1.0)
    wu = np.where(n_sq > 0.0, (1.0 - p11) / safe, wu_zero)
    wv = np.where(n_sq > 0.0, -p21 / safe, wv_zero)
    return p11, p12, p21, p22, wu, wv


@lru_cache(maxsize=None)
def _dft_tables(n: int):
    """The loop's dense DFT tables on an n-point axis, from the residues jk mod n
    with exact values at quarter turns:

    * ``half`` (n, n + 2), real: columns cos and -sin of 2 pi jk / n interleaved
      for k = 0 .. n/2, so real samples times it, viewed as ``complex128``,
      are their raw half spectrum;
    * ``full`` (n, n): exp(-2 pi i jk / n), the raw forward DFT;
    * ``full_inverse`` (n, n): its conjugate, unnormalized;
    * ``half_inverse`` (n + 2, n), real: the inverse of the half axis with the
      plane multiplicity 1, 2, ..., 2, 1 and all of the n^-3 normalization.
      Its rows for the imaginary parts of k = 0 and n/2 are exact zeros, so
      those parts are ignored exactly, as ``irfftn`` ignores them.
    """
    residue = np.outer(np.arange(n), np.arange(n)) % n
    angle = 2.0 * np.pi * residue / n
    cos, sin = np.cos(angle), np.sin(angle)
    for quarter, (c, s) in enumerate(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))):
        exact = 4 * residue == quarter * n
        cos[exact], sin[exact] = c, s
    h = n // 2 + 1
    half = np.empty((n, 2 * h))
    half[:, 0::2], half[:, 1::2] = cos[:, :h], -sin[:, :h]
    multiplicity = np.where((np.arange(h) == 0) | (np.arange(h) == n // 2), 1.0, 2.0)
    half_inverse = np.empty((2 * h, n))
    half_inverse[0::2] = multiplicity[:, None] * cos[:h] / n**3
    half_inverse[1::2] = -multiplicity[:, None] * sin[:h] / n**3
    tables = half, cos - 1j * sin, cos + 1j * sin, half_inverse
    for table in tables:
        table.flags.writeable = False  # cached and shared by every caller
    return tables


def _rfftn(f):
    """``np.fft.rfftn`` of a stack (B, n, n, n) of grid arrays over axes (1, 2, 3),
    as dense DFT products up to ``DFT_MAX_N``: the half axis 3, then axes 2 and 1."""
    b, n = f.shape[0], f.shape[-1]
    if n > DFT_MAX_N:
        return np.fft.rfftn(f, s=f.shape[1:], axes=(1, 2, 3))
    half, full, _, _ = _dft_tables(n)
    raw = (f.reshape(b, n * n, n) @ half).view(np.complex128).reshape(b, n, n, -1)
    raw = full @ raw
    return (full @ raw.reshape(b, n, -1)).reshape(raw.shape)


def _irfftn(raw):
    """``np.fft.irfftn`` of a stack (B, n, n, n/2 + 1) of raw half spectra over
    axes (1, 2, 3), as dense DFT products up to ``DFT_MAX_N``: axes 1 and 2,
    then the half axis 3."""
    b, n = raw.shape[0], raw.shape[1]
    if n > DFT_MAX_N:
        return np.fft.irfftn(raw, s=(n, n, n), axes=(1, 2, 3))
    _, _, full_inverse, half_inverse = _dft_tables(n)
    z = full_inverse @ (full_inverse @ raw.reshape(b, n, -1)).reshape(raw.shape)
    return (z.view(np.float64).reshape(b, n * n, -1) @ half_inverse).reshape(b, n, n, n)


class _Stepper:
    """Advances a batch of runs on one grid and step: every array carries the
    leading batch axis, one slot per run, and holds what is constant per run."""

    def __init__(self, params, prepared, config: SolverConfig):
        self.params = list(params)
        self.prepared = list(prepared)
        self.config = config
        self.grid = config.grid
        symbol = laplacian_symbol(self.grid.n)
        pieces = zip(*(_propagator_pieces(symbol, p.omega, config.dt) for p in self.params))
        p11, p12, p21, p22, wu, wv = (np.stack(piece) for piece in pieces)
        if config.dealias:
            keep = dealias_mask(self.grid.n)
            wu, wv = wu * keep, wv * keep
        # complex, so no product with the state casts them again
        self.p11, self.p12, self.p21, self.p22, self.wu, self.wv = (
            piece.astype(np.complex128) for piece in (p11, p12, p21, p22, wu, wv)
        )

    def force(self, t: float, u_hat):
        """F(t, u) for the stacked raw half spectra ``u_hat``: the raw rfftn
        coefficients of F, the runs' grid minima of u and the reasons of the
        slots whose force failed (``eval_prepared``); a failed slot's F is not
        to be read.  F is written over the inverse transform's grid array, the
        one grid array a force allocates."""
        u = _irfftn(u_hat)
        f, u_min, failed = eval_prepared(t, u, self.params, self.prepared, out=u)
        return _rfftn(f), u_min, failed

    def advance(self, t: float, u_hat, ut_hat, f0_hat):
        """One predictor-corrector step from F(t) = ``f0_hat``.  Returns the new
        (u_hat, ut_hat) and the reasons of the slots whose force at the
        predicted t + dt failed; a failed slot's state is not to be read."""
        free_u = self.p11 * u_hat + self.p12 * ut_hat
        f1_hat, _, failed = self.force(t + self.config.dt, free_u + self.wu * f0_hat)
        f_avg = 0.5 * (f0_hat + f1_hat)
        return (free_u + self.wu * f_avg, self.p21 * u_hat + self.p22 * ut_hat + self.wv * f_avg,
                failed)


def batch_size(n: int) -> int:
    """Runs per batched loop on an n^3 grid: as many stacked half spectra as
    fit in ``BATCH_BYTES``, at least one."""
    return max(1, BATCH_BYTES // (n * n * (n // 2 + 1) * np.dtype(np.complex128).itemsize))


def block_depth(n: int, runs: int) -> int:
    """Sample times per block of deferred samples of ``runs`` runs on an n^3
    grid: as many as their stacked half spectra of u, u_t and F fit in
    ``SAMPLE_BLOCK_BYTES``, at least one."""
    per_time = 3 * runs * n * n * (n // 2 + 1) * np.dtype(np.complex128).itemsize
    return max(1, SAMPLE_BLOCK_BYTES // per_time)


def _run_batch(trajectories: list[Trajectory], stepper: _Stepper, u_hat, ut_hat) -> None:
    """The time loop: fills the tables, breakdowns and final states of the
    runs in ``trajectories``, whose stacked raw spectra are ``u_hat``, ``ut_hat``."""
    config = stepper.config
    dt, n_steps = config.dt, config.n_steps
    live = [True] * len(trajectories)  # per slot: its run has not broken down
    recorded = [[] for _ in trajectories]  # each run's rows [t, *COLUMNS]
    block = SampleBlock(config.grid.n, [p.omega for p in stepper.params], stepper.params[0].m)
    depth = block_depth(config.grid.n, len(trajectories))
    # the deferred sample times: (k, t, u_hat, ut_hat, f_hat, u_min), the
    # arrays force and state produced, which no step changes in place
    pending = []

    def end(b: int, info: BreakdownInfo) -> None:
        """Mark slot ``b`` dead with its run's breakdown.  Its final state is
        copied out of the stack it views, so a run that ends early does not
        keep a whole stack alive."""
        trajectory = trajectories[b]
        trajectory.breakdown, live[b] = info, False
        if (state := trajectory.final_state) is not None:
            trajectory.final_state = SolverState(state.t, state.u_hat.copy(), state.ut_hat.copy())

    def flush() -> None:
        """Reduce the pending samples in one block and record the live runs'
        rows.  A run with a non-finite row keeps its rows before it, and that
        overflow is its breakdown."""
        if not pending:
            return
        table = block.reduce([entry[2:] for entry in pending])
        rows, finite = table.tolist(), np.isfinite(table).all(axis=-1).tolist()
        for b, trajectory in enumerate(trajectories):
            if not live[b]:
                continue
            last = overflow = None
            for (k, t, state_u, state_ut, _, _), rows_k, finite_k in zip(
                pending, rows, finite
            ):
                row = rows_k[b]
                if not finite_k[b]:  # a finite state or force whose norms or means overflow
                    bad = ", ".join(name for name, value in zip(COLUMNS, row)
                                    if not math.isfinite(value))
                    reason = f"the diagnostics overflow at t = {t:.6g}: {bad}"
                    overflow = BreakdownInfo(t, k, reason)
                    break
                recorded[b].append([t, *row])
                last = (t, state_u[b], state_ut[b])
            if last is not None:
                trajectory.final_state = SolverState(*last)
            if overflow is not None:
                end(b, overflow)
        pending.clear()

    def stop(failed: dict[int, str], t_f: float, k: int) -> None:
        """End the live runs of the slots in ``failed``, each with the reason
        of its failure at time ``t_f`` of step k: flush first, and skip the
        runs the flush ended.  A dead slot's failures are dropped unread, so
        they cost no flush."""
        failed = {b: reason for b, reason in failed.items() if live[b]}
        if failed:
            flush()
        for b, reason in failed.items():
            if live[b]:
                end(b, BreakdownInfo(t_f, k, reason))

    for k in range(n_steps + 1):  # k = 0 and k = n_steps always sample
        t = k * dt
        finite = np.isfinite(u_hat).all(axis=(1, 2, 3)) & np.isfinite(ut_hat).all(axis=(1, 2, 3))
        if not finite.all():
            reason = f"state became non-finite at step {k} (t = {t:.6g})"
            stop(dict.fromkeys(np.flatnonzero(~finite).tolist(), reason), t, k)
        if not any(live):
            break
        f_hat, u_min, failed = stepper.force(t, u_hat)
        stop(failed, t, k)
        if (k % config.sample_every == 0 or k == n_steps) and any(live):
            pending.append((k, t, u_hat, ut_hat, f_hat, u_min))
            if len(pending) == depth or k == n_steps:
                flush()
        if any(live) and k < n_steps:
            u_hat, ut_hat, failed = stepper.advance(t, u_hat, ut_hat, f_hat)
            stop(failed, t + dt, k)
        del f_hat  # held through the next force, F(t) lifted peak RSS 1.3 MB at n = 32
    for trajectory, rows in zip(trajectories, recorded):
        trajectory.table = _table(rows)


def simulate_batch(u0, u1, params, sources, config: SolverConfig) -> list[Trajectory]:
    """Run B points that share ``config`` (grid, dt, horizon, sampling) in one loop.

    ``u0`` and ``u1`` are stacked grid arrays (B, n, n, n); ``params`` and
    ``sources`` hold B entries each, and the points share one Sobolev order m.
    The points go through ``_run_batch`` in contiguous batches of at most
    ``batch_size(n)``.  Each point gets the trajectory its solo run gets, bit
    for bit: a point that breaks down keeps its table, ``BreakdownInfo`` and
    final state, and its slot goes on dead beside the others.
    """
    u0, u1 = np.asarray(u0, dtype=np.float64), np.asarray(u1, dtype=np.float64)
    count = len(params)
    if len({p.m for p in params}) > 1:
        raise ValueError(f"a batch runs one Sobolev order, got m = {[p.m for p in params]}")
    if u0.shape != (count, *config.grid.shape) or u1.shape != u0.shape:
        raise ValueError(
            f"initial data of shape {u0.shape} and {u1.shape} do not match the configured "
            f"grid: they do not stack {count} fields of shape {config.grid.shape}"
        )
    prepared = [prepare_source(s, config.grid, p.m) for s, p in zip(sources, params, strict=True)]
    trajectories = [
        Trajectory(params=p, config=config, table=_table([]), source_amplitude=q.spec.amplitude)
        for p, q in zip(params, prepared)
    ]
    size = batch_size(config.grid.n)
    for lo in range(0, count, size):
        batch = slice(lo, lo + size)
        stepper = _Stepper(params[batch], prepared[batch], config)
        u_hat = np.fft.rfftn(u0[batch], s=config.grid.shape, axes=(1, 2, 3))
        ut_hat = np.fft.rfftn(u1[batch], s=config.grid.shape, axes=(1, 2, 3))
        for trajectory, c0 in zip(trajectories[batch], ut_hat[:, 0, 0, 0].real.tolist()):
            trajectory.u1_mean = c0 / config.grid.n**3
        # an overflow in the loop ends its run through the finiteness checks, and
        # a failed force's or a dead run's slot holds no meaningful values
        with np.errstate(over="ignore", invalid="ignore"):
            _run_batch(trajectories[batch], stepper, u_hat, ut_hat)
    return trajectories


def simulate(u0, u1, params: ModelParams, source: SourceSpec, config: SolverConfig) -> Trajectory:
    """Run the full time span from the grid arrays ``u0`` and ``u1``, sampling
    diagnostics along the way: the batch of one.

    A positivity, overflow or non-finite failure does not raise: the partial
    trajectory is returned with ``breakdown`` filled in.  Whether or not the
    run breaks down, ``final_state`` is the state of the last row of ``table``
    (None if there is none), so its time is ``times()[-1]``.
    """
    return simulate_batch(u0[None], u1[None], [params], [source], config)[0]


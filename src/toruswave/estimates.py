"""Closed-form bounds: Gronwall propagation, composition constants, budgets.

The small-data argument runs through a handful of scalar functions of the
damping rate omega in (0, 1), the bootstrap horizon T1, and the improvement
factor eps_prime in (0, 1):

    h(t)  = (1 - e^{-omega t}) (1 - omega)      admissibility threshold,
    g(t)  = (1 - omega) - eps_prime / (1 - e^{-omega t}),

with eps_prime < h(T1) exactly when g(T1) > 0.  The two source budgets

    eps1 = omega g(T1) E0 / (sqrt(2) C)
    eps2 = (2 omega / C) sqrt(2 (eps_prime - 3/4 eps_prime^2)) E0

bound the forcing amplitudes under which the energy improves by the factor
(1 - eps_prime) and the mean stays pinned near zero.  C is the constant that
converts a forcing-profile norm into a forcing norm; it is assembled from
empirically calibrated product and composition constants, not guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .fields import VOLUME


@dataclass
class BootstrapParams:
    """Resolved quantities steering one bootstrap verification.

    ``e_m0`` is E_m(0) (not squared) and ``c_delta`` the profile-to-forcing
    constant.  Nothing derived is stored: the budgets (eps1, eps2) a report
    prints are ``epsilon_budgets(self, omega)``, the small-data radius is
    E_m(0) / omega, and ``forcing_constant`` derives its sup-norm ceiling.
    """

    e_m0: float
    t1: float
    eps_prime: float
    c_delta: float

    def __post_init__(self) -> None:
        if not self.e_m0 > 0.0:
            raise ValueError(f"initial energy must be positive, got {self.e_m0}")
        if not self.t1 > 0.0:
            raise ValueError(f"bootstrap horizon t1 must be positive, got {self.t1}")
        if not 0.0 < self.eps_prime < 1.0:
            raise ValueError(f"improvement factor must lie in (0, 1), got {self.eps_prime}")
        if not self.c_delta > 0.0:
            raise ValueError(f"forcing constant must be positive, got {self.c_delta}")


def _sample_grid(times, f_values):
    times = np.asarray(times, dtype=np.float64)
    f_values = np.asarray(f_values, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need a one-dimensional grid with at least two samples")
    if f_values.shape != times.shape:
        raise ValueError(f"sample grids disagree: {times.shape}, {f_values.shape}")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    return times, f_values


def damped_trapezoids(times, rate: float, f_values, g0, starts, ends):
    """Comparison solutions of g' <= A g + f, A = ``rate``, from many start samples in one pass.

    ``starts`` are strictly increasing sample indices with initial values
    ``g0``; ``ends`` are increasing sample indices.  Yields blocks
    ``(js, bound, budget)``: ``js`` are consecutive ends, and row s of the
    two arrays belongs to starts[s], for every start before the block, so
    that for a start i and an end j

        bound  = e^{A (t_j - t_i)} g0 + trapezoid over [t_i, t_j] of K f,
        budget = sum over i < k < j of |second difference of K f at t_k|,

    with K(s) = e^{A (t_j - s)}.  ``budget`` is the sum behind the
    composite-trapezoid error estimate (h^2/12) int |(K f)''|.

    Between two starts every open window takes the same affine steps
    x -> x e^{h A} + (step term), so that stretch is walked once with scalars
    and applied to all open windows at the ends inside it.  The second
    difference at t_k is weighted relative to t_{k+1}, so no factor beyond
    one step's growth is formed and decaying bounds never overflow.  Cost
    O(P + len(starts) * len(ends)); memory is one block.
    """
    times, f_values = _sample_grid(times, f_values)
    ends = np.asarray(ends, dtype=np.intp)
    if not ends.size:
        return
    h = np.diff(times)
    growth = np.exp(rate * h)
    trapezoid = 0.5 * h * (f_values[:-1] * growth + f_values[1:])
    second = np.zeros(h.shape)
    second[1:] = np.abs(
        f_values[2:] - 2.0 * f_values[1:-1] * growth[1:] + f_values[:-2] * growth[:-1] * growth[1:]
    )
    steps = list(zip(growth.tolist(), trapezoid.tolist(), second.tolist()))
    starts = [int(i) for i in starts]
    last = int(ends[-1])

    bound = np.array(g0, dtype=np.float64)
    budget = np.zeros(bound.shape)
    for n, start in enumerate(starts):
        stop = min(starts[n + 1], last) if n + 1 < len(starts) else last
        if stop <= start:
            return
        # running decay, trapezoid, and budgets of the older windows (for
        # which t_start is interior) and of the window opening at t_start
        walk = []
        decay, trap, older, newest = 1.0, 0.0, 0.0, 0.0
        for k, (g, t, s) in enumerate(steps[start:stop]):
            decay *= g
            trap = trap * g + t
            older = older * g + s
            newest = newest * g + (s if k else 0.0)
            walk.append((decay, trap, older, newest))
        walk = np.array(walk)

        open_ = slice(0, n + 1)
        js = ends[np.searchsorted(ends, start, "right") : np.searchsorted(ends, stop, "right")]
        if js.size:
            at = walk[js - start - 1].T
            block_budget = budget[open_, None] * at[0] + at[2]
            block_budget[-1] = at[3]
            yield js, bound[open_, None] * at[0] + at[1], block_budget
        bound[open_] = bound[open_] * walk[-1, 0] + walk[-1, 1]
        budget[open_] = budget[open_] * walk[-1, 0] + walk[-1, 2]
        budget[n] = walk[-1, 3]


def gronwall_bound(times, rate: float, f_values, g0: float):
    """Propagate g' <= A g + f, A = ``rate``, from the first sample: the comparison solution.

    Returns the array  e^{A (t - t_0)} g0 + int_{t_0}^t e^{A (t - s)} f(s) ds  at
    every sample.  Integrals are trapezoids, so the bound carries the usual
    O(h^2) quadrature error; with A = 0 it is the plain running trapezoid of f.
    """
    times, f_values = _sample_grid(times, f_values)
    out = np.full(times.shape, np.nan)
    out[0] = g0
    ends = range(1, times.size)
    for js, bound, _ in damped_trapezoids(times, rate, f_values, [g0], [0], ends):
        out[js] = bound[0]
    return out


def _check_omega_window(omega: float) -> None:
    if not 0.0 < omega < 1.0:
        raise ValueError(f"the threshold algebra needs omega in (0, 1), got {omega}")


def h_threshold(omega: float, t1: float) -> float:
    """Largest admissible improvement factor for horizon t1."""
    _check_omega_window(omega)
    if not t1 > 0.0:
        raise ValueError(f"horizon t1 must be positive, got {t1}")
    return (1.0 - math.exp(-omega * t1)) * (1.0 - omega)


def g_function(t, omega: float, eps_prime: float):
    """g(t) = (1 - omega) - eps_prime / (1 - e^{-omega t}), for t > 0."""
    _check_omega_window(omega)
    if not 0.0 < eps_prime < 1.0:
        raise ValueError(f"improvement factor must lie in (0, 1), got {eps_prime}")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValueError("g is only defined for t > 0")
    out = (1.0 - omega) - eps_prime / (1.0 - np.exp(-omega * t))
    return float(out) if out.ndim == 0 else out


def epsilon_budgets(params: BootstrapParams, omega: float) -> tuple[float, float]:
    """Source-amplitude budgets (eps1, eps2); negative room clamps to zero."""
    threshold = h_threshold(omega, params.t1)
    if params.eps_prime >= threshold:
        raise ValueError(
            f"improvement factor {params.eps_prime:.6g} reaches the threshold "
            f"h(T1) = {threshold:.6g}; g(T1) <= 0 leaves no budget"
        )
    g_t1 = g_function(params.t1, omega, params.eps_prime)
    eps1 = omega * g_t1 * params.e_m0 / (math.sqrt(2.0) * params.c_delta)
    radicand = 2.0 * (params.eps_prime - 0.75 * params.eps_prime**2)
    eps2 = (2.0 * omega / params.c_delta) * math.sqrt(radicand) * params.e_m0
    return max(eps1, 0.0), max(eps2, 0.0)


def falling_derivative_bound(mu: float, order: int, delta: float) -> float:
    """sup over |x| <= delta of |d^l/dx^l (1 + x)^mu|, the coefficient c_l."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"sup-norm ceiling must lie in [0, 1), got {delta}")
    if order < 1:
        raise ValueError(f"derivative order must be >= 1, got {order}")
    coefficient = 1.0
    for j in range(order):
        coefficient *= abs(mu - j)
    if coefficient == 0.0:
        return 0.0
    exponent = mu - order
    edge = (1.0 + delta) if exponent >= 0.0 else (1.0 - delta)
    return coefficient * edge**exponent


def composition_envelope(order: int, mu: float, delta: float) -> float:
    """M_{k, delta} = max_{1 <= l <= k} c_l (1 + delta)^{l - 1}."""
    return max(
        falling_derivative_bound(mu, l, delta) * (1.0 + delta) ** (l - 1)
        for l in range(1, order + 1)
    )


def fractional_constant(
    m: int, mu: float, delta_prime: float, moser: Mapping[int, float]
) -> float:
    """Constant C in ||(1 + u)^mu||_{H^m} <= C ||u||_{H^m} + (2 pi)^{3/2}.

    Assembled from the calibrated per-order composition constants C_k as
    max_k { C_k M_{k, delta'} } against the mean-value constant
    M_mu = sup |mu (1 + x)^{mu - 1}|; valid while ||u||_inf <= delta_prime.
    """
    if m < 1:
        raise ValueError(f"Sobolev order must be >= 1, got {m}")
    if not 0.0 <= delta_prime < 1.0:
        raise ValueError(f"sup-norm ceiling must lie in [0, 1), got {delta_prime}")
    missing = [k for k in range(1, m + 1) if k not in moser]
    if missing:
        raise ValueError(f"no calibrated composition constant for orders {missing}")
    if mu == 0.0:
        return 0.0
    edge = (1.0 + delta_prime) if mu >= 1.0 else (1.0 - delta_prime)
    m_mu = abs(mu) * edge ** (mu - 1.0)
    per_order = max(
        moser[k] * composition_envelope(k, mu, delta_prime) for k in range(1, m + 1)
    )
    return max(per_order, m_mu)


def forcing_constant(
    e_m0: float, mu: float, m: int, c_sobolev: float, c_algebra: float, moser: Mapping[int, float]
) -> float:
    """A priori profile-to-forcing constant C.

    Along any trajectory obeying the bootstrap bound ||u||_{H^m} <= sqrt(2) E0
    the forcing satisfies ||F||_{H^m} <= C e^{-kappa t} * amplitude, with

        C = c_algebra (C_frac sqrt(2) E0 + (2 pi)^{3/2}),

    where C_frac is the composition constant at the sup ceiling
    delta' = c_sobolev sqrt(2) E0, the bound the H^m embedding (m > 3/2) puts
    on ||u||_inf along such a trajectory; the estimate needs delta' < 1.
    """
    if not e_m0 > 0.0:
        raise ValueError(f"initial energy must be positive, got {e_m0}")
    delta_prime = c_sobolev * math.sqrt(2.0) * e_m0
    if delta_prime >= 1.0:
        raise ValueError(
            f"sup ceiling {delta_prime:.6g} >= 1: data too large for the composition estimate"
        )
    c_frac = fractional_constant(m, mu, delta_prime, moser)
    return c_algebra * (c_frac * math.sqrt(2.0) * e_m0 + VOLUME**0.5)

"""Damped linear waves against their closed form.

With the source switched off the equation is u_tt - Lap u = -2*omega*u_t
and every Fourier mode is an independent damped oscillator with roots
-omega +- i*sqrt(|k|^2 - omega^2).  The time stepper applies the exact
propagator of that system, so the numerical trajectory should match the
formula to roundoff at any step size.  The zero mode is the exception:
it does not oscillate, it drifts to the plateau u0_bar + u1_bar/(2*omega).
"""

import math

import numpy as np

from toruswave import (
    GridSpec,
    ModelParams,
    SolverConfig,
    SourceSpec,
    simulate,
)

grid = GridSpec(16)
omega = 0.5
params = ModelParams.from_equation_of_state(2.0 / 3.0, omega)
silent = SourceSpec(amplitude=0.0)

x1, x2, x3 = grid.coordinates()
full = np.zeros(grid.shape)
u0 = full + 0.08 + 0.02 * np.cos(x1 + x2)
u1 = full + 0.01 * np.sin(2.0 * x3)

t_end = 12.0
config = SolverConfig(grid=grid, dt=0.05, t_end=t_end, sample_every=10)
trajectory = simulate(u0, u1, params, silent, config)

# Mode k = (1, 1, 0): |k|^2 = 2, so the damped frequency is
# sqrt(2 - omega^2).  Initial coefficient 0.01 (cosine pair), velocity 0.
nu = math.sqrt(2.0 - omega**2)
coeff = 0.01
exact_mode = math.exp(-omega * t_end) * coeff * (
    math.cos(nu * t_end) + omega / nu * math.sin(nu * t_end)
)
# The final state is the solver's raw half spectrum, n^3 times u_hat.
got_mode = trajectory.final_state.u_hat[1, 1, 0].real / grid.n**3
print("mode (1,1,0) exact    :", exact_mode)
print("mode (1,1,0) computed :", got_mode)
print("difference            :", abs(got_mode - exact_mode))

# The mean obeys v'' + 2 omega v' = 0, so v(t) = u0_bar + u1_bar (1 -
# exp(-2 omega t)) / (2 omega).  Here u0_bar = 0.08 and u1_bar = 0, so the
# plateau is just 0.08 and the formula reproduces the recorded means.
times = trajectory.times()
means = trajectory.series("u_mean")
u0_bar, u1_bar = 0.08, 0.0
predicted = u0_bar + u1_bar * (1.0 - np.exp(-2.0 * omega * times)) / (2.0 * omega)
print("worst mean-mode error :", np.max(np.abs(means - predicted)))
print("plateau               :", means[-1], "(target 0.08)")

# The H^m energy of the run above plateaus because the surviving mean
# sits inside the norm.  Strip the mean and the decay rate shows: each
# oscillating mode carries the envelope exp(-omega*t).
zero_mean = u0 - u0.mean()
ringdown = simulate(zero_mean, u1, params, silent, config)
e_m = np.sqrt(ringdown.series("e_m_sq"))
print("\nzero-mean data, E_3 against the envelope:")
print("   t      E_3(t)        E_3(0)*exp(-omega*t)")
for i in range(0, len(times), 4):
    print(f"{times[i]:6.2f}  {e_m[i]:.6e}  {e_m[0] * np.exp(-omega * times[i]):.6e}")

"""Energy inequalities along a forced trajectory.

The modified energy obeys a contraction with a leak:

    E_m(t) <= E_m(s) exp(-omega (t-s))
              + int_s^t exp(-omega (t-tau)) P(tau) dtau,

where the profile P = (omega^2/sqrt(2)) |u|_Hm + sqrt(2) |F|_Hm collects
the damping residue and the source.  This script recomputes the bound
sample by sample from the raw arrays, then lets the packaged check
functions score the same thing with their finite-difference tolerances.
"""

import numpy as np

from toruswave import GridSpec, ModelParams, SolverConfig, SourceSpec, simulate
from toruswave.verify import check_energy_differential, check_energy_integral

grid = GridSpec(8)
omega = 0.5
params = ModelParams.from_equation_of_state(2.0 / 3.0, omega)
source = SourceSpec(preset="bump", amplitude=5e-4)

x1, x2, x3 = grid.coordinates()
u0 = 0.01 * (np.cos(x1 + x2) + np.sin(x2 + 2.0 * x3)) + np.zeros(grid.shape)
u1 = np.zeros(grid.shape)

config = SolverConfig(grid=grid, dt=0.02, t_end=8.0, sample_every=20)
trajectory = simulate(u0, u1, params, source, config)

times = trajectory.times()
e_m = np.sqrt(trajectory.series("e_m_sq"))
profile = (omega**2 / np.sqrt(2.0)) * trajectory.series("u_hm")
profile += np.sqrt(2.0) * trajectory.series("f_hm")

# Hand-rolled version of the bound over the windows [0, t].  The slack
# grows with the window; windows much shorter than 1/omega sit inside
# the sampling noise of a nearly tight estimate, which is why the
# packaged integral check only scores well-separated sample pairs.
print("  t       E_3(t)       bound        slack")
for i in range(2, len(times)):
    window = slice(0, i + 1)
    kernel = np.exp(-omega * (times[i] - times[window]))
    bound = np.exp(-omega * times[i]) * e_m[0]
    bound += np.trapezoid(kernel * profile[window], times[window])
    print(
        f"{times[i]:5.1f}  {e_m[i]:.6e}  {bound:.6e}  "
        f"{(bound - e_m[i]) / bound:+.2e}"
    )

# The packaged checks score the same inequality in differential and
# integral form, with tolerances sized to the sampling error.
for check in (check_energy_differential(trajectory), check_energy_integral(trajectory)):
    print(
        f"{check.check_id:22s} {check.status}  "
        f"worst margin {check.worst_margin:+.3e} at t = {check.worst_time:.1f}"
    )

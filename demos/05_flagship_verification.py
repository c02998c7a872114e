"""The flagship scenario, end to end, through the library API.

The bundled flagship configuration puts the equation of state at the
dust-to-radiation midpoint (K = 2/3, so kappa = 1/4 and mu = 1/2 with
omega = 1/2), seeds a single high-frequency velocity mode at
E_3(0) = 0.05, and drives it with a uniform source at half the
admissible budget.  Every estimate the package knows how to score is
then checked along the computed trajectory.

The command line equivalent is

    toruswave run flagship --out flagship-out

which writes the same report plus the time series to disk.  Expect
about two and a half seconds for the 16**3 grid (2.5 to 2.8 s measured on a
2-vCPU Intel Xeon virtual machine).
"""

import time

from toruswave import run_all, simulate
from toruswave.cli import build_scenario, load_config
from toruswave.estimates import epsilon_budgets

entries = load_config("flagship")
scenario = build_scenario(entries)

print("resolved scenario:")
print("  kappa        =", scenario.params.kappa)
print("  mu           =", scenario.params.mu)
print("  t1           =", scenario.bootstrap.t1)
print("  eps_prime    =", scenario.bootstrap.eps_prime)
print("  eps1, eps2   =", *epsilon_budgets(scenario.bootstrap, scenario.params.omega))
print("  amplitude    =", scenario.source.amplitude)
print("  E_3(0)       =", scenario.bootstrap.e_m0)

tic = time.monotonic()
trajectory = simulate(
    scenario.u0, scenario.u1, scenario.params, scenario.source, scenario.solver
)
report = run_all(trajectory, scenario.bootstrap, scenario.constants, scenario.name)
print(f"\nsimulated and checked in {time.monotonic() - tic:.1f} s")
print(report.to_text())

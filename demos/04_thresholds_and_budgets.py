"""Smallness thresholds and the two epsilon budgets.

The improvement step of the continuity argument needs a margin
eps_prime below the threshold h(omega, t1) = (1 - exp(-omega t1))(1 - omega),
and the admissible source amplitude is the smaller of two budgets that
both scale linearly in the initial energy.  This script prints the
threshold landscape, the monotone gain function g, and the budget pair
across a range of damping rates.
"""

import numpy as np

from toruswave import (
    BootstrapParams,
    epsilon_budgets,
    g_function,
    h_threshold,
)

# With t1 tied to 1/omega the exponential factor is pinned at 1 - 1/e,
# so the threshold is just a sliver of 1 - omega: strong damping leaves
# almost no room for the improvement margin.
print("threshold h(omega, t1 = 1/omega):")
for omega in (0.1, 0.25, 0.5, 0.75, 0.9):
    print(f"  omega = {omega:4.2f}   h = {h_threshold(omega, 1.0 / omega):.6f}")

# g(t) rises from -infinity through zero and saturates at
# (1 - omega) - eps_prime.  Positivity past t1 is what converts decay of
# the source into decay of the energy.
omega = 0.5
t1 = 1.0 / omega
eps_prime = 0.5 * h_threshold(omega, t1)
print(f"\ngain g(t) for omega = {omega}, eps_prime = {eps_prime:.4f}:")
for t in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
    marker = " <- t1" if t == t1 else ""
    print(f"  t = {t:5.2f}   g = {g_function(t, omega, eps_prime):+.6f}{marker}")

# Both budgets are linear in E_m(0): double the initial energy, double
# the admissible amplitude.  The forcing constant c_delta comes from the
# forcing estimate and is held fixed here.
print("\nbudgets against initial energy (omega = 0.5):")
print("  E_m(0)     eps1          eps2")
for e_m0 in (0.01, 0.02, 0.05, 0.1):
    bootstrap = BootstrapParams(
        e_m0=e_m0,
        t1=t1,
        eps_prime=eps_prime,
        c_delta=2.0,
    )
    eps1, eps2 = epsilon_budgets(bootstrap, omega)
    print(f"  {e_m0:6.3f}   {eps1:.6e}  {eps2:.6e}")

print("\nratio eps1/E_m(0) is constant:", end=" ")
vals = []
for e_m0 in (0.01, 0.1):
    bootstrap = BootstrapParams(e_m0=e_m0, t1=t1, eps_prime=eps_prime, c_delta=2.0)
    vals.append(epsilon_budgets(bootstrap, omega)[0] / e_m0)
print(np.allclose(vals[0], vals[1], rtol=1e-14))

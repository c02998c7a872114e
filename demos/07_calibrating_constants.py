"""Where the embedding constants come from.

The Sobolev, algebra, and composition estimates each hide a constant
that depends only on the grid and the regularity index m.  Rather than
carry pessimistic analytic values, the package measures the worst
quotient over five deterministic probes (a constant, three blends of a
constant with one slow mode, and the embedding extremizer), then
applies a safety factor.  Calibration is deterministic, and the result
can be frozen to a file so that long sweeps do not pay for it per point.
"""

import tempfile
from pathlib import Path

import numpy as np

from toruswave import GridSpec, calibrate, load_constants, save_constants
from toruswave.fields import hm_norms, random_band_limited

grid = GridSpec(8)


def quotient(values):
    """sup|u| / |u|_H3, the embedding quotient c_sobolev bounds."""
    return np.max(np.abs(values)) / hm_norms(np.fft.rfftn(values), 3)[0]


constants = calibrate(grid, m=3)

print("calibrated on", f"{constants.grid_n}**3", "grid, m =", constants.m)
print("  c_sobolev =", constants.c_sobolev)
print("  c_algebra =", constants.c_algebra)
for k, c in sorted(constants.c_moser.items()):
    print(f"  c_moser[{k}] =", c)

# The file round-trips exactly: every float is written with enough
# digits to reproduce the same bits.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "constants.txt"
    save_constants(constants, path)
    reloaded = load_constants(path)
    print("round-trip exact:", reloaded == constants)

# Spot-check the embedding |u|_inf <= c_sobolev |u|_H3 on fields the
# calibration never saw.
worst = 0.0
for seed in range(500, 520):
    u = random_band_limited(grid, seed=seed, band=3, amplitude=1.0)
    worst = max(worst, quotient(u))
print("worst fresh quotient :", worst)
print("calibrated c_sobolev :", constants.c_sobolev)
print("headroom factor      :", constants.c_sobolev / worst)

# The constant refuses to vouch for a finer grid than it was measured
# on; resolution changes the worst case.
try:
    constants.require_grid(GridSpec(16), 3)
except ValueError as exc:
    print("guard:", exc)

# Where the headroom above comes from: c_sobolev is the safety factor
# times the quotient of the embedding extremizer, whose modes all peak in
# phase at x = 0; no field on this grid does better.  Oscillation is cheap
# in the sup norm and expensive in H^3, so single modes and random wiggly
# fields sit far below it, and a constant field lies in between.
flat = np.full(grid.shape, 0.7)
spike = np.cos(3.0 * grid.coordinates()[0]) + np.zeros(grid.shape)
print("single-mode quotient :", quotient(spike))
print("constant quotient    :", quotient(flat))
print("extremizer quotient  :", constants.c_sobolev / constants.safety)
print("safety factor        :", constants.safety)

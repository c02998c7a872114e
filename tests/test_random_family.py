"""The seeded random family against the five probes.

``calibrate`` measures its constants on five deterministic probes: four
blends 1 + b cos(x1) and the embedding extremizer.  The 36 seeded random
band-limited members, opt-in through ``n_fields``, must move no constant for
m <= 6: with them or without, the constants agree bit for bit.  At n = 8 and
m >= 7 a band-1 member sets the top-order Moser constants; there the probes'
stored constants, safety margin included, must still bound every random
member's ratio.
"""

import pytest

from toruswave.calibration import SAFETY_MARGIN, calibrate
from toruswave.fields import GridSpec


def hexes(constants):
    """The measured constants, as their exact hex forms."""
    moser = {k: v.hex() for k, v in constants.c_moser.items()}
    return constants.c_sobolev.hex(), constants.c_algebra.hex(), moser


# every order on the smallest grids, the even ones at n = 12 and the shipped
# m = 3 up to n = 24: the whole 1-6 grid at n = 12 would add 0.6 s
@pytest.mark.parametrize(
    "n, m",
    [(n, m) for n in (4, 8) for m in range(1, 7)] + [(12, 2), (12, 4), (12, 6), (16, 3), (24, 3)],
)
def test_random_members_move_no_constant(n, m):
    grid = GridSpec(n)
    assert hexes(calibrate(grid, m, seed=2024, n_fields=36)) == hexes(calibrate(grid, m))


@pytest.mark.parametrize("m, moved", [(7, {7}), (8, {7, 8})])
def test_probes_bound_the_random_members_at_high_order(m, moved):
    grid = GridSpec(8)
    full = calibrate(grid, m, seed=2024, n_fields=36)
    probes = calibrate(grid, m)
    assert {k for k, v in full.c_moser.items() if v != probes.c_moser[k]} == moved
    # full holds SAFETY_MARGIN times the largest raw ratio over every member
    for k, value in full.c_moser.items():
        assert value <= SAFETY_MARGIN * probes.c_moser[k]
    assert (full.c_sobolev, full.c_algebra) == (probes.c_sobolev, probes.c_algebra)

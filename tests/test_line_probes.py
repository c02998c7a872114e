"""The blends of x1 alone measured on their (k2, k3) = (0, 0) line.

``calibrate`` sends the four blends 1 + b cos(x1) through ``_line_rfftn`` and
``_line_irfftn``, the 1-D calls of ``np.fft.rfftn``/``irfftn`` restricted to
the one line where their spectra can be non-zero, and sums a line's norms
over its n entries.  The cube measurement it replaced is kept here as the
reference: on grids whose size is 2^a 3^b the cube transforms are exactly
zero off the line, so a reference that sums such a spectrum over its line
must give the same constants bit for bit, and one that sums it over the
whole cube, in another order, the same to roundoff; with a prime factor 5 or
7 the cube transforms leave roundoff off the line, which the line drops, so
the constants agree to roundoff.  Both sides take no composition ratio from
the constant probe.  Reference and package run on the same machine, so no
golden bits are stored.
"""

import numpy as np
import pytest

from toruswave import calibration
from toruswave.calibration import (
    _CALIBRATION_AMPLITUDES,
    _CALIBRATION_EXPONENTS,
    _line_irfftn,
    _line_rfftn,
    _measure,
    calibrate,
)
from toruswave.estimates import composition_envelope
from toruswave.fields import GridSpec, refine, rfftn

LINE_GRIDS = [4, 6, 8, 10, 12, 14, 16, 20, 32]


def three_smooth(n):
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    return n == 1


def cube_norms(raw, m, rows, lines):
    """``calibration._norms`` of a cube spectrum; with ``lines``, one that is
    exactly zero off the (k2, k3) = (0, 0) line is summed over that line."""
    off_line = raw.copy()
    off_line[:, 0, 0] = 0.0
    return calibration._norms(raw[:, 0, 0] if lines and not off_line.any() else raw, m, rows)


def cube_measure(grid, m, lines=True):
    """``calibration._measure`` on the five probes with every member a cube."""
    c_sobolev = c_algebra = 0.0
    c_moser = {k: 0.0 for k in range(1, m + 1)}
    first = previous = None
    for member in calibration._field_family(grid, m, 2024, 0):
        composes = any(member.strides)  # the constant takes no composition ratio
        base = np.array(member)
        raw = np.fft.rfftn(base)
        norm, *base_blocks = cube_norms(raw, m, np.s_[:], lines)
        refined = refine(raw, grid.n)
        current = (refined, norm)
        sup = float(np.max(np.abs(base)))
        c_sobolev = max(c_sobolev, sup / norm)
        if previous is None:
            first = current
        else:
            product = cube_norms(rfftn(previous[0] * refined), m, np.s_[:1], lines)[0]
            c_algebra = max(c_algebra, product / (previous[1] * norm))
        if composes:
            peak = max(sup, float(np.max(np.abs(refined))))
            for amplitude in _CALIBRATION_AMPLITUDES:
                shifted = 1.0 + amplitude * refined
                for mu in _CALIBRATION_EXPONENTS:
                    blocks = cube_norms(np.fft.rfftn(shifted**mu), m, np.s_[1:], lines)
                    for k, (block, base_block) in enumerate(zip(blocks, base_blocks), start=1):
                        envelope = composition_envelope(k, mu, amplitude * peak)
                        c_moser[k] = max(c_moser[k], block / (envelope * amplitude * base_block))
        previous = current
    product = cube_norms(rfftn(previous[0] * first[0]), m, np.s_[:1], lines)[0]
    return c_sobolev, max(c_algebra, product / (previous[1] * first[1])), c_moser


def flat(measured):
    c_sobolev, c_algebra, c_moser = measured
    return [c_sobolev, c_algebra, *c_moser.values()]


# --- the line transforms against the cube ------------------------------------


def profile(n, blend):
    x1 = GridSpec(n).coordinates()[0]
    values = 1.0 + blend * np.cos(x1) + 0.125 * np.sin(2.0 * x1)
    return values / np.max(np.abs(values))


@pytest.mark.parametrize("n", LINE_GRIDS)
@pytest.mark.parametrize("blend", [0.0, 0.5])
def test_line_rfftn_is_the_cube_line(n, blend):
    values = profile(n, blend)
    cube = np.fft.rfftn(np.broadcast_to(values, (n, n, n)))
    line = _line_rfftn(values)
    assert line.shape == (n,)
    assert np.array_equal(line, cube[:, 0, 0])
    cube[:, 0, 0] = 0.0
    if three_smooth(n):
        assert not np.any(cube)
    else:  # roundoff only, which the line drops
        assert np.max(np.abs(cube)) <= 1e-12 * n**3


@pytest.mark.parametrize("n", LINE_GRIDS)
def test_line_irfftn_is_the_cube(n):
    line = _line_rfftn(profile(n, 0.75)) * (1.0 + 0.25j)
    line[0] = line[0].real  # a real field's k = 0 and Nyquist entries are real
    line[n // 2] = line[n // 2].real
    half = np.zeros((n, n, n // 2 + 1), dtype=np.complex128)
    half[:, 0, 0] = line
    cube = np.fft.irfftn(half, s=(n, n, n), axes=(0, 1, 2))
    samples = _line_irfftn(line)
    assert samples.shape == (n, 1, 1)
    assert np.array_equal(cube, np.broadcast_to(samples, cube.shape))


def test_blends_are_broadcasts_of_their_line():
    grid = GridSpec(8)
    members = list(calibration._field_family(grid, 3, 2024, 1))
    assert [m.strides for m in members[1:5]] == [(0, 0, 0)] + [(8, 0, 0)] * 3
    assert all(member.strides[2] == 8 for member in (members[0], members[-1]))


# --- constants against the cube measurement ----------------------------------


@pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 24])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_constants_match_the_cube_bit_for_bit(n, m):
    grid = GridSpec(n)
    line, cube = flat(_measure(grid, m, 2024, 0)), flat(cube_measure(grid, m))
    assert [v.hex() for v in line] == [v.hex() for v in cube]
    assert line == pytest.approx(flat(cube_measure(grid, m, lines=False)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [10, 14])
def test_constants_match_the_cube_to_roundoff_off_three_smooth_grids(n):
    grid = GridSpec(n)
    line, cube = flat(_measure(grid, 3, 2024, 0)), flat(cube_measure(grid, 3))
    assert line == pytest.approx(cube, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [10, 14, 20])
def test_constant_probe_sets_no_moser_constant(n):
    # its derivative blocks are transform roundoff on these grids, and a ratio
    # of them reads 28-178; the blends set about 1.485 on every grid
    smooth = calibrate(GridSpec(12), 3).c_moser
    for k, value in calibrate(GridSpec(n), 3).c_moser.items():
        assert value == pytest.approx(smooth[k], rel=1e-3)

"""Tour of the spectral toolkit on the flat 3-torus.

A field is the array of its samples on a uniform n**3 grid over
[0, 2*pi)**3, shape (n, n, n).  Its Fourier coefficients use the convention
u_hat(k) = FFT(u) / n**3, so a single cosine mode shows up as a pair of
coefficients of size 1/2.  A real field has u_hat(-k) = conj u_hat(k), so
the package keeps only the half spectrum np.fft.rfftn returns: shape
(n, n, n/2 + 1), k3 = 0 .. n/2.  Everything downstream (norms, energies,
products) is built on that layout.
"""

import numpy as np

from toruswave import GridSpec
from toruswave.fields import hm_norms, norm_weights, spectral_power, weighted_sums
from toruswave.solver import dealias_mask

grid = GridSpec(16)
x1, x2, x3 = grid.coordinates()
full = np.zeros(grid.shape)
n3 = grid.n**3


def half_spectrum(field):
    return np.fft.rfftn(field) / n3


# A field with three modes and a constant background.  coordinates()
# returns broadcastable axes, so pad with zeros to get a dense array.
u = full + 0.3 + np.cos(x1) + 0.5 * np.sin(2.0 * x2 + x3)

u_hat = half_spectrum(u)
print("spectrum shape    :", u_hat.shape, "(k3 = 0 .. n/2 only)")
print("mean from values  :", u.mean())
print("mean from spectrum:", u_hat[0, 0, 0].real)

# Round trip is exact to machine precision.
back = np.fft.irfftn(u_hat * n3, s=grid.shape, axes=(0, 1, 2))
print("round-trip error  :", np.max(np.abs(back - u)))

# Sobolev norms weight each coefficient by S_m(k) = sum over |a| <= m of
# k^(2a) and include the (2*pi)^3 volume factor, so a pure constant c has
# L2 norm c*(2*pi)^(3/2).  On the half spectrum the weight also counts each
# k3 plane strictly between 0 and n/2 twice, once for k and once for -k.
# Every norm and energy is one weighted sum, weighted_sums(density, rows): a
# per-mode density times each weight row, summed by np.add.reduce along the
# half layout, with no BLAS call.  The rows are cached per grid size and
# order, norm_weights(n, m) = [S_m, D_1, ..., D_m], D_k summing the squared
# derivative symbols of order k.  hm_norms(raw, m) sums the power of the raw
# rfftn spectrum against them: [|u|_Hm, |D_1 u|, ..., |D_m u|].
c = np.full(grid.shape, 0.3)
print("|const 0.3|_L2    :", hm_norms(np.fft.rfftn(c), 0)[0],
      "expected", 0.3 * (2.0 * np.pi) ** 1.5)
s_1, d_1 = weights = norm_weights(grid.n, 1)
print("norm_weights shape:", weights.shape, "(rows S_1 and D_1 on the half layout)")
print("S_1 at k=(1,0,0)  :", s_1[1, 0, 0], "(k3 = 0 plane: once)")
print("S_1 at k=(0,0,1)  :", s_1[0, 0, 1], "(k3 = 1 plane: twice)")
# k = (-8, 0, 0) sits on the Nyquist plane: S_1 counts it in full, while the
# derivative block D_1 zeroes it, as a first spectral derivative does
print("S_1, D_1 at k=(-8,0,0):", s_1[8, 0, 0], d_1[8, 0, 0])
# a norm is the square root of the weighted sum of |c|^2 against its row
wave_hat = np.fft.rfftn(full + np.sin(x1))
print("|sin x1|_H1       :", np.sqrt(weighted_sums(spectral_power(wave_hat), weights[:1]))[0],
      "=", hm_norms(wave_hat, 1)[0])

for m in range(4):
    print(f"|u|_H{m} =", hm_norms(np.fft.rfftn(u), m)[0])

# Derivatives act diagonally on the spectrum.  d/dx1 of cos(x1) is
# -sin(x1); multiply by i k1 and compare against the analytic answer.
k1 = np.fft.fftfreq(grid.n, d=1.0 / grid.n)[:, None, None]
du = np.fft.irfftn(1j * k1 * u_hat * n3, s=grid.shape, axes=(0, 1, 2))
analytic = full - np.sin(x1)
print("d/dx1 error       :", np.max(np.abs(du - analytic)))

# Pointwise products alias: cos(4 x1) * cos(5 x1) contains mode 9, which
# a 16-point axis cannot hold, so the grid product folds it onto mode
# 16 - 9 = 7 as a ghost.  The time loop applies the 2/3 rule to every
# force: dealias_mask keeps |k_i| <= n/3 = 5.  Both factors live below
# n/3, so every ghost of their product lands above it and the mask
# removes it, while the true content below n/3 passes untouched.
v = full + np.cos(4.0 * x1)
w = full + np.cos(5.0 * x1)
naive = v * w
masked = half_spectrum(naive) * dealias_mask(grid.n)

print("mode 7 naive      :", half_spectrum(naive)[7, 0, 0].real, "(alias ghost)")
print("mode 7 masked     :", masked[7, 0, 0].real)
print("mode 1 either way :", masked[1, 0, 0].real, "(true content)")

"""Tour of the spectral toolkit on the flat 3-torus.

Fields live on a uniform n**3 grid over [0, 2*pi)**3.  Their Fourier
coefficients use the convention u_hat(k) = FFT(u) / n**3, so a single
cosine mode shows up as a pair of coefficients of size 1/2.  A real field
has u_hat(-k) = conj u_hat(k), so the package keeps only the half spectrum
np.fft.rfftn returns: shape (n, n, n/2 + 1), k3 = 0 .. n/2.  Everything
downstream (norms, energies, products) is built on that layout.
"""

import numpy as np

from toruswave import Field, GridSpec, alias_free_product, sobolev_norm, sobolev_weight
from toruswave.fields import l2_norm, sup_norm

grid = GridSpec(16)
x1, x2, x3 = grid.coordinates()
full = np.zeros(grid.shape)
n3 = grid.n**3


def half_spectrum(field):
    return np.fft.rfftn(field.values) / n3


# A field with three modes and a constant background.  coordinates()
# returns broadcastable axes, so pad with zeros to get a dense array.
u = Field(grid, full + 0.3 + np.cos(x1) + 0.5 * np.sin(2.0 * x2 + x3))

u_hat = half_spectrum(u)
print("spectrum shape    :", u_hat.shape, "(k3 = 0 .. n/2 only)")
print("mean from values  :", u.mean())
print("mean from spectrum:", u_hat[0, 0, 0].real)

# Round trip is exact to machine precision.
back = np.fft.irfftn(u_hat * n3, s=grid.shape, axes=(0, 1, 2))
print("round-trip error  :", np.max(np.abs(back - u.values)))

# Sobolev norms weight each coefficient by S_m(k) = sum over |a| <= m of
# k^(2a) and include the (2*pi)^3 volume factor, so a pure constant c has
# L2 norm c*(2*pi)^(3/2).  On the half spectrum the weight also counts each
# k3 plane strictly between 0 and n/2 twice, once for k and once for -k.
c = Field(grid, np.full(grid.shape, 0.3))
print("|const 0.3|_L2    :", l2_norm(c), "expected", 0.3 * (2.0 * np.pi) ** 1.5)
print("S_1 at k=(1,0,0)  :", sobolev_weight(grid.n, 1)[1, 0, 0], "(k3 = 0 plane: once)")
print("S_1 at k=(0,0,1)  :", sobolev_weight(grid.n, 1)[0, 0, 1], "(k3 = 1 plane: twice)")

for m in range(4):
    print(f"|u|_H{m} =", sobolev_norm(u, m))

# Derivatives act diagonally on the spectrum.  d/dx1 of cos(x1) is
# -sin(x1); multiply by i k1 and compare against the analytic answer.
k1 = np.fft.fftfreq(grid.n, d=1.0 / grid.n)[:, None, None]
du = np.fft.irfftn(1j * k1 * u_hat * n3, s=grid.shape, axes=(0, 1, 2))
analytic = full - np.sin(x1)
print("d/dx1 error       :", np.max(np.abs(du - analytic)))

# Pointwise products alias: cos(4 x1) * cos(5 x1) contains mode 9, which
# a 16-point axis cannot hold, so the naive product folds it onto mode
# 16 - 9 = 7 as a ghost.  alias_free_product evaluates on a padded grid
# and truncates, so the ghost never appears.
v = Field(grid, full + np.cos(4.0 * x1))
w = Field(grid, full + np.cos(5.0 * x1))
naive = Field(grid, v.values * w.values)
clean = alias_free_product(v, w)
clean_hat = np.fft.rfftn(clean.values) / clean.grid.n**3

print("mode 7 naive      :", half_spectrum(naive)[7, 0, 0].real, "(alias ghost)")
print("mode 7 dealiased  :", clean_hat[7, 0, 0].real)
print("mode 1 either way :", clean_hat[1, 0, 0].real, "(true content)")
print("sup norm of u     :", sup_norm(u))

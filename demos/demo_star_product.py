"""Desk-scale quantization: operators from symbols on a periodic grid, and
the truncated star product as the symbol of their composition.

Run:  python3 demos/demo_star_product.py
"""

import math

import numpy as np

from nrlab.quantize import BoxGrid, GridField, GridSymbol, frequency_grid, op_apply, star_truncated

zg = BoxGrid.regular(16 * math.pi, 256, 1)
qg = frequency_grid(zg)
x = zg.axis_points(0)
u = GridField(zg, np.exp(-(x**2) / 2.0) * np.exp(3j * x))

print("=" * 70)
print("Left quantization on the periodic grid")
print("=" * 70)
one = GridSymbol.constant(zg, qg)
xi = GridSymbol.coordinate(zg, qg, "zeta", 0)
xxi = GridSymbol.from_poly(zg, qg, {((1,), (1,)): 1.0})
k = zg.axis_freqs(0)
du = np.fft.ifftn(np.fft.fftn(u.values) * k)
print(f"  Op(1) u = u           : {np.max(np.abs(op_apply(one, u).values - u.values)):.1e}")
print(f"  Op(xi) u = D u        : {np.max(np.abs(op_apply(xi, u).values - du)):.1e}")
print(f"  Op(x xi) u = x D u    : {np.max(np.abs(op_apply(xxi, u).values - x*du)):.1e}")

print()
print("=" * 70)
print("Star product: composition of quantizations at the symbol level")
print("=" * 70)
xs = GridSymbol.coordinate(zg, qg, "z", 0)
st = star_truncated(xi, xs, 1)
print(f"  xi * x at N = 1 gives the exact symbol:  {st.poly}")
lhs = op_apply(xi, op_apply(xs, u))
print(f"  operator action residual: "
      f"{np.max(np.abs(lhs.values - op_apply(st, u).values))/u.norm():.1e}")

a = GridSymbol.from_function(zg, qg, lambda z, q: np.exp(-(z/6.0)**2 - (q/3.2)**2)
                             * (1 + 0.3*np.sin(z/5)*np.cos(q/4)))
b = GridSymbol.from_function(zg, qg, lambda z, q: np.exp(-(z/6.6)**2 - (q/2.9)**2)
                             * (1 + 0.2*np.cos(z/6.5)*np.sin(q/4.8)))
ab = op_apply(a, op_apply(b, u))
print("\n  smooth symbols: composition residual per truncation order")
for N in range(4):
    r = op_apply(star_truncated(a, b, N), u)
    print(f"    N = {N}:  {np.max(np.abs(ab.values - r.values))/u.norm():.3e}")


"""Two-sheet Sobolev norms and the uniform-invertibility proxy: the ratio
|u| / |P u| in the shifted norms stays bounded along the c-ladder.

Run:  python3 demos/demo_uniform_norms.py   (a few seconds)
"""

import math

import numpy as np

from nrlab.quantize import BoxGrid, GridField
from nrlab.norms import (
    OrderProfile, calctwo_norm, natural_norm, sc_norm, split_energy,
    uniform_ratio_experiment,
)

print("=" * 70)
print("Energy splitting")
print("=" * 70)
g = BoxGrid((8 * math.pi, 8 * math.pi), (512, 64))
h = 0.2
t, x = g.mesh()
psi = np.exp(-((t / 3.0) ** 2) - (x / 1.5) ** 2)
u = GridField(g, np.exp(1j * t / h**2) * psi)
pair = split_energy(u, h)
print(f"  carrier e^(+ic^2 t):  |u_plus - psi| = "
      f"{np.max(np.abs(pair.u_plus.values - psi)):.1e},  "
      f"|u_minus| / |psi| = {pair.u_minus.norm()/u.norm():.1e}")
rec = pair.reconstruct()
print(f"  reconstruction error: {np.max(np.abs(rec.values - u.values)):.1e}")

print()
print("=" * 70)
print("Norm scales")
print("=" * 70)
ub = GridField(g, psi)
print(f"  L2                    : {sc_norm(ub, 0.0):.6f}")
print(f"  sc  (m = 1)           : {sc_norm(ub, 1.0):.6f}")
print(f"  natural (m=1, l=1, h) : {natural_norm(ub, 1.0, None, 1.0, h):.6f}")
orders = OrderProfile(m=1.0, ell=1.0, q_minus=0.0, q_plus=0.0,
                      s_past=-0.4, s_future=-0.6)
print(f"  two-sheet (forward profile -0.4 -> -0.6): "
      f"{calctwo_norm(u, h, orders):.6f}")

print()
print("=" * 70)
print("Uniform-invertibility proxy")
print("=" * 70)
print("  manufactured family (plain + both envelope carriers), ratio")
print("  |u|_(m, s, l) / |P u|_(m-1, s+1, l-1) along c in {4, 8, 16, 32}:")
tab = uniform_ratio_experiment([4.0, 8.0, 16.0, 32.0], orders, n_base=4)
for c, v in tab.per_c_max.items():
    print(f"    c = {c:4.0f}:  max family ratio {v:.4f}")
print(f"  spread max/min = {tab.spread:.3f}  (uniformity proxy: <= 3)")
print(f"  worst member drift largest-c/smallest-c = "
      f"{max(tab.member_drift.values()):.3f}  (no divergence: <= 1.5)")

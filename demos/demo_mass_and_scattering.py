"""Mass evolution of the Schrodinger normal operator and scattering data in
rescaled variables X = x/t.

Run:  python3 demos/demo_mass_and_scattering.py
"""

import numpy as np

from nrlab.quantize import BoxGrid
from nrlab.symbols import SignBranch
from nrlab.pde import (
    SchrState, mass_bound_check, mass_trace, scattering_mass_identity, scattering_profile,
    schrodinger_solve,
)

MI = SignBranch.MINUS

print("=" * 70)
print("Mass trace and the Gronwall envelope")
print("=" * 70)
g = BoxGrid.regular(160.0, 512, 1)
x = g.axis_points(0)
psi = np.exp(-(x**2) / 8.0)
times = np.linspace(-20.0, 20.0, 161)

free = schrodinger_solve(SchrState(g, psi, -20.0), MI, times, dt=0.05)
_, Ms = mass_trace(free)
print(f"  free evolution: relative mass drift {(Ms.max()-Ms.min())/Ms[0]:.1e}")

# V = i 0.05 <z>^-2, keyed () as the potential in the normal operator's table
def W(t, mesh, s):
    return {(): 1j * 0.05 / (1.0 + t * t + mesh[0] * mesh[0])}


pert = schrodinger_solve(SchrState(g, psi, -20.0), MI, times, W, dt=0.02)
rep = mass_bound_check(pert, 0.2)
_, Mp = mass_trace(pert)
print(f"  Im V = 0.05 <z>^-2: mass moves in [{Mp.min():.4f}, {Mp.max():.4f}],")
print(f"  |dM/dt| <= 0.2 <t>^-2 M pointwise: {rep.ok} "
      f"(Gronwall total factor e^(0.2 pi) = {np.exp(0.2*np.pi):.3f})")
rep_small = mass_bound_check(pert, 1e-4)
print(f"  undersized constant 1e-4 correctly fails at t = {rep_small.first_violation}")

print()
print("=" * 70)
print("Scattering profile v(t, X) = (2 pi i t)^(d/2) e^(-it|X|^2/2) v(t, tX)")
print("=" * 70)
g2 = BoxGrid.regular(280.0, 2048, 1)
x2 = g2.axis_points(0)
psi2 = np.exp(-(x2**2) / 8.0)
run = schrodinger_solve(SchrState(g2, psi2, 0.0), MI,
                        [-4.0, -8.0, -16.0, -32.0], dt=0.05)
Xg = BoxGrid.regular(8.0, 256, 1)
profs = {}
for st in run:
    profs[st.t] = scattering_profile(st, Xg)
    lhs, rhs = scattering_mass_identity(st, profs[st.t])
    print(f"  t = {st.t:6.1f}:  M(t) = {lhs:.8f}   (2pi)^-d |profile|^2 = {rhs:.8f}")

print("\n  Cauchy differences |v(-2T) - v(-T)| (the profile converges ~ 1/T):")
for T in (4.0, 8.0, 16.0):
    d = profs[-2 * T].values - profs[-T].values
    print(f"    T = {T:4.0f}:  {np.sqrt(np.sum(np.abs(d)**2)*Xg.dvol):.4f}")

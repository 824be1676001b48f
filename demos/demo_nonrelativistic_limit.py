"""The non-relativistic limit at work: Klein-Gordon envelopes converge to
Schrodinger solutions at second order in 1/c, and the asymptotic-mass
coefficient acts as the effective Newtonian potential.

Run:  python3 demos/demo_nonrelativistic_limit.py
"""

import math
from dataclasses import replace

import numpy as np

from nrlab.experiments import bandlimited_gaussian
from nrlab.quantize import BoxGrid
from nrlab.symbols import ClassicalSymbolProfile, MetricParams, SignBranch, aleph
from nrlab.pde import (
    SchrState, conjugate_compare, kg_envelope_solve, normal_terms, schrodinger_solve,
    symmetry_defect,
)

MI = SignBranch.MINUS


g = BoxGrid.regular(40 * math.pi, 256, 1)
psi = bandlimited_gaussian(g, 2.0)
times = np.linspace(0.0, 1.0, 9)

print("=" * 70)
print("Free comparison: sup_t |v_KG - v_Schr| over a c-ladder, where the")
print("free Klein-Gordon envelope v_KG = e^{ic^2 t} u_KG evolves by the rest")
print("gap omega - c^2 and the Schrodinger one by its c = infinity value |xi|^2/2")
print("=" * 70)
errs = {}
for c in (8.0, 16.0, 32.0):
    kgs = kg_envelope_solve(psi, MI, MetricParams.free(1), c, times, g)
    ss = schrodinger_solve(SchrState(g, psi, 0.0), MI, times, dt=0.02)
    errs[c] = conjugate_compare(kgs, ss)
    print(f"  c = {c:4.0f}:  envelope error {errs[c]:.3e}")
print(f"  ratios: {errs[8.0]/errs[16.0]:.2f}, {errs[16.0]/errs[32.0]:.2f} "
      f"(second order would be 4.00)")
print(f"  leading error is the dispersion gap -|xi|^4 t / (8 c^2)")

print()
print("=" * 70)
print("Swapping branches destroys the comparison (order one error):")
print("=" * 70)
kgs = kg_envelope_solve(psi, MI, MetricParams.free(1), 8.0, times, g)
wrong = schrodinger_solve(SchrState(g, psi, 0.0), SignBranch.PLUS, times, dt=0.02)
err = conjugate_compare(kgs, wrong)
print(f"  minus-branch envelopes vs the plus-branch solver, the wrong dispersion: {err:.2f}")

print()
print("=" * 70)
print("Gravity as a potential: a lapse perturbation alpha feeds the")
print("asymptotic-mass coefficient into the Schrodinger normal operator.")
print("Klein-Gordon side: e^{ic^2 t} P e^{-ic^2 t} v = 0 with the coefficients of")
print("ConjugatedOperator, from exact minus-branch data, by the Schrodinger solver's")
print("Strang step on both twisted branches, at a cost that does not grow with c")
print("=" * 70)
g2 = BoxGrid.regular(40 * math.pi, 128, 1)
psi2 = bandlimited_gaussian(g2, 2.0)
M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=0.3))
print(f"  asymptotic mass at the origin: {aleph(M, [0.0, 0.0]):+.6f} "
      f"(= -alpha(0))")
kg_env = kg_envelope_solve(psi2, MI, M, 8.0, times, g2)
without = replace(M, alpha=ClassicalSymbolProfile.zero())     # the limit keeps alpha alone
for label, metric in (("with potential   ", M), ("without potential", without)):
    ss = schrodinger_solve(SchrState(g2, psi2, 0.0), MI, times, normal_terms(metric), dt=0.01)
    err = conjugate_compare(kg_env, ss)
    print(f"  {label}: envelope error {err:.3e}")
print("  -> omitting the potential degrades the comparison by an order of")
print("     magnitude: the limit genuinely sees the metric's mass term.")
Mg = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=0.3),
                  w=(ClassicalSymbolProfile(amplitude=0.2),),
                  hjk=((ClassicalSymbolProfile(amplitude=0.1),),))
ss = schrodinger_solve(SchrState(g2, psi2, 0.0), MI, times, normal_terms(Mg), dt=0.01)
err = conjugate_compare(kg_envelope_solve(psi2, MI, Mg, 8.0, times, g2), ss)
print(f"  the same evolution with shift w = 0.2 and hjk = 0.1 added: {err:.3e}")

print()
print("=" * 70)
print("Symmetry defect of the conjugated operator")
print("=" * 70)
from nrlab.symbols import OperatorCoefficient
stg = BoxGrid.regular(40.0, 256, 2)
Mi = MetricParams(d=1, W=OperatorCoefficient(
    imag=ClassicalSymbolProfile(amplitude=0.1, order=-2)))
rep = symmetry_defect(Mi, 10.0, stg)
print(f"  Im W = 0.1 <z>^-2 recovered at order "
      f"{rep.fitted_orders['r_0']:.2f} (target -2)")

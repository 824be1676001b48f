"""Acceptance criteria.

Each test implements one numbered criterion at its stated tolerance and
prints one PASS/FAIL line (run with -s to see them live).  Tolerances are
pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from conftest import bandlimited_gaussian
from nrlab.geometry import (
    BdfValues, ChartCoords, ChartId, ChartTag, ParabolicRay, PhasePoint,
    b_order_fit, to_chart,
)
from nrlab.symbols import (
    ClassicalSymbolProfile, MetricParams, OperatorCoefficient, Side,
    SignBranch, radial_point, rescaled_symbol,
)
from nrlab import flow as fl
from nrlab import norms as nm
from nrlab import pde
from nrlab import quantize as qz

PL, MI = SignBranch.PLUS, SignBranch.MINUS


def crit(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def pert_metric(amp):
    return MetricParams(
        d=1,
        alpha=ClassicalSymbolProfile(amplitude=amp, waves=(((0.7, 1.3), 0.4, 0.2),)),
        w=(ClassicalSymbolProfile(amplitude=0.8 * amp, waves=(((1.1, -0.4), 0.3, 0.0),)),),
        hjk=((ClassicalSymbolProfile(amplitude=amp, waves=(((0.3, 0.9), 0.0, 0.5),)),),),
    )


def test_01_characteristic_set_exactness():
    """Sheets (tau_nat +/- 1)^2 - xi_nat^2 = 1 are symbol zeros in all charts."""
    rng = np.random.default_rng(101)
    M = MetricParams.free(1)
    worst = 0.0
    n = 10000
    for i in range(n):
        branch = PL if i % 2 else MI
        xi = rng.uniform(-3.0, 3.0, size=1)
        root = math.sqrt(1.0 + float(xi @ xi))
        tau = branch.sign * (root - 1.0)
        h = rng.uniform(0.0, 1.0)
        p = PhasePoint(rng.uniform(-2, 2), rng.uniform(-2, 2, 1), tau, xi, h)
        worst = max(worst, abs(rescaled_symbol(p, M, branch)))
        for tag in (ChartTag.DF_PROJECTIVE, ChartTag.PF_STANDARD,
                    ChartTag.PF_NAT_PARABOLIC):
            try:
                cc = to_chart(p, ChartId(tag))
            except Exception:
                continue
            worst = max(worst, abs(rescaled_symbol(cc, M, branch)))
    # df-chart zero set: xi_hat^2 = 1 + 2 rho_df at rho_df in [0, 1/2]
    for i in range(2000):
        rho = rng.uniform(0.0, 0.5)
        sgn_xi = rng.choice([-1.0, 1.0])
        xh = sgn_xi * math.sqrt(1.0 + 2.0 * rho)
        cc = ChartCoords(ChartId(ChartTag.DF_PROJECTIVE, sign=+1),
                         np.array([0.0, 0.0, rho, xh, rng.uniform(0, 1)]), None)
        worst = max(worst, abs(rescaled_symbol(cc, M, PL)))
    crit(1, worst <= 1e-10, f"max |rescaled symbol| on sheets = {worst:.2e}")


def _flow_ensemble(M, n_per_case, rng, h_list=(0.0, 0.1, 0.5), budget=50.0,
                   rtol=1.0e-9):
    cases, wants = [], []
    for branch in (PL, MI):
        for h in h_list:
            for i in range(n_per_case):
                if h == 0.0 and i % 4 == 0:
                    # parabolic-face start (standard frequencies at h = 0)
                    xi = rng.uniform(0.3, 2.0, 1) * rng.choice([-1, 1], 1)
                    tau = branch.sign * float(xi @ xi) / 2.0
                    Y = rng.normal(size=2)
                    Y *= rng.uniform(0.1, 0.8) / np.linalg.norm(Y)
                    start = fl.parabolic_start(Y, tau, xi)
                else:
                    xi = rng.uniform(0.3, 2.0, 1) * rng.choice([-1, 1], 1)
                    Y = rng.normal(size=2)
                    Y *= rng.uniform(0.1, 0.8) / np.linalg.norm(Y)
                    start = fl.char_start(M, branch, Y, xi, h)
                want_fwd = (fl.Termination.REACHED_FUTURE if branch is PL
                            else fl.Termination.REACHED_PAST)
                want_bwd = (fl.Termination.REACHED_PAST if branch is PL
                            else fl.Termination.REACHED_FUTURE)
                for direction, want in (("forward", want_fwd), ("backward", want_bwd)):
                    cases.append((start, direction, branch))
                    wants.append(want)
    trajs = fl.integrate_flows(cases, M, budget=budget, rtol=rtol)
    correct = sum(tr.termination is want for tr, want in zip(trajs, wants))
    return len(trajs), correct, max(tr.max_p_resid for tr in trajs)


def test_02_source_to_sink_flow():
    """All seeded trajectories reach the correct radial set, both directions,
    free and at perturbation amplitude 0.2."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    # rtol 1e-8 keeps the ensemble inside the runtime budget while the
    # characteristic set is still preserved two orders below the tolerance
    tot_f, ok_f, res_f = _flow_ensemble(MetricParams.free(1), 200, rng, rtol=1.0e-8)
    tot_p, ok_p, res_p = _flow_ensemble(pert_metric(0.2), 200, rng, rtol=1.0e-8)
    dt = time.time() - t0
    ok = (ok_f == tot_f) and (ok_p == tot_p) and max(res_f, res_p) <= 1e-6
    crit(2, ok, f"free {ok_f}/{tot_f}, perturbed {ok_p}/{tot_p}, "
                f"max |p| {max(res_f, res_p):.1e}, {dt:.0f}s")


def test_03_quadratic_defining_function():
    """Free probes return iota = 2|xi_1| exactly; perturbed probes keep the
    attraction structure."""
    M0 = MetricParams.free(1)
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10):
        branch = rng.choice([PL, MI])
        side = rng.choice([Side.PAST, Side.FUTURE])
        xi = rng.uniform(0.3, 2.0, 1) * rng.choice([-1, 1], 1)
        rp = radial_point(xi, rng.uniform(0.05, 0.5), side, branch)
        q = fl.qdf_probe(rp, 0.05, 80, M0, branch, seed=int(rng.integers(2**31)))
        worst = max(worst, abs(q.iota_est - 2.0 * abs(xi[0])),
                    q.decomposition_residual, abs(q.E_est) * 0.0)
    free_ok = worst <= 1e-10

    Mp = pert_metric(0.1)
    iota_min, F_min, cubic_max = math.inf, math.inf, 0.0
    for _ in range(100):
        branch = rng.choice([PL, MI])
        side = rng.choice([Side.PAST, Side.FUTURE])
        xi = rng.uniform(0.4, 2.0, 1) * rng.choice([-1, 1], 1)
        rp = radial_point(xi, rng.uniform(0.05, 0.5), side, branch)
        q = fl.qdf_probe(rp, 0.05, 60, Mp, branch, seed=int(rng.integers(2**31)))
        iota_min = min(iota_min, q.iota_est)
        F_min = min(F_min, q.F_est)
        cubic_max = max(cubic_max, q.cubic_bound)
    pert_ok = iota_min >= 0.5 and F_min >= -1e-12 and np.isfinite(cubic_max)
    crit(3, free_ok and pert_ok,
         f"free residual {worst:.1e}; perturbed iota_min {iota_min:.2f}, "
         f"F_min {F_min:.1e}, cubic C {cubic_max:.2f}")


def test_04_threshold_sign():
    """sign(-(+/-) varsigma alpha) = sign(s); s = 0 gives |alpha| <= 1e-8."""
    M = MetricParams.free(1)
    rng = np.random.default_rng(404)
    ok = True
    min_mag = math.inf
    for _ in range(100):
        branch = rng.choice([PL, MI])
        side = rng.choice([Side.PAST, Side.FUTURE])
        xi = rng.uniform(0.1, 2.0, 1) * rng.choice([-1, 1], 1)
        rp = radial_point(xi, rng.uniform(0.0, 0.5), side, branch)
        for s in (-1.0, 1.0):
            a = fl.weight_flow_rate(rp, (0.0, s, 0.0, 0.0), M, branch)
            signed = -branch.sign * side.sign * a
            ok = ok and (signed * s > 0) and abs(a) >= 1e-3
            min_mag = min(min_mag, abs(a))
        a0 = fl.weight_flow_rate(rp, (0.0, 0.0, 0.0, 0.0), M, branch)
        ok = ok and abs(a0) <= 1e-8
    crit(4, ok, f"signs correct over 100 samples, min |alpha| {min_mag:.1e}")


def test_05_quantization_composition():
    """Polynomial star, composition gain, and the frequency-bdf inequality."""
    zg = qz.BoxGrid.regular(16 * math.pi, 256, 1)
    qg = qz.frequency_grid(zg)
    x = zg.axis_points(0)
    u = qz.GridField(zg, np.exp(-(x**2) / 2.0) * np.exp(1j * 3.0 * x))
    xi_s = qz.GridSymbol.coordinate(zg, qg, "zeta", 0)
    x_s = qz.GridSymbol.coordinate(zg, qg, "z", 0)
    st = qz.star_truncated(xi_s, x_s, 1)
    lhs = qz.op_apply(xi_s, qz.op_apply(x_s, u))
    poly_resid = np.max(np.abs(lhs.values - qz.op_apply(st, u).values)) / u.norm()

    a = qz.GridSymbol.from_function(
        zg, qg, lambda z, q: np.exp(-((z / 6.0) ** 2) - (q / 3.2) ** 2)
        * (1 + 0.3 * np.sin(z / 5) * np.cos(q / 4)))
    b = qz.GridSymbol.from_function(
        zg, qg, lambda z, q: np.exp(-((z / 6.6) ** 2) - (q / 2.9) ** 2)
        * (1 + 0.2 * np.cos(z / 6.5) * np.sin(q / 4.8)))
    ab = qz.op_apply(a, qz.op_apply(b, u))
    resids = []
    for N in range(4):
        r = qz.op_apply(qz.star_truncated(a, b, N), u)
        resids.append(np.max(np.abs(ab.values - r.values)) / u.norm())
    gain = -float(np.polyfit(np.arange(4), np.log10(resids), 1)[0])

    # frequency-face inequality with the proof's regional bdf choices
    rng = np.random.default_rng(505)
    c_worst = 0.0
    for _ in range(10000):
        tau = rng.standard_cauchy() * 10
        xi = rng.standard_cauchy() * 10
        h = rng.uniform(1e-3, 1.0)
        if h**2 * tau**2 + xi**2 > h**-2:
            rho_df = (1.0 + h**4 * tau**2 + h**2 * xi**2) ** -0.5
            rho_nf = h
        else:
            rho_df = 1.0
            rho_nf = (1.0 + tau**2 + xi**4) ** -0.25
        binv = (1.0 + tau**2 + xi**2) ** -0.5
        c_worst = max(c_worst, rho_df * rho_nf**2 / binv, binv / (rho_df * rho_nf))
    ok = poly_resid <= 1e-10 and gain >= 0.8 and c_worst <= 2.0
    crit(5, ok, f"x xi - i residual {poly_resid:.1e}; per-term gain {gain:.2f}; "
                f"bdf inequality constant {c_worst:.3f}")


def test_06_nonrelativistic_convergence():
    """Second-order envelope convergence and the asymptotic-mass potential."""
    t0 = time.time()
    g = qz.BoxGrid.regular(40 * math.pi, 256, 1)
    psi = bandlimited_gaussian(g, 2.0)
    times = np.linspace(0.0, 1.0, 9)
    errs = {}
    for c in (8.0, 16.0, 32.0):
        kgs = pde.kg_free_solve(pde.kg_branch_data(g, psi, c, MI), times)
        ss = pde.schrodinger_solve(pde.SchrState(g, psi, 0.0), MI, times, dt=0.02)
        errs[c] = pde.conjugate_compare(kgs, ss, MI, c).sup_error
    r1, r2 = errs[8.0] / errs[16.0], errs[16.0] / errs[32.0]

    g2 = qz.BoxGrid.regular(40 * math.pi, 128, 1)
    psi2 = bandlimited_gaussian(g2, 2.0)
    M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=0.3))
    kg_env = pde.kg_envelope_solve(psi2, MI, M, 8.0, times, g2)
    with_pot = pde.schrodinger_solve(pde.SchrState(g2, psi2, 0.0), MI, times,
                                     pde.SchrCoefficients.from_metric(M), dt=0.01)
    without = pde.schrodinger_solve(
        pde.SchrState(g2, psi2, 0.0), MI, times,
        pde.SchrCoefficients.from_metric(M, include_aleph=False), dt=0.01)
    good = pde.conjugate_compare(kg_env, with_pot, MI, 8.0).sup_error
    bad = pde.conjugate_compare(kg_env, without, MI, 8.0).sup_error
    degr = bad / good
    ok = 3.2 <= r1 <= 4.8 and 3.2 <= r2 <= 4.8 and degr >= 5.0
    crit(6, ok, f"ratios {r1:.2f}, {r2:.2f} in [3.2, 4.8]; "
                f"potential-off degradation {degr:.1f}x >= 5x "
                f"({time.time()-t0:.0f}s)")


def test_07_mass_bound_and_scattering():
    """Mass conservation/bound with Gronwall envelope; scattering identity
    and Cauchy decay."""
    t0 = time.time()
    g = qz.BoxGrid.regular(160.0, 512, 1)
    x = g.axis_points(0)
    psi = np.exp(-(x**2) / 8.0)
    times = np.linspace(-20.0, 20.0, 161)
    free = pde.schrodinger_solve(pde.SchrState(g, psi, -20.0), MI, times, dt=0.05)
    _, Ms = pde.mass_trace(free)
    free_ok = (Ms.max() - Ms.min()) <= 1e-10 * Ms[0]

    W = lambda t, xx: 1j * 0.05 / (1.0 + t * t + xx * xx)
    pert = pde.schrodinger_solve(pde.SchrState(g, psi, -20.0), MI, times,
                                 pde.SchrCoefficients(1, W=W), dt=0.02)
    rep = pde.mass_bound_check(pert, 0.2)

    g2 = qz.BoxGrid.regular(280.0, 2048, 1)
    x2 = g2.axis_points(0)
    psi2 = np.exp(-(x2**2) / 8.0)
    run = pde.schrodinger_solve(pde.SchrState(g2, psi2, 0.0), MI,
                                [-4.0, -8.0, -16.0, -32.0], dt=0.05)
    Xg = qz.BoxGrid.regular(8.0, 256, 1)
    id_err = 0.0
    profs = {}
    for st in run:
        profs[st.t] = pde.scattering_profile(st, Xg)
        lhs, rhs = pde.scattering_mass_identity(st, profs[st.t])
        id_err = max(id_err, abs(lhs - rhs) / lhs)
    diffs = [float(np.sqrt(np.sum(np.abs(profs[-2 * T].values
                                         - profs[-T].values) ** 2) * Xg.dvol))
             for T in (4.0, 8.0, 16.0)]
    slope = float(np.polyfit(np.log([4.0, 8.0, 16.0]), np.log(diffs), 1)[0])
    ok = free_ok and rep.ok and id_err <= 1e-8 and slope <= -0.8
    crit(7, ok, f"free drift ok={free_ok}; bound ok={rep.ok}; "
                f"identity err {id_err:.1e}; Cauchy exponent {slope:.2f} "
                f"({time.time()-t0:.0f}s)")


def test_08_uniform_ratio_proxy():
    """Manufactured-family ratio spread <= 3 across c in {4, 8, 16, 32} with
    no member's ratio diverging (largest-c <= 1.5x smallest-c)."""
    t0 = time.time()
    orders = nm.OrderProfile(m=1.0, ell=1.0, q_minus=0.0, q_plus=0.0,
                             s_past=-0.4, s_future=-0.6)
    tab = nm.uniform_ratio_experiment([4.0, 8.0, 16.0, 32.0], orders, n_base=4)
    n_members = len({row[1] for row in tab.rows})
    drift = max(tab.member_drift.values())
    ok = tab.spread <= 3.0 and drift <= 1.5 and n_members >= 12
    crit(8, ok, f"{n_members} members; spread {tab.spread:.2f} <= 3; "
                f"max drift {drift:.2f} <= 1.5 ({time.time()-t0:.0f}s)")


def test_09_degeneracy_demonstration():
    """The unresolved natural flow vanishes on the bad sheet over interior
    points; the blown-up radial set is a nondegenerate sink/source."""
    worst_field = 0.0
    for branch in (PL, MI):
        p = PhasePoint(0.0, [0.0], -branch.sign * 2.0, [0.0], 0.0)
        worst_field = max(worst_field, fl.natural_degeneracy(p))
    eig_min = math.inf
    sink_ok = True
    for branch in (PL, MI):
        for side in (Side.PAST, Side.FUTURE):
            rp = radial_point([0.0], 0.0, side, branch)
            ev = fl.radial_linearization(rp, MetricParams.free(1), branch)
            eig_min = min(eig_min, float(np.min(np.abs(np.real(ev)))))
            # sink when the flow's terminal set, source at the other end
            want_sink = (branch.sign * side.sign) > 0
            sink_ok = sink_ok and (np.all(np.real(ev) < 0) == want_sink)
    ok = worst_field <= 1e-12 and eig_min >= 0.5 and sink_ok
    crit(9, ok, f"natural field norm {worst_field:.1e} <= 1e-12; "
                f"min |eig| {eig_min:.2f} >= 0.5; orientation ok={sink_ok}")


def test_10_parabolic_b_orders():
    """Coefficient decay of d_tau and d_xi in the compactification charts."""
    ray = ParabolicRay(1.0, [0.0], np.geomspace(3.0, 300.0, 25))
    e_tau = b_order_fit("tau", ChartId(ChartTag.PAR_FREQ_TAU), ray)
    e_xi = b_order_fit(("xi", 1), ChartId(ChartTag.PAR_FREQ_TAU), ray)
    ray2 = ParabolicRay(0.5, [1.0], np.geomspace(3.0, 300.0, 25))
    e_tau2 = b_order_fit("tau", ChartId(ChartTag.PAR_FREQ_XI, k=1), ray2)
    e_xi2 = b_order_fit(("xi", 1), ChartId(ChartTag.PAR_FREQ_XI, k=1), ray2)
    ok = (abs(e_tau - 2) <= 0.05 and abs(e_xi - 1) <= 0.05
          and abs(e_tau2 - 2) <= 0.05 and abs(e_xi2 - 1) <= 0.05)
    crit(10, ok, f"exponents {e_tau:.3f}/{e_xi:.3f} (tau chart), "
                 f"{e_tau2:.3f}/{e_xi2:.3f} (xi chart)")

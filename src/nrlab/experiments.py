"""The lab's experiments, one function per ``nrlab`` command.

Each returns a ``Result``: its CSV tables and named values (a ``solver``
value, the solver's statistics, goes into ``summary.json``).  Keyword-only
parameters are the command's ``params`` with their defaults; the leading
ones come from the rest of the config: ``rng`` (seeded from ``seed``),
``seed`` and ``metric``.  A keyword-only parameter without a default (the
``delta`` of ``flow``) is filled from the config's tolerances.  The CLI
checks the values against tolerances; the acceptance suite calls the same
functions at its own seeds, sizes and tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flow as fl
from . import norms as nm
from . import pde
from . import quantize as qz
from . import symbols as sym
from .errors import InvalidInput
from .geometry import ChartId, ChartTag, ParabolicRay, PhasePoint, b_order_fit
from .symbols import MetricParams, Side, SignBranch

PL, MI = SignBranch.PLUS, SignBranch.MINUS
# the order-shift values s at which alpha samples the weight flow rate
ALPHA_S = (-1.0, 0.0, 1.0)


@dataclass(frozen=True)
class Result:
    """Tables (CSV file name -> (header, rows)) and named values of one run."""

    tables: dict
    values: dict


def bandlimited_gaussian(grid, K, width=4.0, k0=1.0):
    """Spatially localized field with spectrum hard-truncated to |xi| <= K."""
    x = grid.axis_points(0)
    vals = np.exp(-((x / width) ** 2)) * np.exp(1j * k0 * x)
    ch = np.fft.fftn(vals)
    ch[np.abs(grid.axis_freqs(0)) > K] = 0.0
    return np.fft.ifftn(ch)


def flow(rng, metric: MetricParams = MetricParams.free(1), *, n_per_case=25,
         h_list=(0.0, 0.1, 0.5), budget=50.0, delta) -> Result:
    """Seeded characteristic starts flow from source to sink in both directions.
    Every fourth h = 0 start lies on the parabolic face; one more forward
    trajectory is exported sample by sample and left out of the counts."""
    if n_per_case < 1 or not h_list:
        raise InvalidInput("flow needs n_per_case >= 1 and a non-empty h_list")
    d = metric.d
    cases, labels = [], []
    for branch in (PL, MI):
        for h in h_list:
            for i in range(n_per_case):
                xi = rng.uniform(0.3, 2.0, size=d) * rng.choice([-1, 1], size=d)
                Y = rng.normal(size=d + 1)
                Y *= rng.uniform(0.1, 0.8) / np.linalg.norm(Y)
                if h == 0.0 and i % 4 == 0:
                    start = fl.parabolic_start(Y, branch.sign * float(xi @ xi) / 2.0, xi)
                else:
                    start = fl.char_start(metric, branch, Y, xi, h)
                for direction in ("forward", "backward"):
                    cases.append((start, direction, branch))
                    labels.append((f"{branch.name}:{h}:{i}", branch.name, h, direction))
    cases.append((fl.char_start(metric, PL, np.array([0.3] + [0.2] * d), np.ones(d),
                                h_list[-1]), "forward", PL))
    # at rtol 1e-8 the characteristic set is still preserved two orders
    # below the 1e-6 acceptance tolerance
    trajs = fl.integrate_flows(cases, metric, budget=budget, rtol=1.0e-8, delta=delta)
    sample = trajs[-1]
    rows, correct = [], 0
    for (_, direction, branch), label, traj in zip(cases, labels, trajs):  # not the sample
        # PLUS flows forward into the future radial set, MINUS into the past
        future = (branch is PL) == (direction == "forward")
        correct += traj.termination is (fl.Termination.REACHED_FUTURE if future
                                        else fl.Termination.REACHED_PAST)
        rows.append((*label, traj.termination.value, float(traj.times[-1]),
                     traj.max_p_resid))
    solver = {k: sum(getattr(t, k) for t in trajs) for k in ("rhs_evals", "steps", "rejected")}
    solver["closed_form_rows"] = sum(t.rhs_evals == 0 for t in trajs)
    ncoord = sample.states.shape[1]
    return Result(
        {"trajectories.csv": (["case", "branch", "h", "direction", "termination",
                               "end_time", "max_p_resid"], rows),
         "trajectory_sample.csv": (["param_time", "chart_tag"]
                                   + [f"coord_{i}" for i in range(ncoord)] + ["p_residual"],
                                   list(sample.csv_rows()))},
        {"solver": solver, "correct": correct, "total": len(rows),
         "fraction_correct": correct / len(rows), "max_p_resid": max(r[-1] for r in rows)})


def charset(rng, *, n_samples=2000) -> Result:
    """The rescaled free symbol vanishes on both characteristic sheets."""
    M = MetricParams.free(1)
    worst = 0.0
    rows = []
    for branch in (PL, MI):
        for _ in range(n_samples // 2):
            xi = rng.uniform(-3, 3, size=1)
            h = rng.uniform(0.0, 1.0)
            tau = branch.sign * (math.sqrt(1.0 + float(xi @ xi)) - 1.0)
            p = PhasePoint(rng.uniform(-3, 3), rng.uniform(-3, 3, 1), tau, xi, h)
            v = sym.rescaled_symbol(p, M, branch)
            worst = max(worst, abs(v))
            rows.append((branch.name, "nat_interior", float(tau), float(xi[0]), h, v))
    return Result({"char_samples.csv": (["branch", "chart", "tau_nat", "xi_nat", "h",
                                         "symbol"], rows)},
                  {"max_symbol": worst})


def radial(rng, *, d=1, n_samples=200) -> Result:
    """Free radial points lie on the characteristic set, where the field is radial."""
    M = MetricParams.free(d)
    rows, on_sigma, field_norm = [], [], []
    for _ in range(n_samples):
        branch = rng.choice([PL, MI])
        side = rng.choice([Side.PAST, Side.FUTURE])
        xi = rng.uniform(-2, 2, size=d)
        h = rng.uniform(0.0, 1.0)
        rp = sym.radial_point(xi, h, side, branch)
        pp = PhasePoint(0.0, np.zeros(d), rp.tau_nat, rp.xi_nat, h)
        member = sym.char_membership(pp, M, branch)
        V = fl._natural_field(M, rp.direction, rp.zeta_nat, h, branch.sign)[0]
        on_sigma.append(member is sym.CharClass.SIGMA)
        field_norm.append(float(np.linalg.norm(V - rp.direction * (rp.direction @ V))))
        rows.append((branch.name, side.name, h, float(rp.tau_nat), member.value,
                     field_norm[-1]))
    return Result({"radial.csv": (["branch", "side", "h", "tau_nat", "membership",
                                   "field_norm"], rows)},
                  {"on_sigma": np.array(on_sigma, bool), "field_norm": np.array(field_norm)})


def qdf(rng, metric: MetricParams = MetricParams.free(1), *, n_centers=20, radius=0.05,
        n_samples=60) -> Result:
    """Quadratic-defining-function probes at seeded radial points; ``iota_ref``
    is the free metric's exact attraction rate 2 max|xi_nat|."""
    if n_centers < 1 or n_samples < 3 or not 0.0 < radius < math.inf:
        raise InvalidInput("qdf needs n_centers >= 1, n_samples >= 3 (the fit has two "
                           "coefficients) and a finite radius > 0")
    rows, iota_ref = [], []
    for i in range(n_centers):
        branch = rng.choice([PL, MI])
        side = rng.choice([Side.PAST, Side.FUTURE])
        xi = rng.uniform(0.3, 2.0, size=metric.d) * rng.choice([-1, 1], size=metric.d)
        h = rng.uniform(0.05, 0.5)
        rp = sym.radial_point(xi, h, side, branch)
        q = fl.qdf_probe(rp, radius, n_samples, metric, branch,
                         seed=int(rng.integers(2**31)))
        iota_ref.append(2.0 * float(np.max(np.abs(xi))))
        rows.append((i, branch.name, side.name, h, q.iota_est, q.F_est, q.E_est,
                     q.decomposition_residual, q.cubic_bound))
    iota, F, resid = (np.array([r[k] for r in rows]) for k in (4, 5, 7))
    return Result({"qdf.csv": (["center", "branch", "side", "h", "iota", "F", "E",
                                "residual", "cubic_bound"], rows)},
                  {"flat": metric.is_flat, "iota": iota, "iota_ref": np.array(iota_ref),
                   "F": F, "residual": resid})


def alpha(rng, metric: MetricParams = MetricParams.free(1), *, n_samples=100) -> Result:
    """Weight flow rates at radial points: ``alpha`` and ``signed`` =
    -(+/-) varsigma alpha are (n_samples, 3), one column per ``ALPHA_S``."""
    rows = []
    for i in range(n_samples):
        branch = rng.choice([PL, MI])
        side = rng.choice([Side.PAST, Side.FUTURE])
        xi = rng.uniform(0.1, 2.0, size=metric.d) * rng.choice([-1, 1], size=metric.d)
        h = rng.uniform(0.0, 0.5)
        rp = sym.radial_point(xi, h, side, branch)
        for s in ALPHA_S:
            a = fl.weight_flow_rate(rp, (0.0, s, 0.0, 0.0), metric, branch)
            rows.append((i, branch.name, side.name, h, s, a, -branch.sign * side.sign * a))
    a, signed = (np.array([r[k] for r in rows]).reshape(-1, len(ALPHA_S)) for k in (5, 6))
    return Result({"alpha.csv": (["sample", "branch", "side", "h", "s", "alpha",
                                  "minus_sigma_alpha"], rows)},
                  {"alpha": a, "signed": signed})


def _star_setup(nz):
    zg = qz.BoxGrid.regular(16 * math.pi, nz, 1)
    qg = qz.frequency_grid(zg)
    x = zg.axis_points(0)
    u = qz.GridField(zg, np.exp(-(x**2) / 2.0) * np.exp(1j * 3 * x))
    return zg, qg, u


def star(*, n_grid=256) -> Result:
    """Star product: exact on polynomials, geometric gain per term on smooth symbols."""
    zg, qg, u = _star_setup(n_grid)

    def resid(lhs, a):
        return float(np.max(np.abs(lhs.values - qz.op_apply(a, u).values)) / u.norm())

    xi_s, x_s = (qz.GridSymbol.coordinate(zg, qg, kind, 0) for kind in ("zeta", "z"))
    poly_resid = resid(qz.op_apply(xi_s, qz.op_apply(x_s, u)), qz.star_truncated(xi_s, x_s, 1))
    del xi_s, x_s   # two full symbols (8 MiB at n_grid 512) off the smooth pass's peak
    a = qz.GridSymbol.from_function(
        zg, qg, lambda z, q: np.exp(-((z / 6.0) ** 2) - (q / 3.2) ** 2)
        * (1 + 0.3 * np.sin(z / 5) * np.cos(q / 4)))
    b = qz.GridSymbol.from_function(
        zg, qg, lambda z, q: np.exp(-((z / 6.6) ** 2) - (q / 2.9) ** 2)
        * (1 + 0.2 * np.cos(z / 6.5) * np.sin(q / 4.8)))
    ab = qz.op_apply(a, qz.op_apply(b, u))
    # one N = 3 pass: each partial sum is applied as it arrives, then dropped
    resids = [resid(ab, s) for s in qz.star_partial_sums(a, b, 3)]
    gain = -float(np.polyfit(np.arange(4), np.log10(resids), 1)[0])
    rows = [("poly_xxi", -1, poly_resid)] + [("smooth", N, r) for N, r in enumerate(resids)]
    return Result({"star.csv": (["case", "N", "residual"], rows)},
                  {"poly_resid": poly_resid, "gain": gain})


def quantize(*, n_grid=256) -> Result:
    """Quantized identity, derivative and x-derivative act as exact operators."""
    zg, qg, u = _star_setup(n_grid)
    one = qz.GridSymbol.constant(zg, qg)
    e_id = float(np.max(np.abs(qz.op_apply(one, u).values - u.values)))
    xi_s = qz.GridSymbol.coordinate(zg, qg, "zeta", 0)
    k = zg.axis_freqs(0)
    du = np.fft.ifftn(np.fft.fftn(u.values) * k)
    e_d = float(np.max(np.abs(qz.op_apply(xi_s, u).values - du)))
    xxi = qz.GridSymbol.from_poly(zg, qg, {((1,), (1,)): 1.0})
    x = zg.axis_points(0)
    e_xd = float(np.max(np.abs(qz.op_apply(xxi, u).values - x * du)))
    rows = [("identity", e_id), ("derivative", e_d), ("x_deriv", e_xd)]
    return Result({"quantize.csv": (["case", "max_error"], rows)},
                  {"max_error": max(e_id, e_d, e_xd)})


def pde_compare(*, c_list=(8.0, 16.0, 32.0), T=1.0, band_limit=2.0, box=40 * math.pi,
                n_grid=256) -> Result:
    """Klein-Gordon envelopes against Schrodinger over a c-ladder; ``ratios``
    are the successive error ratios (4 at second order for a doubling ladder)."""
    if len(c_list) < 2:
        raise InvalidInput("pde-compare needs at least two c values to form a ratio")
    g = qz.BoxGrid.regular(box, n_grid, 1)
    psi = bandlimited_gaussian(g, band_limit)
    times = np.linspace(0.0, T, 9)
    errs, steps = {}, 0
    for c in c_list:
        kgs = pde.kg_free_solve(pde.kg_branch_data(g, psi, c, MI), times)
        ss = pde.schrodinger_solve(pde.SchrState(g, psi, 0.0), MI, times, dt=0.02)
        errs[c] = pde.conjugate_compare(kgs, ss, MI, c).sup_error
        steps += ss[-1].steps
    ratios = [errs[c_list[i]] / errs[c_list[i + 1]] for i in range(len(c_list) - 1)]
    return Result({"compare.csv": (["c", "sup_error"], [(c, errs[c]) for c in c_list])},
                  {"errors": errs, "ratios": ratios,
                   "solver": {"schrodinger_steps": steps}})


def mass(*, C_claim=0.2, im_v=0.05, box=160.0, n_grid=512, dt=0.02) -> Result:
    """Mass of a Schrodinger run with an absorbing potential against its Gronwall bound."""
    g = qz.BoxGrid.regular(box, n_grid, 1)
    x = g.axis_points(0)
    psi = np.exp(-(x**2) / 8.0)
    coeffs = pde.SchrCoefficients(1, W=lambda t, xx: 1j * im_v / (1.0 + t * t + xx * xx))
    times = np.linspace(-20.0, 20.0, 161)
    run = pde.schrodinger_solve(pde.SchrState(g, psi, -20.0), MI, times, coeffs, dt=dt)
    tr = pde.mass_bound_check(run, C_claim)
    return Result({"mass.csv": (["t", "M", "dM", "bound_rhs"],
                                list(zip(tr.times, tr.M, tr.dM_numeric, tr.bound_rhs)))},
                  {"bound_ok": tr.ok, "first_violation": tr.first_violation,
                   "solver": {"schrodinger_steps": run[-1].steps}})


def scatter(*, box=280.0, n_grid=2048, T_list=(4.0, 8.0, 16.0)) -> Result:
    """Scattering profiles: the mass identity and the Cauchy decay in T of
    the profile differences between -2T and -T."""
    Xg = qz.BoxGrid.regular(8.0, 256, 1)
    ts = np.asarray(T_list, dtype=float)
    reach = 2.0 * np.max(ts, initial=0.0) * np.max(np.abs(Xg.axis_points(0)))
    if len(set(T_list)) < 2 or not (np.all(ts >= 1.0) and reach <= box / 2.0):
        raise InvalidInput("scatter needs two distinct T >= 1 with 2 max(T) |X| inside the box "
                           "(the profile's range) to fit a decay exponent in T")
    g = qz.BoxGrid.regular(box, n_grid, 1)
    x = g.axis_points(0)
    psi = np.exp(-(x**2) / 8.0)
    times = sorted({-t for t in T_list} | {-2.0 * t for t in T_list}, reverse=True)
    run = pde.schrodinger_solve(pde.SchrState(g, psi, 0.0), MI, times, dt=0.05)
    profs, rows, id_err = {}, [], 0.0
    for st in run:
        pr = pde.scattering_profile(st, Xg)
        profs[st.t] = pr
        lhs, rhs = pde.scattering_mass_identity(st, pr)
        id_err = max(id_err, abs(lhs - rhs) / lhs)
        rows.append((st.t, lhs, rhs))
    diffs = []
    for T in T_list:
        dv = profs[-2.0 * T].values - profs[-1.0 * T].values
        diffs.append(float(np.sqrt(np.sum(np.abs(dv) ** 2) * Xg.dvol)))
        rows.append((-T, float("nan"), diffs[-1]))
    slope = float(np.polyfit(np.log(T_list), np.log(diffs), 1)[0])
    return Result({"scatter.csv": (["t", "mass_or_nan", "value"], rows)},
                  {"identity_error": id_err, "decay_exponent": slope,
                   "solver": {"schrodinger_steps": run[-1].steps}})


def norms() -> Result:
    """Semiclassical and natural norms of a bump, and its energy split."""
    g = qz.BoxGrid((8 * math.pi, 8 * math.pi), (256, 64))
    mesh = g.mesh()
    u = qz.GridField(g, np.exp(-((mesh[0] / 3.0) ** 2) - (mesh[1] / 1.5) ** 2))
    h = 0.25
    pair = nm.split_energy(u, h)
    part = (pair.u_minus.norm() + pair.u_plus.norm()) / u.norm()
    rec_err = float(np.max(np.abs(pair.reconstruct().values - u.values)))
    rows = [("l2", nm.sc_norm(u, 0.0)), ("sc_m1", nm.sc_norm(u, 1.0)),
            ("natural", nm.natural_norm(u, 1.0, None, 1.0, h)),
            ("partition_ratio", part), ("reconstruct_err", rec_err)]
    return Result({"norms.csv": (["case", "value"], rows)},
                  {"partition": part, "reconstruct_error": rec_err})


def uniform_ratio(seed=0, metric: MetricParams | None = None, *, m=1.0, ell=1.0,
                  s_past=-0.4, s_future=-0.6, c_list=(4.0, 8.0, 16.0, 32.0),
                  n_base=4) -> Result:
    """The uniform-ratio proxy (``norms.uniform_ratio_experiment``) over a c-ladder."""
    orders = nm.OrderProfile(m=m, ell=ell, q_minus=0.0, q_plus=0.0,
                             s_past=s_past, s_future=s_future)
    tab = nm.uniform_ratio_experiment(c_list, orders, metric=metric, n_base=n_base,
                                      seed=seed)
    return Result({"ratios.csv": (["c", "family_id", "num", "den", "ratio"], tab.rows)},
                  {"per_c_max": tab.per_c_max, "spread": tab.spread,
                   "max_drift": max(tab.member_drift.values())})


def degeneracy() -> Result:
    """The unresolved natural field vanishes on the bad sheet; ``eigenvalues``
    holds the linearization at each blown-up radial set, by (branch, side)."""
    rows, fields, eig_mins, eigs = [], [], [], {}
    for branch in (PL, MI):
        p = PhasePoint(0.0, [0.0], -branch.sign * 2.0, [0.0], 0.0)
        fields.append(fl.natural_degeneracy(p))
        rows.append((branch.name, "nat_field_norm", fields[-1]))
    for branch in (PL, MI):
        for side in (Side.PAST, Side.FUTURE):
            rp = sym.radial_point([0.0], 0.0, side, branch)
            ev = eigs[branch, side] = fl.radial_linearization(rp, MetricParams.free(1),
                                                              branch)
            eig_mins.append(float(np.min(np.abs(np.real(ev)))))
            rows.append((f"{branch.name}:{side.name}", "min_eig", eig_mins[-1]))
    return Result({"degeneracy.csv": (["case", "kind", "value"], rows)},
                  {"field_norm": max(fields), "eig_min": min(eig_mins), "eigenvalues": eigs})


def b_order() -> Result:
    """Decay exponents of d_tau and d_xi along parabolic rays: ``exponents``
    are (tau, xi1) in the tau frequency chart, then in the xi1 chart."""
    tau_chart = ChartId(ChartTag.PAR_FREQ_TAU)
    xi_chart = ChartId(ChartTag.PAR_FREQ_XI, k=1)
    ray = ParabolicRay(1.0, [0.0], np.geomspace(3.0, 300.0, 25))
    ray2 = ParabolicRay(0.5, [1.0], np.geomspace(3.0, 300.0, 25))
    exps = (b_order_fit("tau", tau_chart, ray), b_order_fit(("xi", 1), tau_chart, ray),
            b_order_fit("tau", xi_chart, ray2), b_order_fit(("xi", 1), xi_chart, ray2))
    rows = [("tau", "par_freq_tau", exps[0]), ("xi1", "par_freq_tau", exps[1]),
            ("tau", "par_freq_xi1", exps[2]), ("xi1", "par_freq_xi1", exps[3])]
    return Result({"border.csv": (["direction", "chart", "exponent"], rows)},
                  {"exponents": exps})

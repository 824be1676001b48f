"""The lab's experiments, one function per ``nrlab`` command.

Each returns a ``Result``: its CSV tables and named values (a ``solver``
value, the solver's statistics, goes into ``summary.json``).  Keyword-only
parameters are the command's ``params`` with their defaults; the leading
ones come from the rest of the config: ``rng`` (seeded from ``seed``),
``seed`` and ``metric``.  A keyword-only parameter without a default (the
``delta`` of ``flow``) is filled from the config's tolerances.  The CLI
checks the values against tolerances; the acceptance suite calls the same
functions at its own seeds, sizes and tolerances.  Seeded samples are drawn
in the order of a sample-by-sample loop; ``charset``, ``radial``, ``qdf``
and ``alpha`` then pass both branches' samples to the point layer as one batch.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

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


def _resolved(grid, values):
    """values, a command's data sampled on its grid, when the grid resolves
    them (GridField.band_limited); InvalidInput otherwise."""
    if not qz.GridField(grid, values).band_limited():
        raise InvalidInput(f"n_grid {grid.ns[0]} does not resolve the data: it needs two points "
                           "or more and under 1e-10 of the energy in its top third of frequencies")
    return values


def bandlimited_gaussian(grid, K):
    """The Gaussian e^{-(x/4)^2 + ix}, its spectrum hard-truncated to |xi| <= K."""
    x = grid.axis_points(0)
    vals = np.exp(-((x / 4.0) ** 2)) * np.exp(1j * x)
    ch = qz.transform(vals)
    ch[np.abs(grid.axis_freqs(0)) > K] = 0.0
    return qz.transform(ch, inverse=True)


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
    if n_samples < 2 or n_samples % 2:
        raise InvalidInput("charset needs an even n_samples >= 2, half per branch")
    # per sample xi_nat, h, t, x, PLUS then MINUS: one draw reproduces the sample-by-sample stream
    xi, h, t, x = np.split(rng.uniform([-3, 0, -3, -3], [3, 1, 3, 3], size=(n_samples, 4)), 4, 1)
    branch = np.repeat([PL.sign, MI.sign], n_samples // 2)
    tau = sym._sheet_tau(xi, branch)
    v = sym.rescaled_symbol(PhasePoint(t[:, 0], x, tau, xi, h[:, 0]), MetricParams.free(1),
                            branch)
    rows = [(SignBranch(b).name, "nat_interior", *r) for b, *r in zip(
        branch.tolist(), tau.tolist(), xi[:, 0].tolist(), h[:, 0].tolist(), v.tolist())]
    return Result({"char_samples.csv": (["branch", "chart", "tau_nat", "xi_nat", "h",
                                         "symbol"], rows)},
                  {"max_symbol": max(abs(r[-1]) for r in rows)})


def _radial_draws(rng, n, rest):
    """n seeded draws of (branch sign, side sign, *rest()) as arrays, one sample
    at a time: the integer and float draws interleave, so no one call gives them."""
    draws = [(rng.choice([PL.sign, MI.sign]), rng.choice([Side.PAST.sign, Side.FUTURE.sign]),
              *rest()) for _ in range(n)]
    return (np.array(column) for column in zip(*draws))


def radial(rng, *, d=1, n_samples=200) -> Result:
    """Free radial points lie on the characteristic set, where the field is radial."""
    if n_samples < 1:
        raise InvalidInput("radial needs n_samples >= 1")
    M = MetricParams.free(d)
    branch, side, xi, h = _radial_draws(
        rng, n_samples, lambda: (rng.uniform(-2, 2, size=d), rng.uniform(0.0, 1.0)))
    rp = sym.radial_point(xi, h, side, branch)
    member = sym.char_membership(PhasePoint(0.0, np.zeros(d), rp.tau_nat, xi, h), M, branch)
    om = rp.direction
    V = sym._natural_field(M, om, rp.zeta_nat, h, branch)[0]
    field_norm = np.linalg.norm(V - om * np.sum(om * V, axis=-1, keepdims=True), axis=-1)
    rows = [(SignBranch(b).name, Side(s).name, *r, m.value, f) for b, s, r, m, f in zip(
        branch, side, zip(h.tolist(), rp.tau_nat.tolist()), member, field_norm.tolist())]
    return Result({"radial.csv": (["branch", "side", "h", "tau_nat", "membership",
                                   "field_norm"], rows)},
                  {"on_sigma": member == sym.CharClass.SIGMA, "field_norm": field_norm})


def qdf(rng, metric: MetricParams = MetricParams.free(1), *, n_centers=20, radius=0.05,
        n_samples=60) -> Result:
    """Quadratic-defining-function probes at seeded radial points; ``iota_ref``
    is the free metric's exact attraction rate 2 max|xi_nat|."""
    if n_centers < 1 or n_samples < 3 or not 0.0 < radius <= 1.0:
        raise InvalidInput("qdf needs n_centers >= 1, n_samples >= 3 (the fit has two "
                           "coefficients) and 0 < radius <= 1 (the probe is local)")
    d = metric.d
    branch, side, xi, h, seed = _radial_draws(rng, n_centers, lambda: (
        rng.uniform(0.3, 2.0, size=d) * rng.choice([-1, 1], size=d), rng.uniform(0.05, 0.5),
        rng.integers(2**31)))
    _, iota, F, E, resid, cubic = astuple(fl.qdf_probe(
        sym.radial_point(xi, h, side, branch), radius, n_samples, metric, branch, seed=seed))
    rows = [(i, SignBranch(b).name, Side(s).name, *r) for i, (b, s, r) in enumerate(zip(
        branch, side, zip(*(a.tolist() for a in (h, iota, F, E, resid, cubic)))))]
    return Result({"qdf.csv": (["center", "branch", "side", "h", "iota", "F", "E",
                                "residual", "cubic_bound"], rows)},
                  {"flat": metric.is_flat, "iota": iota, "iota_ref": 2.0 * np.abs(xi).max(axis=1),
                   "F": F, "residual": resid})


def alpha(rng, metric: MetricParams = MetricParams.free(1), *, n_samples=100) -> Result:
    """Weight flow rates at radial points: ``alpha`` and ``signed`` =
    -(+/-) varsigma alpha are (n_samples, 3), one column per ``ALPHA_S``."""
    if n_samples < 1:
        raise InvalidInput("alpha needs n_samples >= 1")
    d = metric.d
    branch, side, xi, h = _radial_draws(rng, n_samples, lambda: (
        rng.uniform(0.1, 2.0, size=d) * rng.choice([-1, 1], size=d), rng.uniform(0.0, 0.5)))
    rp = sym.radial_point(xi, h, side, branch)
    rate = fl.weight_flow_rate(rp, (0.0, 1.0, 0.0, 0.0), metric, branch)  # linear in s
    a = np.multiply.outer(rate, ALPHA_S)
    signed = (-branch * side)[:, None] * a
    rows = [(i, SignBranch(b).name, Side(s).name, h_i, *r)
            for i, (b, s, h_i) in enumerate(zip(branch, side, h.tolist()))
            for r in zip(ALPHA_S, a[i].tolist(), signed[i].tolist())]
    return Result({"alpha.csv": (["sample", "branch", "side", "h", "s", "alpha",
                                  "minus_sigma_alpha"], rows)},
                  {"alpha": a, "signed": signed})


def _star_setup(nz):
    zg = qz.BoxGrid.regular(16 * math.pi, nz, 1)
    qg = qz.frequency_grid(zg)
    x = zg.axis_points(0)
    return zg, qg, qz.GridField(zg, _resolved(zg, np.exp(-(x**2) / 2.0) * np.exp(1j * 3 * x)))


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
    du = qz.transform(qz.transform(u.values.copy()) * k, inverse=True)
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
    if len(set(c_list)) < max(2, len(c_list)) or not all(0.0 < c < math.inf for c in c_list):
        raise InvalidInput("pde-compare needs at least two distinct finite c > 0 to form a ratio")
    if not (math.isfinite(T) and T != 0.0 and band_limit > 0.0):
        raise InvalidInput(f"pde-compare needs a finite T != 0 and band_limit > 0, "
                           f"not {T} and {band_limit}")
    g = qz.BoxGrid.regular(box, n_grid, 1)
    psi = _resolved(g, bandlimited_gaussian(g, band_limit))
    times = np.linspace(0.0, T, 9)
    errs, steps = {}, 0
    for c in c_list:
        kgs = pde.kg_envelope_solve(psi, MI, MetricParams.free(1), c, times, g)
        ss = pde.schrodinger_solve(pde.SchrState(g, psi, 0.0), MI, times, dt=0.02)
        errs[c] = pde.conjugate_compare(kgs, ss)
        steps += ss[-1].steps
    if not all(e > 0.0 for e in errs.values()):     # band_limit or T too small to tell apart
        raise InvalidInput(f"pde-compare has nothing to compare: errors {list(errs.values())}")
    ratios = [errs[c_list[i]] / errs[c_list[i + 1]] for i in range(len(c_list) - 1)]
    return Result({"compare.csv": (["c", "sup_error"], [(c, errs[c]) for c in c_list])},
                  {"errors": errs, "ratios": ratios,
                   "solver": {"schrodinger_steps": steps}})


def mass(*, C_claim=0.2, im_v=0.05, box=160.0, n_grid=512, dt=0.02) -> Result:
    """Mass of a Schrodinger run with an absorbing potential against its Gronwall bound."""
    g = qz.BoxGrid.regular(box, n_grid, 1)
    psi = _resolved(g, np.exp(-(g.axis_points(0) ** 2) / 8.0))
    times = np.linspace(-20.0, 20.0, 161)
    if not (0.0 < dt <= times[1] - times[0] and math.isfinite(im_v)):
        raise InvalidInput(f"mass needs 0 < dt <= {times[1] - times[0]}, the output spacing, "
                           f"and a finite im_v, not {dt} and {im_v}")
    run = pde.schrodinger_solve(pde.SchrState(g, psi, -20.0), MI, times, lambda t, m, s: {
        (): 1j * im_v / (1.0 + t * t + m[0] * m[0])}, dt=dt)      # V = i im_v <z>^-2
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
    psi = _resolved(g, np.exp(-(x**2) / 8.0))
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
    if len(set(c_list)) < 2:
        raise InvalidInput("uniform-ratio needs two distinct c values to form a spread")
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
    # on the bad sheets, at tau_nat = -(+/-) 2: PLUS, then MINUS
    fields = fl.natural_degeneracy(PhasePoint(0.0, [0.0], [-2.0, 2.0], [0.0], 0.0)).tolist()
    rows = [(b.name, "nat_field_norm", f) for b, f in zip((PL, MI), fields)]
    eig_mins, eigs = [], {}
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

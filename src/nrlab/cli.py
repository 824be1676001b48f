"""Batch front-end: JSON-config experiment runner with CSV/JSON artifacts.

Usage:  nrlab <command> --config cfg.json [--out DIR] [--seed N]

Every experiment is driven by a schema-validated JSON config (unknown keys
rejected), writes CSV tables plus a summary.json into the output directory,
prints one PASS/FAIL line against the config's tolerance block, and exits
0 on pass, 1 on assertion failure (artifacts still written), 2 on an
invalid config.  All randomness flows from a single 64-bit seed, so a fixed
config gives byte-identical CSV output apart from the timestamp header.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from . import flow as flowmod
from . import geometry, norms, pde, quantize
from . import symbols as sym
from .errors import ConfigInvalid, NrlabError

COMMANDS = [
    "flow", "charset", "radial", "qdf", "alpha", "star", "quantize",
    "pde-compare", "mass", "scatter", "norms", "uniform-ratio",
    "degeneracy", "b-order",
]

_PROFILE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "amplitude": {"type": "number"},
        "order": {"type": "integer", "maximum": -1},
        "constant": {"type": "number"},
        "waves": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "kappa": {"type": "array", "items": {"type": "number"}},
                    "cos": {"type": "number"},
                    "sin": {"type": "number"},
                },
                "required": ["kappa"],
            },
        },
    },
}

_COEFF_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "re": _PROFILE_SCHEMA,
        "im": _PROFILE_SCHEMA,
        "im_c_decay": {"type": "boolean"},
    },
}

_METRIC_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "d": {"type": "integer", "minimum": 1, "maximum": 3},
        "alpha": _PROFILE_SCHEMA,
        "w": {"type": "array", "items": _PROFILE_SCHEMA},
        "hjk": {"type": "array", "items": {"type": "array", "items": _PROFILE_SCHEMA}},
        "beta": _COEFF_SCHEMA,
        "B": {"type": "array", "items": _COEFF_SCHEMA},
        "W": _COEFF_SCHEMA,
    },
    "required": ["d"],
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": 1},
        "command": {"enum": COMMANDS},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "metric": _METRIC_SCHEMA,
        "grids": {"type": "object"},
        "tolerances": {"type": "object"},
        "params": {"type": "object"},
    },
    "required": ["schema_version", "command"],
}


def _profile_from_json(p) -> sym.ClassicalSymbolProfile:
    if p is None:
        return sym.ClassicalSymbolProfile.zero()
    waves = tuple(
        (tuple(wv["kappa"]), wv.get("cos", 0.0), wv.get("sin", 0.0))
        for wv in p.get("waves", [])
    )
    return sym.ClassicalSymbolProfile(
        amplitude=p.get("amplitude", 0.0),
        order=p.get("order", -1),
        constant=p.get("constant", 1.0),
        waves=waves,
    )


def _coeff_from_json(cjson) -> sym.OperatorCoefficient:
    if cjson is None:
        return sym.OperatorCoefficient.zero()
    return sym.OperatorCoefficient(
        real=_profile_from_json(cjson.get("re")),
        imag=_profile_from_json(cjson.get("im")),
        imag_c_decay=cjson.get("im_c_decay", False),
    )


def metric_from_json(mjson) -> sym.MetricParams:
    """Build MetricParams from the documented JSON schema."""
    if mjson is None:
        return sym.MetricParams.free(1)
    d = mjson["d"]
    w = mjson.get("w")
    hjk = mjson.get("hjk")
    B = mjson.get("B")
    return sym.MetricParams(
        d=d,
        alpha=_profile_from_json(mjson.get("alpha")),
        w=tuple(_profile_from_json(p) for p in w) if w else (),
        hjk=tuple(tuple(_profile_from_json(p) for p in row) for row in hjk)
        if hjk
        else (),
        beta=_coeff_from_json(mjson.get("beta")),
        B=tuple(_coeff_from_json(cj) for cj in B) if B else (),
        W=_coeff_from_json(mjson.get("W")),
    )


def _profile_to_json(p: sym.ClassicalSymbolProfile) -> dict:
    return {
        "amplitude": p.amplitude,
        "order": p.order,
        "constant": p.constant,
        "waves": [{"kappa": list(k), "cos": c, "sin": s} for k, c, s in p.waves],
    }


def _coeff_to_json(c: sym.OperatorCoefficient) -> dict:
    return {"re": _profile_to_json(c.real), "im": _profile_to_json(c.imag),
            "im_c_decay": c.imag_c_decay}


def metric_to_json(M: sym.MetricParams) -> dict:
    """Serialize MetricParams to the documented JSON schema."""
    return {
        "d": M.d,
        "alpha": _profile_to_json(M.alpha),
        "w": [_profile_to_json(p) for p in M.w],
        "hjk": [[_profile_to_json(p) for p in row] for row in M.hjk],
        "beta": _coeff_to_json(M.beta),
        "B": [_coeff_to_json(c) for c in M.B],
        "W": _coeff_to_json(M.W),
    }


def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
    if jsonschema is not None:
        try:
            jsonschema.validate(cfg, CONFIG_SCHEMA)
        except jsonschema.ValidationError as exc:
            raise ConfigInvalid(f"config schema violation: {exc.message}") from exc
    elif cfg.get("schema_version") != 1 or cfg.get("command") not in COMMANDS:
        raise ConfigInvalid("bad schema_version or command")
    return cfg


class Reporter:
    """Collects CSV rows and assertion results for one experiment."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.checks = []
        self.summary = {}

    def check(self, name: str, ok: bool, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def write_csv(self, name: str, header, rows):
        path = self.outdir / name
        with open(path, "w", newline="") as fh:
            fh.write(f"# generated {datetime.datetime.now().isoformat()}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                cells = []
                for v in row:
                    if isinstance(v, float):
                        cells.append(f"{v:.12e}")
                    else:
                        cells.append(str(v))
                fh.write(",".join(cells) + "\n")
        return path

    def finish(self, command: str) -> int:
        self.summary["checks"] = [
            {"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks
        ]
        self.summary["pass"] = self.passed
        (self.outdir / "summary.json").write_text(json.dumps(self.summary, indent=1))
        status = "PASS" if self.passed else "FAIL"
        failing = [n for n, ok, _ in self.checks if not ok]
        tail = "" if self.passed else f"  failing: {', '.join(failing)}"
        print(f"{status} {command}: {len(self.checks)} checks{tail}")
        return 0 if self.passed else 1


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------


def _run_flow(cfg, rep: Reporter, rng):
    par = cfg.get("params", {})
    tol = cfg.get("tolerances", {})
    M = metric_from_json(cfg.get("metric"))
    n = par.get("n_per_case", 25)
    hs = par.get("h_list", [0.0, 0.1, 0.5])
    budget = par.get("budget", 50.0)
    delta = tol.get("delta", 1.0e-3)
    rows = []
    total = correct = 0
    for branch in (sym.SignBranch.PLUS, sym.SignBranch.MINUS):
        for h in hs:
            for i in range(n):
                xi = rng.uniform(0.3, 2.0, size=M.d) * rng.choice([-1, 1], size=M.d)
                Y = rng.normal(size=M.d + 1)
                Y *= rng.uniform(0.1, 0.8) / np.linalg.norm(Y)
                start = flowmod.char_start(M, branch, Y, xi, h)
                for direction in ("forward", "backward"):
                    traj = flowmod.integrate_flow(
                        start, direction, M, branch, budget=budget, delta=delta
                    )
                    want = _expected_terminus(branch, direction)
                    ok = traj.termination is want
                    total += 1
                    correct += ok
                    rows.append((f"{branch.name}:{h}:{i}", branch.name, h,
                                 direction, traj.termination.value,
                                 float(traj.times[-1]), traj.max_p_resid))
    rep.write_csv("trajectories.csv",
                  ["case", "branch", "h", "direction", "termination",
                   "end_time", "max_p_resid"], rows)
    # one full trajectory in the per-sample export format
    sample_start = flowmod.char_start(M, sym.SignBranch.PLUS,
                                      np.array([0.3] + [0.2] * M.d),
                                      np.ones(M.d), hs[-1])
    sample = flowmod.integrate_flow(sample_start, "forward", M,
                                    sym.SignBranch.PLUS, budget=budget)
    ncoord = len(sample.samples[0].Y) + len(sample.samples[0].zeta)
    rep.write_csv("trajectory_sample.csv",
                  ["param_time", "chart_tag"]
                  + [f"coord_{i}" for i in range(ncoord)] + ["p_residual"],
                  list(sample.csv_rows()))
    frac = correct / total
    rep.summary["fraction_correct"] = frac
    rep.check("source_to_sink", frac >= tol.get("required_fraction", 1.0),
              f"{correct}/{total}")
    resid = max(r[-1] for r in rows)
    rep.check("char_set_preserved", resid <= tol.get("p_resid", 1.0e-6),
              f"max resid {resid:.2e}")


def _expected_terminus(branch, direction):
    fwd = flowmod.Termination.REACHED_FUTURE
    bwd = flowmod.Termination.REACHED_PAST
    if branch is sym.SignBranch.MINUS:
        fwd, bwd = bwd, fwd
    return fwd if direction == "forward" else bwd


def _run_charset(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {}).get("symbol", 1.0e-10)
    n = cfg.get("params", {}).get("n_samples", 2000)
    M = sym.MetricParams.free(1)
    worst = 0.0
    rows = []
    for branch in (sym.SignBranch.PLUS, sym.SignBranch.MINUS):
        for _ in range(n // 2):
            xi = rng.uniform(-3, 3, size=1)
            h = rng.uniform(0.0, 1.0)
            tau = branch.sign * (math.sqrt(1.0 + float(xi @ xi)) - 1.0)
            p = geometry.PhasePoint(rng.uniform(-3, 3), rng.uniform(-3, 3, 1),
                                    tau, xi, h)
            v = sym.rescaled_symbol(p, M, branch)
            worst = max(worst, abs(v))
            rows.append((branch.name, "nat_interior", float(tau), float(xi[0]), h, v))
    rep.write_csv("char_samples.csv",
                  ["branch", "chart", "tau_nat", "xi_nat", "h", "symbol"], rows)
    rep.check("sheet_residual", worst <= tol, f"max |p| = {worst:.2e}")


def _run_radial(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {})
    n = cfg.get("params", {}).get("n_samples", 200)
    M = metric_from_json(cfg.get("metric"))
    rows = []
    ok_all = True
    for _ in range(n):
        branch = rng.choice([sym.SignBranch.PLUS, sym.SignBranch.MINUS])
        side = rng.choice([sym.Side.PAST, sym.Side.FUTURE])
        xi = rng.uniform(-2, 2, size=M.d)
        h = rng.uniform(0.0, 1.0)
        rp = sym.radial_point(xi, h, side, branch)
        pp = geometry.PhasePoint(0.0, np.zeros(M.d), rp.tau_nat, rp.xi_nat, h)
        member = sym.char_membership(pp, sym.MetricParams.free(M.d), branch)
        V = flowmod._v_natural(sym.MetricParams.free(M.d), rp.direction,
                               rp.zeta_nat, h, branch)
        fieldnorm = float(np.linalg.norm(V - rp.direction * (rp.direction @ V)))
        good = member is sym.CharClass.SIGMA and fieldnorm <= tol.get("field", 1e-10)
        ok_all = ok_all and good
        rows.append((branch.name, side.name, h, float(rp.tau_nat), member.value,
                     fieldnorm))
    rep.write_csv("radial.csv",
                  ["branch", "side", "h", "tau_nat", "membership", "field_norm"],
                  rows)
    rep.check("radial_points_on_sigma_fixed", ok_all)


def _run_qdf(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {})
    par = cfg.get("params", {})
    M = metric_from_json(cfg.get("metric"))
    n_centers = par.get("n_centers", 20)
    radius = par.get("radius", 0.05)
    rows = []
    ok = True
    for i in range(n_centers):
        branch = rng.choice([sym.SignBranch.PLUS, sym.SignBranch.MINUS])
        side = rng.choice([sym.Side.PAST, sym.Side.FUTURE])
        xi = rng.uniform(0.3, 2.0, size=M.d) * rng.choice([-1, 1], size=M.d)
        h = rng.uniform(0.05, 0.5)
        rp = sym.radial_point(xi, h, side, branch)
        q = flowmod.qdf_probe(rp, radius, par.get("n_samples", 60), M, branch,
                              seed=int(rng.integers(2**31)))
        iota_ref = 2.0 * float(np.max(np.abs(xi)))
        good = (q.iota_est >= tol.get("iota_min", 0.5)
                and q.F_est >= -tol.get("f_floor", 1.0e-12))
        if M.is_flat:
            good = good and abs(q.iota_est - iota_ref) <= tol.get("iota_exact", 1e-10)
        ok = ok and good
        rows.append((i, branch.name, side.name, h, q.iota_est, q.F_est, q.E_est,
                     q.decomposition_residual, q.cubic_bound))
    rep.write_csv("qdf.csv",
                  ["center", "branch", "side", "h", "iota", "F", "E",
                   "residual", "cubic_bound"], rows)
    rep.check("qdf_structure", ok)


def _run_alpha(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {})
    n = cfg.get("params", {}).get("n_samples", 100)
    M = metric_from_json(cfg.get("metric"))
    rows = []
    ok = True
    for i in range(n):
        branch = rng.choice([sym.SignBranch.PLUS, sym.SignBranch.MINUS])
        side = rng.choice([sym.Side.PAST, sym.Side.FUTURE])
        xi = rng.uniform(0.1, 2.0, size=M.d) * rng.choice([-1, 1], size=M.d)
        h = rng.uniform(0.0, 0.5)
        rp = sym.radial_point(xi, h, side, branch)
        for s in (-1.0, 0.0, 1.0):
            a = flowmod.weight_flow_rate(rp, (0.0, s, 0.0, 0.0), M, branch)
            signed = -branch.sign * side.sign * a
            if s == 0.0:
                good = abs(a) <= tol.get("zero", 1.0e-8)
            else:
                good = signed * s > 0 and abs(a) >= tol.get("min_mag", 1.0e-3)
            ok = ok and good
            rows.append((i, branch.name, side.name, h, s, a, signed))
    rep.write_csv("alpha.csv",
                  ["sample", "branch", "side", "h", "s", "alpha", "minus_sigma_alpha"],
                  rows)
    rep.check("threshold_sign", ok)


def _star_setup(nz=256):
    zg = quantize.BoxGrid.regular(16 * math.pi, nz, 1)
    qg = quantize.frequency_grid(zg)
    x = zg.axis_points(0)
    u = quantize.GridField(zg, np.exp(-(x**2) / 2.0) * np.exp(1j * 3 * x))
    return zg, qg, u


def _run_star(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {})
    zg, qg, u = _star_setup(cfg.get("params", {}).get("n_grid", 256))
    xi_s = quantize.GridSymbol.coordinate(zg, qg, "zeta", 0)
    x_s = quantize.GridSymbol.coordinate(zg, qg, "z", 0)
    st = quantize.star_truncated(xi_s, x_s, 1)
    lhs = quantize.op_apply(xi_s, quantize.op_apply(x_s, u))
    rhs = quantize.op_apply(st, u)
    poly_resid = float(np.max(np.abs(lhs.values - rhs.values)) / u.norm())
    rows = [("poly_xxi", -1, poly_resid)]

    def mk(f):
        return quantize.GridSymbol.from_function(zg, qg, f)

    a = mk(lambda z, q: np.exp(-((z / 6.0) ** 2) - (q / 3.2) ** 2)
           * (1 + 0.3 * np.sin(z / 5) * np.cos(q / 4)))
    b = mk(lambda z, q: np.exp(-((z / 6.6) ** 2) - (q / 2.9) ** 2)
           * (1 + 0.2 * np.cos(z / 6.5) * np.sin(q / 4.8)))
    ab = quantize.op_apply(a, quantize.op_apply(b, u))
    resids = []
    for N in range(4):
        r = quantize.op_apply(quantize.star_truncated(a, b, N), u)
        resids.append(float(np.max(np.abs(ab.values - r.values)) / u.norm()))
        rows.append(("smooth", N, resids[-1]))
    gain = -float(np.polyfit(np.arange(4), np.log10(resids), 1)[0])
    rep.write_csv("star.csv", ["case", "N", "residual"], rows)
    rep.summary["per_term_gain"] = gain
    rep.check("poly_exact", poly_resid <= tol.get("poly", 1.0e-10),
              f"{poly_resid:.2e}")
    rep.check("per_term_gain", gain >= tol.get("gain", 0.8), f"{gain:.2f}")


def _run_quantize(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {}).get("action", 1.0e-10)
    zg, qg, u = _star_setup(cfg.get("params", {}).get("n_grid", 256))
    one = quantize.GridSymbol.constant(zg, qg)
    e_id = float(np.max(np.abs(quantize.op_apply(one, u).values - u.values)))
    xi_s = quantize.GridSymbol.coordinate(zg, qg, "zeta", 0)
    k = zg.axis_freqs(0)
    du = np.fft.ifftn(np.fft.fftn(u.values) * k)
    e_d = float(np.max(np.abs(quantize.op_apply(xi_s, u).values - du)))
    xxi = quantize.GridSymbol.from_poly(zg, qg, {((1,), (1,)): 1.0})
    x = zg.axis_points(0)
    e_xd = float(np.max(np.abs(quantize.op_apply(xxi, u).values - x * du)))
    rows = [("identity", e_id), ("derivative", e_d), ("x_deriv", e_xd)]
    rep.write_csv("quantize.csv", ["case", "max_error"], rows)
    rep.check("quantize_actions", max(e_id, e_d, e_xd) <= tol,
              f"max {max(e_id, e_d, e_xd):.2e}")


def _bandlimited_local(grid, K, width=4.0, k0=1.0):
    xx = grid.axis_points(0)
    vals = np.exp(-((xx / width) ** 2)) * np.exp(1j * k0 * xx)
    ch = np.fft.fftn(vals)
    ch[np.abs(grid.axis_freqs(0)) > K] = 0.0
    return np.fft.ifftn(ch)


def _run_pde_compare(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {})
    par = cfg.get("params", {})
    cs = par.get("c_list", [8.0, 16.0, 32.0])
    T = par.get("T", 1.0)
    K = par.get("band_limit", 2.0)
    g = quantize.BoxGrid.regular(par.get("box", 40 * math.pi),
                                 par.get("n_grid", 256), 1)
    psi = _bandlimited_local(g, K)
    times = np.linspace(0.0, T, 9)
    errs = {}
    rows = []
    for c in cs:
        kg0 = pde.kg_branch_data(g, psi, c, sym.SignBranch.MINUS)
        kgs = pde.kg_free_solve(kg0, times)
        ss = pde.schrodinger_solve(pde.SchrState(g, psi, 0.0),
                                   sym.SignBranch.MINUS, times, dt=0.02)
        errs[c] = pde.conjugate_compare(kgs, ss, sym.SignBranch.MINUS, c).sup_error
        rows.append((c, errs[c]))
    ratios = [errs[cs[i]] / errs[cs[i + 1]] for i in range(len(cs) - 1)]
    rep.write_csv("compare.csv", ["c", "sup_error"], rows)
    (rep.outdir / "rates.json").write_text(json.dumps(
        {"errors": {str(c): errs[c] for c in cs}, "ratios": ratios}, indent=1))
    lo, hi = tol.get("ratio_band", [3.2, 4.8])
    rep.check("second_order_rate", all(lo <= r <= hi for r in ratios),
              f"ratios {['%.2f' % r for r in ratios]}")


def _run_mass(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {})
    par = cfg.get("params", {})
    C = par.get("C_claim", 0.2)
    eps = par.get("im_v", 0.05)
    g = quantize.BoxGrid.regular(par.get("box", 160.0), par.get("n_grid", 512), 1)
    x = g.axis_points(0)
    psi = np.exp(-(x**2) / 8.0)
    Wf = lambda t, xx: 1j * eps / (1.0 + t * t + xx * xx)
    coeffs = pde.SchrCoefficients(1, W=Wf)
    times = np.linspace(-20.0, 20.0, 161)
    run = pde.schrodinger_solve(pde.SchrState(g, psi, -20.0),
                                sym.SignBranch.MINUS, times, coeffs,
                                dt=par.get("dt", 0.02))
    tr = pde.mass_bound_check(run, C)
    rows = list(zip(tr.times, tr.M, tr.dM_numeric, tr.bound_rhs))
    rep.write_csv("mass.csv", ["t", "M", "dM", "bound_rhs"], rows)
    rep.check("mass_bound", tr.ok,
              f"first violation {tr.first_violation}" if not tr.ok else "")


def _run_scatter(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {})
    par = cfg.get("params", {})
    g = quantize.BoxGrid.regular(par.get("box", 280.0), par.get("n_grid", 2048), 1)
    x = g.axis_points(0)
    psi = np.exp(-(x**2) / 8.0)
    Xg = quantize.BoxGrid.regular(8.0, 256, 1)
    Ts = par.get("T_list", [4.0, 8.0, 16.0])
    times = sorted({-t for t in Ts} | {-2 * Ts[-1]}, reverse=True)
    run = pde.schrodinger_solve(pde.SchrState(g, psi, 0.0),
                                sym.SignBranch.MINUS, times, dt=0.05)
    profs = {}
    rows = []
    id_err = 0.0
    for st in run:
        pr = pde.scattering_profile(st, Xg)
        profs[st.t] = pr
        lhs, rhs = pde.scattering_mass_identity(st, pr)
        id_err = max(id_err, abs(lhs - rhs) / lhs)
        rows.append((st.t, lhs, rhs))
    diffs = []
    for T in Ts:
        dv = profs[-2.0 * T].values - profs[-1.0 * T].values
        diffs.append(float(np.sqrt(np.sum(np.abs(dv) ** 2) * Xg.dvol)))
        rows.append((-T, float("nan"), diffs[-1]))
    slope = float(np.polyfit(np.log(Ts), np.log(diffs), 1)[0])
    rep.write_csv("scatter.csv", ["t", "mass_or_nan", "value"], rows)
    rep.summary["cauchy_decay_exponent"] = slope
    rep.check("mass_identity", id_err <= tol.get("identity", 1.0e-8),
              f"{id_err:.2e}")
    rep.check("cauchy_decay", slope <= tol.get("decay", -0.8), f"{slope:.2f}")


def _run_norms(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {})
    g = quantize.BoxGrid((8 * math.pi, 8 * math.pi), (256, 64))
    mesh = g.mesh()
    bump = np.exp(-((mesh[0] / 3.0) ** 2) - (mesh[1] / 1.5) ** 2)
    u = quantize.GridField(g, bump)
    h = 0.25
    pair = norms.split_energy(u, h)
    part = (pair.u_minus.norm() + pair.u_plus.norm()) / u.norm()
    rec = pair.reconstruct()
    rec_err = float(np.max(np.abs(rec.values - u.values)))
    rows = [
        ("l2", norms.sc_norm(u, 0.0)),
        ("sc_m1", norms.sc_norm(u, 1.0)),
        ("natural", norms.natural_norm(u, 1.0, None, 1.0, h)),
        ("partition_ratio", part),
        ("reconstruct_err", rec_err),
    ]
    rep.write_csv("norms.csv", ["case", "value"], rows)
    rep.check("partition_bounds", 1.0 - 1e-9 <= part <= 2.0 + 1e-9, f"{part:.3f}")
    rep.check("reconstruction", rec_err <= tol.get("reconstruct", 1.0e-10),
              f"{rec_err:.2e}")


def _run_uniform_ratio(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {})
    par = cfg.get("params", {})
    orders = norms.OrderProfile(
        m=par.get("m", 1.0), ell=par.get("ell", 1.0), q_minus=0.0, q_plus=0.0,
        s_past=par.get("s_past", -0.4), s_future=par.get("s_future", -0.6))
    tab = norms.uniform_ratio_experiment(
        par.get("c_list", [4.0, 8.0, 16.0, 32.0]), orders,
        metric=metric_from_json(cfg.get("metric")) if cfg.get("metric") else None,
        n_base=par.get("n_base", 4), seed=cfg.get("seed", 0))
    rep.write_csv("ratios.csv", ["c", "family_id", "num", "den", "ratio"], tab.rows)
    rep.summary["per_c_max"] = {str(k): v for k, v in tab.per_c_max.items()}
    rep.summary["spread"] = tab.spread
    rep.check("spread", tab.spread <= tol.get("spread", 3.0), f"{tab.spread:.2f}")
    worst = max(tab.member_drift.values())
    rep.check("no_monotone_divergence", worst <= tol.get("drift", 1.5),
              f"max drift {worst:.2f}")


def _run_degeneracy(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {})
    rows = []
    worst_field = 0.0
    for branch in (sym.SignBranch.PLUS, sym.SignBranch.MINUS):
        p = geometry.PhasePoint(0.0, [0.0], -branch.sign * 2.0, [0.0], 0.0)
        v = flowmod.natural_degeneracy(p)
        worst_field = max(worst_field, v)
        rows.append((branch.name, "nat_field_norm", v))
    eig_min = math.inf
    for branch in (sym.SignBranch.PLUS, sym.SignBranch.MINUS):
        for side in (sym.Side.PAST, sym.Side.FUTURE):
            rp = sym.radial_point([0.0], 0.0, side, branch)
            ev = flowmod.radial_linearization(rp, sym.MetricParams.free(1), branch)
            m = float(np.min(np.abs(np.real(ev))))
            eig_min = min(eig_min, m)
            rows.append((f"{branch.name}:{side.name}", "min_eig", m))
    rep.write_csv("degeneracy.csv", ["case", "kind", "value"], rows)
    rep.check("nat_field_vanishes", worst_field <= tol.get("field", 1.0e-12),
              f"{worst_field:.2e}")
    rep.check("pf_nondegenerate", eig_min >= tol.get("eig_min", 0.5),
              f"{eig_min:.2f}")


def _run_border(cfg, rep: Reporter, rng):
    tol = cfg.get("tolerances", {}).get("exponent", 0.05)
    ray = geometry.ParabolicRay(1.0, [0.0], np.geomspace(3.0, 300.0, 25))
    e_tau = geometry.b_order_fit("tau", geometry.ChartId(geometry.ChartTag.PAR_FREQ_TAU), ray)
    e_xi = geometry.b_order_fit(("xi", 1), geometry.ChartId(geometry.ChartTag.PAR_FREQ_TAU), ray)
    ray2 = geometry.ParabolicRay(0.5, [1.0], np.geomspace(3.0, 300.0, 25))
    e_tau2 = geometry.b_order_fit("tau", geometry.ChartId(geometry.ChartTag.PAR_FREQ_XI, k=1), ray2)
    e_xi2 = geometry.b_order_fit(("xi", 1), geometry.ChartId(geometry.ChartTag.PAR_FREQ_XI, k=1), ray2)
    rows = [("tau", "par_freq_tau", e_tau), ("xi1", "par_freq_tau", e_xi),
            ("tau", "par_freq_xi1", e_tau2), ("xi1", "par_freq_xi1", e_xi2)]
    rep.write_csv("border.csv", ["direction", "chart", "exponent"], rows)
    ok = (abs(e_tau - 2) <= tol and abs(e_xi - 1) <= tol
          and abs(e_tau2 - 2) <= tol and abs(e_xi2 - 1) <= tol)
    rep.check("b_orders", ok, f"{e_tau:.3f}, {e_xi:.3f}, {e_tau2:.3f}, {e_xi2:.3f}")


_RUNNERS = {
    "flow": _run_flow,
    "charset": _run_charset,
    "radial": _run_radial,
    "qdf": _run_qdf,
    "alpha": _run_alpha,
    "star": _run_star,
    "quantize": _run_quantize,
    "pde-compare": _run_pde_compare,
    "mass": _run_mass,
    "scatter": _run_scatter,
    "norms": _run_norms,
    "uniform-ratio": _run_uniform_ratio,
    "degeneracy": _run_degeneracy,
    "b-order": _run_border,
}


def run(config: dict, out: str | None = None, seed: int | None = None) -> int:
    """Execute one experiment config; returns the process exit code."""
    command = config["command"]
    if seed is not None:
        config = {**config, "seed": int(seed)}
    if out is not None:
        config = {**config, "out": out}
    outdir = Path(config.get("out", f"nrlab_out/{command}"))
    rng = np.random.default_rng(config.get("seed", 0))
    rep = Reporter(outdir)
    rep.summary["command"] = command
    rep.summary["seed"] = config.get("seed", 0)
    _RUNNERS[command](config, rep, rng)
    return rep.finish(command)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nrlab", description="compactified phase-space laboratory experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg["command"] != args.command:
            raise ConfigInvalid(
                f"config command {cfg['command']!r} does not match {args.command!r}"
            )
        return run(cfg, out=args.out, seed=args.seed)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

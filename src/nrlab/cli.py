"""Batch front-end: JSON-config experiment runner with CSV/JSON artifacts.

Usage:  nrlab <command> --config cfg.json [--out DIR] [--seed N]

Each command runs the function of the same name in ``nrlab.experiments``
(``-`` becomes ``_``).  The config's ``params`` bind to that function's
keyword arguments and its ``tolerances`` to the keyword defaults of the
command's check below; an unknown key, a value whose JSON type differs from
the default's (an int passes for a float), or a ``metric`` block for a
command that takes none exits 2 before anything runs, as does any other
invalid config.  A run writes CSV tables plus a summary.json into the
output directory, prints one PASS/FAIL line, and exits 0 on pass, 1 on a
failed check (artifacts still written), 3 on an unexpected exception.  All
randomness flows from one 64-bit seed: a fixed config gives byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from pathlib import Path

import numpy as np
from numpy.random import default_rng  # every run seeds one; loaded with the CLI, not lazily

from . import experiments
from . import symbols as sym
from .errors import ConfigInvalid, InvalidInput, NrlabError

COMMANDS = [
    "flow", "charset", "radial", "qdf", "alpha", "star", "quantize",
    "pde-compare", "mass", "scatter", "norms", "uniform-ratio",
    "degeneracy", "b-order",
]

# JSON objects bind key by key to these tables of defaults (see _bind): an empty list takes
# any list, whose entries bind in turn, and 1.0 lets schema_version be 1 or 1.0, not true.
_CONFIG = {"schema_version": 1.0, "command": "", "seed": 0, "out": "", "metric": {},
           "tolerances": {}, "params": {}}
_METRIC = {"d": 0, "alpha": {}, "w": [], "hjk": [], "beta": {}, "B": [], "W": {}}
_COEFF = {"re": {}, "im": {}, "im_c_decay": False}
_PROFILE = {"amplitude": 0.0, "order": -1, "constant": 1.0, "waves": []}
_WAVE = {"kappa": [0.0], "cos": 0.0, "sin": 0.0}


def _profile_from_json(p, block) -> sym.ClassicalSymbolProfile:
    p = _bind(_PROFILE, p, block)
    waves = [_bind(_WAVE, wv, f"{block}.waves", ["kappa"]) for wv in p.pop("waves")]
    return sym.ClassicalSymbolProfile(
        waves=tuple((tuple(wv["kappa"]), wv["cos"], wv["sin"]) for wv in waves), **p)


def _coeff_from_json(c, block) -> sym.OperatorCoefficient:
    c = _bind(_COEFF, c, block)
    return sym.OperatorCoefficient(_profile_from_json(c["re"], f"{block}.re"),
                                   _profile_from_json(c["im"], f"{block}.im"), c["im_c_decay"])


def _each(bind, items, block) -> tuple:
    if type(items) is not list:
        raise ConfigInvalid(f"{block} = {items!r} is not a list")
    return tuple(bind(x, block) for x in items)


def metric_from_json(mjson) -> sym.MetricParams:
    """Build MetricParams from its JSON form, where ``re``/``im``/``im_c_decay`` bind to
    ``real``/``imag``/``imag_c_decay`` and a wave to a (kappa, cos, sin) triple.  An unknown
    or mistyped key, or no ``d`` or ``kappa``, raises ConfigInvalid; a value that
    MetricParams rejects raises InvalidInput."""
    m = _bind(_METRIC, mjson, "metric", ["d"])
    return sym.MetricParams(
        d=m["d"], alpha=_profile_from_json(m["alpha"], "metric.alpha"),
        w=_each(_profile_from_json, m["w"], "metric.w"),
        hjk=_each(lambda row, b: _each(_profile_from_json, row, b), m["hjk"], "metric.hjk"),
        beta=_coeff_from_json(m["beta"], "metric.beta"),
        B=_each(_coeff_from_json, m["B"], "metric.B"), W=_coeff_from_json(m["W"], "metric.W"))


def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
    _check_config(cfg)
    return cfg


def _check_config(cfg) -> None:
    """Raise ConfigInvalid unless the top level of a config binds to _CONFIG."""
    _bind(_CONFIG, cfg, "config", ["schema_version", "command"])
    if cfg["schema_version"] != 1:
        raise ConfigInvalid(f"schema_version must be 1, not {cfg['schema_version']!r}")
    if cfg["command"] not in COMMANDS:
        raise ConfigInvalid(f"unknown command {cfg['command']!r}; known: {COMMANDS}")
    if cfg.get("seed", 0) < 0:
        raise ConfigInvalid(f"seed must be >= 0, not {cfg['seed']}")


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
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.12e}" if isinstance(v, float) else str(v)
                                  for v in row) + "\n")
        return path

    def finish(self, command: str) -> int:
        self.summary["checks"] = [{"name": n, "ok": ok, "detail": d}
                                  for n, ok, d in self.checks]
        self.summary["pass"] = self.passed
        (self.outdir / "summary.json").write_text(json.dumps(self.summary, indent=1))
        status = "PASS" if self.passed else "FAIL"
        failing = [n for n, ok, _ in self.checks if not ok]
        tail = "" if self.passed else f"  failing: {', '.join(failing)}"
        print(f"{status} {command}: {len(self.checks)} checks{tail}")
        return 0 if self.passed else 1


# One check per command, named _check_<experiment function>.  Its keyword
# defaults are the command's tolerance table: a config's "tolerances" block
# binds to them as "params" binds to the experiment's keywords.


def _check_flow(v, rep, *, required_fraction=1.0, p_resid=1.0e-6, delta=1.0e-3):
    # delta, the radius of the radial-set balls, is read by the experiment
    rep.summary["fraction_correct"] = v["fraction_correct"]
    rep.check("source_to_sink", v["fraction_correct"] >= required_fraction,
              f"{v['correct']}/{v['total']}")
    rep.check("char_set_preserved", v["max_p_resid"] <= p_resid,
              f"max resid {v['max_p_resid']:.2e}")


def _check_charset(v, rep, *, symbol=1.0e-10):
    rep.check("sheet_residual", v["max_symbol"] <= symbol, f"max |p| = {v['max_symbol']:.2e}")


def _check_radial(v, rep, *, field=1.0e-10):
    on, norm = v["on_sigma"], v["field_norm"]
    rep.check("radial_points_on_sigma_fixed", np.all(on & (norm <= field)),
              f"{np.count_nonzero(on)}/{on.size} on Sigma, max field norm {np.max(norm):.2e}")


def _check_qdf(v, rep, *, iota_min=0.5, f_floor=1.0e-12, iota_exact=1.0e-10):
    good = (v["iota"] >= iota_min) & (v["F"] >= -f_floor)
    if v["flat"]:
        good &= np.abs(v["iota"] - v["iota_ref"]) <= iota_exact
    rep.check("qdf_structure", np.all(good),
              f"min iota {np.min(v['iota']):.3f}, min F {np.min(v['F']):.2e}")


def _check_alpha(v, rep, *, zero=1.0e-8, min_mag=1.0e-3):
    a, s = v["alpha"], np.array(experiments.ALPHA_S)
    good = np.where(s == 0.0, np.abs(a) <= zero,
                    (v["signed"] * s > 0) & (np.abs(a) >= min_mag))
    rep.check("threshold_sign", np.all(good),
              f"min |alpha| at s != 0 {np.min(np.abs(a[:, s != 0.0])):.2e}")


def _check_star(v, rep, *, poly=1.0e-10, gain=0.8):
    rep.summary["per_term_gain"] = v["gain"]
    rep.check("poly_exact", v["poly_resid"] <= poly, f"{v['poly_resid']:.2e}")
    rep.check("per_term_gain", v["gain"] >= gain, f"{v['gain']:.2f}")


def _check_quantize(v, rep, *, action=1.0e-10):
    rep.check("quantize_actions", v["max_error"] <= action, f"max {v['max_error']:.2e}")


def _check_pde_compare(v, rep, *, ratio_band=(3.2, 4.8)):
    ratios = v["ratios"]
    (rep.outdir / "rates.json").write_text(json.dumps(
        {"errors": {str(c): e for c, e in v["errors"].items()}, "ratios": ratios}, indent=1))
    lo, hi = ratio_band
    rep.check("second_order_rate", all(lo <= r <= hi for r in ratios),
              f"ratios {['%.2f' % r for r in ratios]}")


def _check_mass(v, rep):
    rep.check("mass_bound", v["bound_ok"],
              "" if v["bound_ok"] else f"first violation {v['first_violation']}")


def _check_scatter(v, rep, *, identity=1.0e-8, decay=-0.8):
    rep.summary["cauchy_decay_exponent"] = v["decay_exponent"]
    rep.check("mass_identity", v["identity_error"] <= identity, f"{v['identity_error']:.2e}")
    rep.check("cauchy_decay", v["decay_exponent"] <= decay, f"{v['decay_exponent']:.2f}")


def _check_norms(v, rep, *, reconstruct=1.0e-10):
    part = v["partition"]
    rep.check("partition_bounds", 1.0 - 1e-9 <= part <= 2.0 + 1e-9, f"{part:.3f}")
    rep.check("reconstruction", v["reconstruct_error"] <= reconstruct,
              f"{v['reconstruct_error']:.2e}")


def _check_uniform_ratio(v, rep, *, spread=3.0, drift=1.5):
    rep.summary["per_c_max"] = {str(k): x for k, x in v["per_c_max"].items()}
    rep.summary["spread"] = v["spread"]
    rep.check("spread", v["spread"] <= spread, f"{v['spread']:.2f}")
    rep.check("no_monotone_divergence", v["max_drift"] <= drift,
              f"max drift {v['max_drift']:.2f}")


def _check_degeneracy(v, rep, *, field=1.0e-12, eig_min=0.5):
    rep.check("nat_field_vanishes", v["field_norm"] <= field, f"{v['field_norm']:.2e}")
    rep.check("pf_nondegenerate", v["eig_min"] >= eig_min, f"{v['eig_min']:.2f}")


def _check_b_order(v, rep, *, exponent=0.05):
    exps = v["exponents"]
    ok = all(abs(e - want) <= exponent for e, want in zip(exps, (2, 1, 2, 1)))
    rep.check("b_orders", ok, ", ".join(f"{e:.3f}" for e in exps))


def _same_kind(value, default) -> bool:
    """Whether a JSON value has the type of a default; an int passes for a float."""
    if isinstance(default, (list, tuple)):
        return isinstance(value, list) and (not default or all(_same_kind(x, default[0])
                                                               for x in value))
    if isinstance(default, float) and not isinstance(value, bool):
        return isinstance(value, (int, float))
    return type(value) is type(default)


def _keyword_defaults(fn) -> dict:
    return {n: p.default for n, p in inspect.signature(fn).parameters.items()
            if p.kind is p.KEYWORD_ONLY and p.default is not p.empty}


def _bind(defaults: dict, given, block: str, required=()) -> dict:
    """``defaults`` overridden by the JSON object ``given``, where an unknown,
    mistyped or missing required key raises ConfigInvalid."""
    if type(given) is not dict:
        raise ConfigInvalid(f"{block} = {given!r} is not a JSON object")
    for key in required:
        if key not in given:
            raise ConfigInvalid(f"{block} lacks the required key {key!r}")
    for key, value in given.items():
        if key not in defaults:
            raise ConfigInvalid(f"unknown {block} key {key!r}; known: {sorted(defaults)}")
        if not _same_kind(value, defaults[key]):
            raise ConfigInvalid(f"{block}.{key} = {value!r} does not match the type "
                                f"of its default {defaults[key]!r}")
    return {**defaults, **given}


def _bind_config(config: dict):
    """The experiment function, its arguments, the check and its tolerances
    of a config, bound before anything runs; raises ConfigInvalid or
    InvalidInput (for metric values) on a config that does not bind."""
    _check_config(config)
    command = config["command"]
    fn = getattr(experiments, command.replace("-", "_"))
    check = globals()[f"_check_{fn.__name__}"]
    tol = _bind(_keyword_defaults(check), config.get("tolerances", {}), "tolerances")
    kwargs = _bind(_keyword_defaults(fn), config.get("params", {}), "params")
    inputs = inspect.signature(fn).parameters
    seed = config.get("seed", 0)
    supplied = {"rng": default_rng(seed), "seed": seed}
    kwargs.update((n, supplied[n]) for n in inputs if n in supplied)
    # a keyword without a default is a tolerance the computation reads
    kwargs.update((n, tol[n]) for n, p in inputs.items()
                  if p.kind is p.KEYWORD_ONLY and n not in kwargs)
    if "metric" in config:
        if "metric" not in inputs:
            raise ConfigInvalid(f"{command} takes no metric block")
        kwargs["metric"] = metric_from_json(config["metric"])
    return fn, kwargs, check, tol


def run(config: dict, out: str | None = None, seed: int | None = None) -> int:
    """Execute one experiment config; returns the process exit code.

    A config that does not bind or that the experiment rejects writes nothing.
    """
    if seed is not None:
        config = {**config, "seed": int(seed)}
    if out is not None:
        config = {**config, "out": out}
    fn, kwargs, check, tol = _bind_config(config)
    command = config["command"]
    result = fn(**kwargs)
    rep = Reporter(Path(config.get("out", f"nrlab_out/{command}")))
    rep.summary["command"] = command
    rep.summary["seed"] = config.get("seed", 0)
    if "solver" in result.values:
        rep.summary["solver"] = result.values["solver"]
    for name, (header, rows) in result.tables.items():
        rep.write_csv(name, header, rows)
    check(result.values, rep, **tol)
    return rep.finish(command)


@functools.cache
def _parser() -> argparse.ArgumentParser:   # built on the first call and kept
    parser = argparse.ArgumentParser(
        prog="nrlab", description="compactified phase-space laboratory experiments")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg["command"] != args.command:
            raise ConfigInvalid(f"config command {cfg['command']!r} does not match "
                                f"{args.command!r}")
        return run(cfg, out=args.out, seed=args.seed)
    except (ConfigInvalid, InvalidInput) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug, not a verdict: keep exit 1 for a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

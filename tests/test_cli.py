"""Batch front-end: config validation, artifacts, determinism, exit codes."""

import ast
import importlib
import json
import math
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nrlab
from nrlab import errors, experiments
from nrlab.cli import COMMANDS, load_config, main, metric_from_json, run
from nrlab.errors import ConfigInvalid, InvalidInput, NrlabError
from nrlab.experiments import scatter


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(nrlab.__path__)))
def test_every_exported_name_resolves(module):
    # perfbench's tracer looks up every __all__ name of a layer module, so
    # a name left there after its function is gone breaks every traced run
    mod = importlib.import_module(f"nrlab.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("path", sorted(Path(nrlab.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_module_level_import(path):
    # a deletion takes its imports with it; "# noqa" on an import's own line
    # keeps a name that is read only from outside, and __all__ counts as a use
    text = path.read_text()
    tree, lines = ast.parse(text), text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {name for node in tree.body if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
             for name in ast.literal_eval(node.value)}
    unused = [
        f"{path.name}:{alias.lineno} {alias.asname or alias.name}"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
        and "# noqa" not in lines[alias.lineno - 1]
    ]
    assert unused == []


def test_every_exported_name_is_used_by_the_package_or_a_demo():
    # a function only tests call belongs in tests/; a read is a loaded Name or
    # Attribute, so imports, the name's own def and __all__ itself do not count.
    # natural_symbol_value stays exported until perfbench stops reading it by
    # name (ROADMAP item 7); __init__'s __all__ lists the modules themselves
    package = Path(nrlab.__file__).parent
    demos = Path(__file__).resolve().parents[1] / "demos"
    reads = {"natural_symbol_value"}
    for path in sorted(package.glob("*.py")) + sorted(demos.glob("*.py")):
        reads |= {node.id if isinstance(node, ast.Name) else node.attr
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{name}" for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"
              for name in getattr(importlib.import_module(f"nrlab.{path.stem}"), "__all__", ())
              if name not in reads]
    assert unread == []


def test_every_raise_names_an_nrlab_error():
    # every public entry point fails with a typed NrlabError; the one
    # exception is quantize.transform re-raising a slab worker's error as is
    typed = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, NrlabError)}
    offenders = []
    for path in sorted(Path(nrlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc)
            if name not in typed and (path.name, name) != ("quantize.py", "err"):
                offenders.append(f"{path.name}:{node.lineno} raise {name}")
    assert offenders == []


def test_every_error_type_is_raised():
    # an error type that no raise in the package names can be caught but
    # never happens: it outlived the code that raised it
    raised = {ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
              for path in Path(nrlab.__file__).parent.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and node.exc is not None}
    types = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, NrlabError) and obj is not NrlabError}
    assert sorted(types - raised) == []


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write(tmp_path / "c.json",
                    {"schema_version": 1, "command": "star", "bogus": 1})
        with pytest.raises(ConfigInvalid):
            load_config(cfg)

    def test_bad_command_rejected(self, tmp_path):
        cfg = write(tmp_path / "c.json",
                    {"schema_version": 1, "command": "nonsense"})
        with pytest.raises(ConfigInvalid):
            load_config(cfg)

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["star", "--config", str(bad)])
        assert rc == 2

    def test_grids_key_exit_2(self, tmp_path):
        cfg = write(tmp_path / "c.json",
                    {"schema_version": 1, "command": "star", "grids": {}})
        assert main(["star", "--config", cfg]) == 2

    def test_malformed_metric_exit_2(self, tmp_path):
        cfg = write(tmp_path / "c.json",
                    {"schema_version": 1, "command": "qdf",
                     "metric": {"d": 1, "alpha": {"order": 3}}})
        rc = main(["qdf", "--config", cfg])
        assert rc == 2

    @pytest.mark.parametrize("config", [
        pytest.param({"schema_version": 1, "command": "qdf", "bogus": 1}, id="extra-key"),
        pytest.param({"command": "qdf"}, id="no-schema-version"),
        pytest.param({"schema_version": 1}, id="no-command"),
        pytest.param({"schema_version": 2, "command": "qdf"}, id="schema-version-2"),
        pytest.param({"schema_version": True, "command": "qdf"}, id="schema-version-true"),
        pytest.param({"schema_version": 1, "command": "nonsense"}, id="unknown-command"),
        pytest.param({"schema_version": 1, "command": "qdf", "seed": -1}, id="seed-negative"),
        pytest.param({"schema_version": 1, "command": "qdf", "seed": True}, id="seed-true"),
        pytest.param({"schema_version": 1, "command": "qdf", "seed": 1.0}, id="seed-float"),
        pytest.param({"schema_version": 1, "command": "qdf", "out": 5}, id="out-number"),
        pytest.param({"schema_version": 1, "command": "qdf", "params": []}, id="params-list"),
        pytest.param({"schema_version": 1, "command": "qdf", "tolerances": []},
                     id="tolerances-list"),
        pytest.param([], id="top-level-list"),
        pytest.param({"schema_version": 1, "command": "qdf", "metric": []}, id="metric-list"),
        pytest.param({"schema_version": 1, "command": "qdf", "metric": {"d": 1.0}},
                     id="d-float"),
        pytest.param({"schema_version": 1, "command": "qdf", "metric": {"d": 0}}, id="d-0"),
        pytest.param({"schema_version": 1, "command": "qdf", "metric": {"d": 4}}, id="d-4"),
        pytest.param({"schema_version": 1, "command": "qdf", "metric": {"alpha": {}}},
                     id="no-d"),
        pytest.param({"schema_version": 1, "command": "qdf",
                      "metric": {"d": 1, "alpha": {"amplitud": 0.1}}}, id="profile-key"),
        pytest.param({"schema_version": 1, "command": "qdf",
                      "metric": {"d": 1, "alpha": {"order": 0}}}, id="order-0"),
        pytest.param({"schema_version": 1, "command": "qdf",
                      "metric": {"d": 1, "alpha": {"order": -1.0}}}, id="order-float"),
        pytest.param({"schema_version": 1, "command": "qdf",
                      "metric": {"d": 1, "alpha": {"amplitude": "0.1"}}}, id="amplitude-string"),
        pytest.param({"schema_version": 1, "command": "qdf",
                      "metric": {"d": 1, "alpha": {"waves": [
                          {"kappa": [0.7, 1.3], "cosine": 1}]}}}, id="wave-key"),
        pytest.param({"schema_version": 1, "command": "qdf",
                      "metric": {"d": 1, "alpha": {"waves": [{"cos": 0.4}]}}}, id="no-kappa"),
        pytest.param({"schema_version": 1, "command": "qdf",
                      "metric": {"d": 1, "alpha": {"waves": [{"kappa": [0.7, True]}]}}},
                     id="kappa-bool"),
        pytest.param({"schema_version": 1, "command": "qdf",
                      "metric": {"d": 1, "alpha": {"waves": {"kappa": [0.7, 1.3]}}}},
                     id="waves-object"),
        pytest.param({"schema_version": 1, "command": "qdf",
                      "metric": {"d": 1, "W": {"real": {"amplitude": 0.1}}}},
                     id="coefficient-key"),
        pytest.param({"schema_version": 1, "command": "qdf",
                      "metric": {"d": 1, "B": [{"im_c_decay": 1}]}}, id="im-c-decay-number"),
        pytest.param({"schema_version": 1, "command": "qdf", "metric": {"d": 1, "hjk": [5]}},
                     id="hjk-row-number"),
        pytest.param({"schema_version": 1, "command": "qdf", "metric": {"d": 1, "w": {}}},
                     id="w-object"),
    ])
    def test_config_shape_exits_2(self, tmp_path, config, capsys):
        cfg = write(tmp_path / "c.json", config)
        assert main(["qdf", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    def test_schema_version_one_point_zero_accepted(self, tmp_path):
        cfg = write(tmp_path / "c.json", {"schema_version": 1.0, "command": "degeneracy"})
        assert load_config(cfg)["schema_version"] == 1

    def test_negative_seed_option_exits_2(self, tmp_path):
        cfg = write(tmp_path / "c.json", {"schema_version": 1, "command": "degeneracy"})
        out = tmp_path / "out"
        assert main(["degeneracy", "--config", cfg, "--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,block", [
        ("qdf", {"metric": {"d": 1, "w": [{}, {}]}}),
        ("star", {"params": {"n_grid": 100}}),
        ("uniform-ratio", {"params": {"s_past": 0.0, "s_future": 0.1}}),
        # an empty ensemble or a one-rung c-ladder leaves its check nothing
        # to compare: not a crash, and not a PASS
        ("flow", {"params": {"n_per_case": 0}}),
        ("flow", {"params": {"h_list": []}}),
        ("pde-compare", {"params": {"c_list": [8.0]}}),
        ("mass", {"params": {"dt": 0}}),
        ("mass", {"params": {"dt": -0.5}}),
        ("scatter", {"params": {"T_list": []}}),
        ("scatter", {"params": {"T_list": [4.0]}}),
        ("scatter", {"params": {"T_list": [4.0, 4.0]}}),
        ("scatter", {"params": {"T_list": [-4.0, -8.0]}}),
        # profiles need |t| >= 1, and 2T |X| inside the box (here 8 T <= 140)
        ("scatter", {"params": {"T_list": [0.5, 8.0]}}),
        ("scatter", {"params": {"T_list": [4.0, 64.0]}}),
        ("scatter", {"params": {"T_list": [4.0, 17.6]}}),
        # no probe, an exact two-coefficient fit, or no radius: nothing to check
        ("qdf", {"params": {"n_centers": 0}}),
        ("qdf", {"params": {"n_samples": 0}}),
        ("qdf", {"params": {"n_samples": 1}}),
        ("qdf", {"params": {"n_samples": 2}}),
        ("qdf", {"params": {"radius": 0.0}}),
        ("qdf", {"params": {"radius": -0.05}}),
        # an empty grid passes the power-of-two test, since 0 & -1 == 0
        ("star", {"params": {"n_grid": 0}}),
        ("quantize", {"params": {"n_grid": 0}}),
        # a constant profile crosses no threshold
        ("uniform-ratio", {"params": {"s_past": -0.4, "s_future": -0.4}}),
        # a kappa of other than 1+d entries, a short or long hjk row, a NaN
        ("qdf", {"metric": {"d": 1, "alpha": {"amplitude": 0.1, "waves": [{"kappa": [0.7]}]}}}),
        ("qdf", {"metric": {"d": 1, "alpha": {"amplitude": 0.1, "waves": [{"kappa": []}]}}}),
        ("qdf", {"metric": {"d": 1, "hjk": [[{"amplitude": 0.1}, {"amplitude": 0.1}]]}}),
        ("qdf", {"metric": {"d": 1, "alpha": {"amplitude": math.nan}}}),
        # a c-ladder needs two distinct finite c > 0 to form a spread
        ("uniform-ratio", {"params": {"c_list": []}}),
        ("uniform-ratio", {"params": {"c_list": [0.0, 4.0]}}),
        ("uniform-ratio", {"params": {"c_list": [4.0]}}),
        ("uniform-ratio", {"params": {"c_list": [4.0, 4.0]}}),
        ("uniform-ratio", {"params": {"c_list": [-4.0, 4.0]}}),
        # no sample to check: one per branch for charset
        ("charset", {"params": {"n_samples": 0}}),
        ("charset", {"params": {"n_samples": 1}}),
        ("charset", {"params": {"n_samples": -5}}),
        ("radial", {"params": {"n_samples": 0}}),
        ("alpha", {"params": {"n_samples": 0}}),
        # an odd count would drop a charset sample; an empty family has no maximum
        ("charset", {"params": {"n_samples": 3}}),
        ("uniform-ratio", {"params": {"n_base": 0}}),
        ("uniform-ratio", {"params": {"n_base": -1}}),
        # no span, no band, or a c that is not finite and > 0
        ("pde-compare", {"params": {"T": 0.0}}),
        ("pde-compare", {"params": {"band_limit": 0.0}}),
        ("pde-compare", {"params": {"c_list": [8.0, -8.0]}}),
        ("uniform-ratio", {"params": {"m": math.nan}}),
        # the probe is local, and mass's steps must not skip its output times
        ("qdf", {"params": {"radius": 1e300}}),
        ("mass", {"params": {"dt": 100.0}}),
        # a repeated c forms the error ratio 1
        ("pde-compare", {"params": {"c_list": [8.0, 8.0]}}),
        # a grid too small to resolve the command's own data
        ("star", {"params": {"n_grid": 1}}),
        ("star", {"params": {"n_grid": 2}}),
        ("quantize", {"params": {"n_grid": 2}}),
        ("pde-compare", {"params": {"n_grid": 2}}),
        ("mass", {"params": {"n_grid": 1}}),
        # a flow needs a budget and a radial-ball radius that are finite and > 0
        ("flow", {"params": {"budget": 0.0}}),
        ("flow", {"params": {"budget": math.nan}}),
        ("flow", {"params": {"budget": -1.0}}),
        ("flow", {"tolerances": {"delta": 0.0}}),
        # 4 x 10^301 steps, over pde.MAX_STEPS: rejected before the first
        ("mass", {"params": {"dt": 1e-300}}),
        # a mass bound with no finite claim >= 0, or a potential that is not finite
        ("mass", {"params": {"im_v": math.nan}}),
        ("mass", {"params": {"C_claim": math.nan}}),
        ("mass", {"params": {"C_claim": math.inf}}),
        ("mass", {"params": {"C_claim": -0.2}}),
        # a light speed whose square or inverse square leaves the float range
        ("pde-compare", {"params": {"c_list": [1e300, 1e301]}}),
        ("pde-compare", {"params": {"c_list": [1e-300, 1e-200]}}),
        ("uniform-ratio", {"params": {"c_list": [1e-300, 2e-300]}}),
        # nothing to compare: every error exactly 0, a varrho that underflows in the
        # probe's fit, or a grid that does not resolve the profiles' data
        ("pde-compare", {"params": {"band_limit": 1e-9}}),
        ("pde-compare", {"params": {"T": 1e-300}}),
        ("qdf", {"params": {"radius": 1e-300}}),
        ("qdf", {"params": {"radius": 1e-150}}),
        ("scatter", {"params": {"n_grid": 8}}),
        ("scatter", {"params": {"n_grid": 256}}),
    ])
    def test_values_the_library_rejects_exit_2(self, tmp_path, command, block):
        cfg = write(tmp_path / "c.json", {"schema_version": 1, "command": command, **block})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert issubclass(InvalidInput, ValueError) and issubclass(InvalidInput, NrlabError)
        # the experiment raised before anything was written
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("T_list", [[4.0, 16.0], [16.0, 8.0, 4.0], [1.0, 17.5]])
    def test_scatter_profiles_at_every_T_and_2T(self, T_list):
        # each T's difference reads the profiles at -T and -2T, whatever the
        # order of T_list; 8 * 17.5 = 140 is the box's half-width exactly
        rows = scatter(T_list=T_list).tables["scatter.csv"][1]
        times = {t for t, mass, _ in rows if not math.isnan(mass)}
        assert times == {-t for t in T_list} | {-2.0 * t for t in T_list}
        diffs = [value for t, mass, value in rows if math.isnan(mass)]
        assert len(diffs) == len(T_list) and all(v > 0.0 for v in diffs)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("block", [{"params": {"n_grdi": 64}},
                                       {"tolerances": {"gian": 0.8}}])
    def test_typo_exits_2_before_running(self, tmp_path, command, block):
        cfg = write(tmp_path / "c.json", {"schema_version": 1, "command": command, **block})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["charset", "radial", "star", "quantize",
                                         "pde-compare", "mass", "scatter", "norms",
                                         "degeneracy", "b-order"])
    def test_metric_block_rejected_where_unused(self, tmp_path, command):
        cfg = write(tmp_path / "c.json",
                    {"schema_version": 1, "command": command,
                     "metric": {"d": 1, "alpha": {"amplitude": 0.2}}})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params", [{"n_grid": 256.0}, {"n_grid": "256"},
                                        {"n_grid": True}])
    def test_mistyped_param_rejected(self, params):
        with pytest.raises(ConfigInvalid):
            run({"schema_version": 1, "command": "star", "params": params})

    def test_int_accepted_for_float(self, tmp_path):
        cfg = {"schema_version": 1, "command": "charset", "params": {"n_samples": 20},
               "tolerances": {"symbol": 1}}
        assert run(cfg, out=str(tmp_path / "charset")) == 0

    def test_metric_from_json(self):
        M = metric_from_json({
            "d": 1,
            "alpha": {"amplitude": 0.2, "order": -1,
                      "waves": [{"kappa": [0.5, 1.0], "cos": 0.3}]},
            "W": {"im": {"amplitude": 0.1, "order": -2}},
        })
        assert M.d == 1
        assert M.alpha.amplitude == 0.2
        assert M.W.imag.amplitude == 0.1


class TestRunCommands:
    def test_star_passes(self, tmp_path):
        cfg = {"schema_version": 1, "command": "star", "seed": 7,
               "out": str(tmp_path / "star")}
        assert run(cfg) == 0
        assert (tmp_path / "star" / "star.csv").exists()
        summary = json.loads((tmp_path / "star" / "summary.json").read_text())
        assert summary["pass"] is True

    def test_failing_tolerance_exit_1(self, tmp_path):
        # an unreachable per-term gain forces an assertion failure
        cfg = {"schema_version": 1, "command": "star", "seed": 0,
               "out": str(tmp_path / "star_fail"),
               "tolerances": {"gain": 5.0}}
        assert run(cfg) == 1
        # artifacts still written
        assert (tmp_path / "star_fail" / "star.csv").exists()
        summary = json.loads((tmp_path / "star_fail" / "summary.json").read_text())
        assert summary["pass"] is False

    @pytest.mark.parametrize("command,params,tolerances,detail", [
        ("radial", {"n_samples": 20}, {"field": -1.0}, r"20/20 on Sigma, max field norm \S+$"),
        ("qdf", {"n_centers": 2, "n_samples": 20}, {"iota_min": 100.0},
         r"min iota \S+, min F \S+$"),
        ("alpha", {"n_samples": 10}, {"min_mag": 100.0}, r"min \|alpha\| at s != 0 \S+$"),
    ])
    def test_failing_check_says_why(self, tmp_path, command, params, tolerances, detail):
        cfg = {"schema_version": 1, "command": command, "params": params,
               "tolerances": tolerances}
        assert run(cfg, out=str(tmp_path)) == 1
        (check,) = json.loads((tmp_path / "summary.json").read_text())["checks"]
        assert not check["ok"] and re.fullmatch(detail, check["detail"]), check

    def test_deterministic_csv(self, tmp_path):
        cfg = {"schema_version": 1, "command": "charset", "seed": 11,
               "params": {"n_samples": 200}}
        run(cfg, out=str(tmp_path / "a"))
        run(cfg, out=str(tmp_path / "b"))
        csv_a = (tmp_path / "a" / "char_samples.csv").read_bytes()
        csv_b = (tmp_path / "b" / "char_samples.csv").read_bytes()
        assert csv_a.startswith(b"branch,chart,")
        assert csv_a == csv_b

    def test_seed_changes_samples(self, tmp_path):
        cfg = {"schema_version": 1, "command": "charset",
               "params": {"n_samples": 50}}
        run(cfg, out=str(tmp_path / "a"), seed=1)
        run(cfg, out=str(tmp_path / "b"), seed=2)
        rows_a = (tmp_path / "a" / "char_samples.csv").read_text().splitlines()
        rows_b = (tmp_path / "b" / "char_samples.csv").read_text().splitlines()
        assert rows_a[1:] != rows_b[1:]

    def test_radial_dimension_param(self, tmp_path):
        tables = {}
        for d in (1, 2):
            cfg = {"schema_version": 1, "command": "radial",
                   "params": {"d": d, "n_samples": 20}}
            assert run(cfg, out=str(tmp_path / f"d{d}")) == 0
            tables[d] = (tmp_path / f"d{d}" / "radial.csv").read_text().splitlines()
        # a d = 2 sample draws two frequencies, so the seeded rows differ
        assert len(tables[2]) == 21 and tables[1][1:] != tables[2][1:]

    def test_unexpected_exception_exits_3(self, tmp_path, monkeypatch, capsys):
        def degeneracy():
            raise RuntimeError("boom")
        monkeypatch.setattr(experiments, "degeneracy", degeneracy)
        cfg = write(tmp_path / "c.json", {"schema_version": 1, "command": "degeneracy"})
        assert main(["degeneracy", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_console_entry_point(self, tmp_path):
        cfg = write(tmp_path / "c.json",
                    {"schema_version": 1, "command": "degeneracy",
                     "out": str(tmp_path / "deg")})
        proc = subprocess.run(
            [sys.executable, "-m", "nrlab.cli", "degeneracy", "--config", cfg],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS degeneracy" in proc.stdout

    def test_consecutive_calls_answer_as_fresh_ones(self, tmp_path, monkeypatch, capsys):
        # main builds its parser once: a later call, with another command or a
        # bad --seed, exits and prints as it would in a fresh process
        monkeypatch.setenv("COLUMNS", "80")   # argparse wraps its usage line to this
        deg = write(tmp_path / "d.json", {"schema_version": 1, "command": "degeneracy"})
        cs = write(tmp_path / "c.json", {"schema_version": 1, "command": "charset",
                                         "params": {"n_samples": 20}})
        argvs = [["degeneracy", "--config", deg, "--out", str(tmp_path / "deg")],
                 ["charset", "--config", cs, "--seed", "x"],
                 ["charset", "--config", cs, "--seed", "-1"],
                 ["charset", "--config", cs, "--out", str(tmp_path / "cs")]]
        here = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse rejects an argument
                code = exc.code
            here.append((code, *capsys.readouterr()))
        fresh = [subprocess.run([sys.executable, "-m", "nrlab.cli", *argv],
                                capture_output=True, text=True, timeout=120)
                 for argv in argvs]
        assert here == [(p.returncode, p.stdout, p.stderr) for p in fresh]
        assert [code for code, _, _ in here] == [0, 2, 2, 0]

    @pytest.mark.parametrize("argv", [
        ["no-such-command", "--config", "c.json"],
        ["qdf"],
        ["qdf", "--config", "c.json", "--seed", "1.5"],
    ], ids=["unknown-command", "no-config", "seed-not-an-int"])
    def test_bad_command_line_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().out

    def test_cold_flow_run_loads_no_scipy(self, tmp_path):
        # a perturbed metric at h > 0 sends every row through the Dormand-Prince
        # integrator, so each one ends on an event root of its dense output
        cfg = write(tmp_path / "c.json",
                    {"schema_version": 1, "command": "flow", "seed": 2,
                     "out": str(tmp_path / "flow"),
                     "metric": {"d": 1, "alpha": {"amplitude": 0.2, "waves": [
                         {"kappa": [0.7, 1.3], "cos": 0.4, "sin": 0.2}]}},
                     "params": {"n_per_case": 2, "h_list": [0.3]}})
        script = ("import sys\n"
                  "import nrlab.cli\n"
                  "loaded = lambda: sorted(m for m in sys.modules\n"
                  "                        if m.split('.')[0] in ('scipy', 'jsonschema'))\n"
                  "print('import', loaded())\n"
                  f"code = nrlab.cli.main(['flow', '--config', {cfg!r}])\n"
                  "print('run', loaded(), code)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "import []"
        assert proc.stdout.splitlines()[-1] == "run [] 0"
        summary = json.loads((tmp_path / "flow" / "summary.json").read_text())
        assert summary["solver"]["closed_form_rows"] == 0
        assert summary["fraction_correct"] == 1.0


class TestSerialization:
    def test_metric_json_round_trip(self):
        # a literal JSON block reads back as the MetricParams written in Python
        from nrlab.symbols import (ClassicalSymbolProfile, MetricParams,
                                   OperatorCoefficient)
        M = MetricParams(
            d=1,
            alpha=ClassicalSymbolProfile(amplitude=0.2, waves=(((0.5, 1.0), 0.3, 0.1),)),
            B=(OperatorCoefficient(
                real=ClassicalSymbolProfile(amplitude=0.4),
                imag=ClassicalSymbolProfile(amplitude=0.05, order=-2),
                imag_c_decay=True),),
        )
        M2 = metric_from_json(json.loads("""{
            "d": 1,
            "alpha": {"amplitude": 0.2, "order": -1, "constant": 1.0,
                      "waves": [{"kappa": [0.5, 1.0], "cos": 0.3, "sin": 0.1}]},
            "B": [{"re": {"amplitude": 0.4},
                   "im": {"amplitude": 0.05, "order": -2}, "im_c_decay": true}]
        }"""))
        for name in ("d", "alpha", "w", "hjk", "beta", "B", "W"):
            assert getattr(M2, name) == getattr(M, name), name

    def test_flow_trajectory_export(self, tmp_path):
        cfg = {"schema_version": 1, "command": "flow", "seed": 5,
               "out": str(tmp_path / "flow"), "params": {"n_per_case": 2}}
        assert run(cfg) == 0
        lines = (tmp_path / "flow" / "trajectory_sample.csv").read_text().splitlines()
        assert lines[0].startswith("param_time,chart_tag,coord_0")
        assert len(lines) > 4

    def test_flow_solver_statistics(self, tmp_path):
        cfg = {"schema_version": 1, "command": "flow", "seed": 5,
               "out": str(tmp_path / "flow"),
               "metric": {"d": 1, "alpha": {"amplitude": 0.2, "waves": [
                   {"kappa": [0.7, 1.3], "cos": 0.4, "sin": 0.2}]}},
               "params": {"n_per_case": 2, "h_list": [0.0, 0.3]}}
        assert run(cfg) == 0
        solver = json.loads((tmp_path / "flow" / "summary.json").read_text())["solver"]
        # the 8 rows at h = 0 are closed-form; the 8 at h = 0.3 and the
        # sample each cost f(y0), an initial-step trial and 6 per attempt
        assert solver["closed_form_rows"] == 8
        assert solver["steps"] > 0
        assert solver["rhs_evals"] == 2 * 9 + 6 * (solver["steps"] + solver["rejected"])

    @pytest.mark.parametrize("command,steps", [("mass", 160 * 13), ("scatter", 0),
                                               ("pde-compare", 0)])
    def test_schrodinger_step_count(self, tmp_path, command, steps):
        # mass: 160 output intervals of 0.25 at dt 0.02 take 13 steps each;
        # scatter and pde-compare evolve freely, which takes no steps
        cfg = {"schema_version": 1, "command": command, "out": str(tmp_path / command)}
        assert run(cfg) == 0
        summary = json.loads((tmp_path / command / "summary.json").read_text())
        assert summary["solver"] == {"schrodinger_steps": steps}

    def test_flow_perturbed_d2(self, tmp_path):
        cfg = {"schema_version": 1, "command": "flow", "seed": 3,
               "out": str(tmp_path / "flow2"),
               "metric": {"d": 2, "alpha": {"amplitude": 0.2, "waves": [
                   {"kappa": [0.7, 1.3, -0.5], "cos": 0.4, "sin": 0.2}]}},
               "params": {"n_per_case": 1, "h_list": [0.0, 0.2]}}
        assert run(cfg) == 0
        summary = json.loads((tmp_path / "flow2" / "summary.json").read_text())
        assert summary["pass"] is True
        lines = (tmp_path / "flow2" / "trajectory_sample.csv").read_text().splitlines()
        assert lines[0].endswith("coord_5,p_residual")

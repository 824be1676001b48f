"""Batch front-end: config validation, artifacts, determinism, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import jsonschema

from nrlab.cli import COMMANDS, CONFIG_SCHEMA, load_config, main, metric_from_json, run
from nrlab.errors import ConfigInvalid, InvalidInput, NrlabError
from nrlab.experiments import scatter


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


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

    def test_schema_is_valid_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)

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

    def test_console_entry_point(self, tmp_path):
        cfg = write(tmp_path / "c.json",
                    {"schema_version": 1, "command": "degeneracy",
                     "out": str(tmp_path / "deg")})
        proc = subprocess.run(
            [sys.executable, "-m", "nrlab.cli", "degeneracy", "--config", cfg],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS degeneracy" in proc.stdout

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
                  "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
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
    def test_metric_json_round_trip(self, tmp_path):
        from nrlab.cli import metric_to_json
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
        M2 = metric_from_json(metric_to_json(M))
        assert M2.alpha == M.alpha
        assert M2.B[0] == M.B[0]
        assert M2.d == M.d

    def test_order_profile_json(self):
        from nrlab.norms import OrderProfile
        p = OrderProfile(1.0, 1.0, 0.0, 0.0, -0.4, -0.6)
        q = OrderProfile.from_json(p.to_json())
        assert q == p

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

"""Batch front-end: config validation, artifacts, determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from nrlab.cli import load_config, main, metric_from_json, run
from nrlab.errors import ConfigInvalid


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

    def test_malformed_metric_exit_2(self, tmp_path):
        cfg = write(tmp_path / "c.json",
                    {"schema_version": 1, "command": "qdf",
                     "metric": {"d": 1, "alpha": {"order": 3}}})
        rc = main(["qdf", "--config", cfg])
        assert rc == 2

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
        rows_a = (tmp_path / "a" / "char_samples.csv").read_text().splitlines()
        rows_b = (tmp_path / "b" / "char_samples.csv").read_text().splitlines()
        # identical except the timestamp header
        assert rows_a[0].startswith("# generated")
        assert rows_a[1:] == rows_b[1:]

    def test_seed_changes_samples(self, tmp_path):
        cfg = {"schema_version": 1, "command": "charset",
               "params": {"n_samples": 50}}
        run(cfg, out=str(tmp_path / "a"), seed=1)
        run(cfg, out=str(tmp_path / "b"), seed=2)
        rows_a = (tmp_path / "a" / "char_samples.csv").read_text().splitlines()
        rows_b = (tmp_path / "b" / "char_samples.csv").read_text().splitlines()
        assert rows_a[2:] != rows_b[2:]

    def test_console_entry_point(self, tmp_path):
        cfg = write(tmp_path / "c.json",
                    {"schema_version": 1, "command": "degeneracy",
                     "out": str(tmp_path / "deg")})
        proc = subprocess.run(
            [sys.executable, "-m", "nrlab.cli", "degeneracy", "--config", cfg],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS degeneracy" in proc.stdout


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
        assert lines[1].startswith("param_time,chart_tag,coord_0")
        assert len(lines) > 4

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
        assert lines[1].endswith("coord_5,p_residual")

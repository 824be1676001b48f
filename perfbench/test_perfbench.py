"""Tests of the benchmark's tracer and failure accounting.

Run with:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy.fft
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_nested_and_back_to_back_spans():
    clock = ManualClock()
    tr = Tracer(clock=clock)

    def work(dt):
        clock.t += dt

    sym_a = tr.span("symbols", "a", lambda: work(2.0))
    sym_b = tr.span("symbols", "b", lambda: work(3.0))

    def inner_body():
        work(1.0)
        sym_a()       # two other-layer children, back to back
        sym_b()
        work(1.0)

    inner = tr.span("flow", "inner", inner_body)   # same layer as outer

    def outer_body():
        work(1.0)
        inner()
        work(1.0)

    outer = tr.span("flow", "outer", outer_body)
    outer()
    # outer lasts 9; the symbols children cover 5 of it; inner is not
    # counted a second time
    assert tr.self_s["flow"] == pytest.approx(4.0)
    assert tr.self_s["symbols"] == pytest.approx(5.0)
    assert tr.layer_calls("flow") == 2
    assert tr.layer_calls("symbols") == 2
    assert tr.spans == 4


def _snapshot():
    import nrlab.cli

    modules = [m for n, m in sys.modules.items()
               if n == "nrlab" or n.startswith("nrlab.")] + [numpy.fft]
    attrs = {(m.__name__, a): v for m in modules for a, v in vars(m).items()}
    reporter = sys.modules["nrlab.cli"].Reporter
    attrs.update({("Reporter", a): v for a, v in vars(reporter).items()})
    return nrlab.cli, attrs


def test_rebind_covers_by_name_imports():
    import nrlab.flow
    import nrlab.symbols
    from nrlab.symbols import MetricParams, SignBranch

    original = nrlab.symbols.natural_symbol_value
    assert nrlab.flow.natural_symbol_value is original
    tr = Tracer()
    with tr.installed():
        assert nrlab.flow.natural_symbol_value is nrlab.symbols.natural_symbol_value
        assert nrlab.flow.natural_symbol_value is not original
        nrlab.flow.natural_symbol_value(MetricParams.free(1), [0.0, 0.0],
                                        [0.5, 1.0], 0.1, SignBranch.PLUS)
    assert tr.calls["symbols", "natural_symbol_value"] == 1
    assert tr.layer_calls("flow") == 0
    assert nrlab.flow.natural_symbol_value is original


def test_every_wrapped_attribute_is_restored(tmp_path):
    cli, before = _snapshot()
    config = tmp_path / "star.json"
    config.write_text('{"schema_version": 1, "command": "star"}')
    tr = Tracer()
    with tr.installed():
        assert numpy.fft.fftn is not before["numpy.fft", "fftn"]
        code = cli.main(["star", "--config", str(config),
                         "--out", str(tmp_path / "out")])
    assert code == 0
    assert tr.calls["quantize", "op_apply"] > 0
    assert tr.fft_calls["quantize"] > 0
    assert tr.calls["cli", "Reporter.finish"] == 1
    _, after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_restored_after_an_exception():
    _, before = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    _, after = _snapshot()
    assert all(after[k] is v for k, v in before.items())


def test_impossible_tolerance_counts_as_failure(tmp_path):
    workload = WORKLOADS["flow-ensemble"]
    command, config = workload.configs(bench.DEFAULT_SEED)[0]
    config["params"]["n_per_case"] = 1
    config["tolerances"] = {"p_resid": 0}
    rep = bench.run_rep(workload, [(command, config)], tmp_path / "rep",
                        "plain", timeout=120)
    assert not rep.ok
    assert any("flow exited 1" in p for p in rep.problems)
    assert any("pass is not true" in p for p in rep.problems)
    metrics = bench.end_to_end([rep], [rep])
    assert metrics["pass_frac"]["value"] == 0.0
    assert metrics["run_s"]["value"] is None


def test_times_are_scaled_to_the_reference_host():
    def run_at(slowdown):
        reps = [bench.Rep([], 3.0, setup_s=0.5 * slowdown,
                          run_s=run_s * slowdown, peak_rss_mb=90.0,
                          ref_s=bench.REFERENCE_S * slowdown)
                for run_s in (1.0, 1.2, 1.1)]
        return bench.end_to_end([], reps)

    fast, slow = run_at(1.0), run_at(1.6)
    assert fast["run_s"]["value"] == pytest.approx(1.1)
    assert fast["setup_s"]["value"] == pytest.approx(0.5)
    for key in ("run_s", "setup_s", "peak_rss_mb", "pass_frac"):
        assert slow[key]["value"] == pytest.approx(fast[key]["value"])

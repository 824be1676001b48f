"""nrlab benchmark: time to a verified verdict of a CLI experiment.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Each repetition runs ``nrlab.cli.main`` in a fresh single-threaded child
process, because a CLI user pays the cold cost on every invocation, and its
outputs are checked (exit code, ``summary.json`` "pass", the workload's own
output facts).  ``--trace 0`` measures for ``--seconds`` seconds and reports
the end-to-end times as means over the repetitions, scaled to a reference
host speed (see ``end_to_end``); ``--trace 1`` runs one untraced, one traced
and one cProfile repetition and reports the per-layer metrics.  The last line of standard output is one JSON object.
Everything is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from reference import reference_s  # noqa: E402
from workloads import WORKLOADS, Workload, check_outputs  # noqa: E402

DEFAULT_SEED = 1
# kept back for checking a claimed gain on inputs nobody tuned against
HOLDOUT_SEED = 90210
MIN_SETUP_SAMPLES = 7   # setup-only children make up the rest, for setup_s
# the sum of reference_s() on a 2-vCPU Intel Xeon VM at 2.1 GHz in a fast
# phase; the end-to-end times read as seconds there (see end_to_end)
REFERENCE_S = 0.11
HARD_LIMIT_S = 165.0    # a run never outlives this, whatever the children do
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass
class Rep:
    """One child process: its timings and whatever made it fail."""

    problems: list = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float | None = None
    run_s: float | None = None
    peak_rss_mb: float | None = None
    trace: dict | None = None
    ref_s: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_rep(workload: Workload, configs: list, rep_dir: Path, mode: str,
            timeout: float, profile_path: Path | None = None) -> Rep:
    """Run one child in ``rep_dir`` and check what it left behind."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    spec = {"src": str(SRC), "configs": configs, "rep_dir": str(rep_dir),
            "mode": mode, "profile_path": str(profile_path)}
    (rep_dir / "spec.json").write_text(json.dumps(spec))
    result_path = rep_dir / "result.json"
    ref_before = reference_s() if mode in ("setup", "plain") else None
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(rep_dir / "spec.json"),
             str(result_path)],
            cwd=rep_dir, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return Rep([f"timed out after {timeout:.0f} s"],
                   time.perf_counter() - start)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not result_path.is_file():
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return Rep([f"child exited {proc.returncode}: {tail}"], wall)
    res = json.loads(result_path.read_text())
    rep = Rep([], wall, res["setup_s"], res.get("run_s"),
              res.get("peak_rss_mb"), res.get("trace"))
    if ref_before is not None:
        rep.ref_s = (sum(ref_before.values()) + sum(res["ref_s"].values())) / 2
    if mode != "setup":
        commands = [command for command, _ in configs]
        rep.problems = check_outputs(workload, commands, rep_dir / "out",
                                     res["exit_codes"])
    return rep


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def provenance(workload: Workload, seed: int, configs: list, seconds: float,
               trace: bool) -> dict:
    """Machine, versions, commit, seed and the exact generated configs."""
    cpu_model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level} {kind}"] = _read(index / "size")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    versions = {}
    for dist in ("numpy", "scipy", "jsonschema"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "caches": caches, "python": platform.python_version(),
        "versions": versions, "git_commit": commit,
        "child_threads": {var: "1" for var in THREAD_VARS},
        "configs": [{"command": c, "config": cfg} for c, cfg in configs],
    }


def measure(workload: Workload, configs: list, out: Path, seconds: float,
            hard_deadline: float) -> tuple[list, list]:
    """Repetitions until the time is used, then setup-only children until
    there are MIN_SETUP_SAMPLES setup timings.

    Another repetition starts only while a typical one still fits, so the
    repetitions end within ``seconds`` unless the first alone is longer.
    """
    reps_dir = out / "reps"
    reference_s()  # the first call loads and plans what later calls reuse
    deadline = time.perf_counter() + seconds
    reps = []
    while True:
        reps.append(run_rep(workload, configs, reps_dir / f"rep-{len(reps)}",
                            "plain", hard_deadline - time.perf_counter()))
        typical = statistics.median(r.wall_s for r in reps)
        now = time.perf_counter()
        if now + typical > deadline or now + 2 * typical > hard_deadline:
            break
    probes = [run_rep(workload, configs, reps_dir / f"setup-{i}", "setup",
                      hard_deadline - time.perf_counter())
              for i in range(max(0, MIN_SETUP_SAMPLES - len(reps)))]
    return probes, reps


def at_reference(children: list, attr: str) -> float | None:
    """REFERENCE_S x (total ``attr`` time) / (total ref_s) over the children."""
    pairs = [(getattr(r, attr), r.ref_s) for r in children
             if getattr(r, attr) is not None and r.ref_s is not None]
    if not pairs:
        return None
    return REFERENCE_S * sum(t for t, _ in pairs) / sum(f for _, f in pairs)


def end_to_end(probes: list, reps: list) -> dict:
    """The end-to-end metrics of one timed run.

    A time is the mean over the children, scaled to the reference host by
    REFERENCE_S over the mean ref_s of the same children: the time of
    ``reference_s()`` just before each child starts and just after its run.
    The host runs in fast and slow phases, up to 1.6 times apart, that
    switch within seconds, drift over minutes and slow every process; raw
    times report the phases a run fell in more than the program.  They are
    printed beside the scaled ones.
    """
    good = [r for r in reps if r.ok]
    metrics = {
        "setup_s": (at_reference(probes + reps, "setup_s"), "s"),
        "run_s": (at_reference(good, "run_s"), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in good)
                        if good else None, "MiB"),
        "pass_frac": (len(good) / len(reps), "fraction"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(workload: Workload, configs: list, out: Path,
           hard_deadline: float) -> tuple[list, dict]:
    """Untraced, traced and cProfile repetitions; the per-layer metrics."""
    reps_dir = out / "reps"
    plain = run_rep(workload, configs, reps_dir / "plain", "plain",
                    hard_deadline - time.perf_counter())
    trace = run_rep(workload, configs, reps_dir / "trace", "trace",
                    hard_deadline - time.perf_counter())
    layer = dict(trace.trace or {})
    if trace.ok:
        layer["cli.io_bytes"] = dir_bytes(reps_dir / "trace" / "out")
    if trace.ok and plain.ok:
        layer["trace.overhead_s"] = trace.run_s - plain.run_s
    profile = run_rep(workload, configs, reps_dir / "profile", "profile",
                      hard_deadline - time.perf_counter(),
                      profile_path=out / "profile_top10.txt")
    (out / "trace.json").write_text(json.dumps(layer, indent=1, sort_keys=True))
    return [plain, trace, profile], layer


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 bench: dict) -> dict:
    """Measure one workload; print its metrics and return the result object."""
    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    workload = WORKLOADS[name]
    configs = workload.configs(seed)
    out = OUT / name / f"seed-{seed}" / ("trace" if trace else "timed")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (out / "provenance.json").write_text(
        json.dumps(provenance(workload, seed, configs, seconds, trace), indent=1))
    if trace:
        reps, layer = traced(workload, configs, out, hard_deadline)
        metrics = {m["name"]: {"value": layer.get(m["name"]), "unit": m["unit"]}
                   for m in bench["per_layer"]}
        probe_failures = []
    else:
        probes, reps = measure(workload, configs, out, seconds, hard_deadline)
        metrics = end_to_end(probes, reps)
        probe_failures = [p for p in probes if not p.ok]
    failed = [r for r in reps if not r.ok]
    for i, rep in enumerate(reps):
        for problem in rep.problems:
            print(f"{name}: repetition {i} failed: {problem}")
    for probe in probe_failures:
        print(f"{name}: setup-only child failed: {probe.problems[0]}")
    print(f"{name} seed {seed}: {len(reps)} repetitions, {len(failed)} failed "
          f"({time.perf_counter() - start:.1f} s, output in "
          f"{out.relative_to(ROOT)})")
    (out / "reps.json").write_text(json.dumps(
        [{"setup_s": r.setup_s, "run_s": r.run_s, "ref_s": r.ref_s, "ok": r.ok}
         for r in reps], indent=1))
    print("  raw run_s samples: "
          + " ".join(f"{r.run_s:.3f}" for r in reps if r.run_s is not None))
    print("  ref_s samples:     "
          + " ".join(f"{r.ref_s:.3f}" for r in reps if r.ref_s is not None))
    shown = {k: (m["value"], m["unit"]) for k, m in metrics.items()}
    shown["fail_frac"] = (len(failed) / len(reps), "fraction")
    for key, (value, unit) in shown.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:36s} {text:>14s} {unit}")
    return {
        "correct": not failed and not probe_failures
        and all(m["value"] is not None for m in metrics.values()),
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "nrlab" / "cli.py").is_file():
        print(f"no nrlab source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, seconds, bool(args.trace), bench)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of a workload in a fresh process.

Usage: python3 child.py SPEC_JSON RESULT_JSON

The spec names the source tree, the (command, config) pairs, the repetition
directory and a mode: ``setup`` stops once ``nrlab.cli`` is imported and the
configs are written; ``plain`` then runs every command through
``nrlab.cli.main``; ``trace`` does so under the layer tracer; ``profile``
under cProfile, writing the top-10 attribution to the spec's
``profile_path``.  The result file gets setup_s, run_s, the exit codes, the
peak RSS and, when traced, the per-layer metrics.  ``setup`` and ``plain``
children end by timing ``reference.reference_s`` (ref_s), after everything
else is measured, so the parent can tell a slow host from a slow program.
"""

import time

T0 = time.perf_counter()  # setup_s is measured from here

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from pathlib import Path  # noqa: E402


def _write_profile(profiler, path: Path) -> None:
    import io
    import pstats

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    for key in ("cumulative", "tottime"):
        buf.write(f"== top 10 by {key} ==\n")
        stats.sort_stats(key).print_stats(10)
    path.write_text(buf.getvalue())


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from nrlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"nrlab imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    rep_dir = Path(spec["rep_dir"])
    argvs = []
    for command, config in spec["configs"]:
        path = rep_dir / f"{command}.json"
        path.write_text(json.dumps(config))
        argvs.append([command, "--config", str(path),
                      "--out", str(rep_dir / "out" / command)])
    mode = spec["mode"]
    result = {}
    with ExitStack() as armed:
        tracer = profiler = None
        if mode == "trace":
            from tracer import Tracer
            tracer = armed.enter_context(Tracer().installed())
        elif mode == "profile":
            import cProfile
            profiler = cProfile.Profile()
        t1 = time.perf_counter()
        result["setup_s"] = t1 - T0
        if mode != "setup":
            if profiler is not None:
                profiler.enable()
                armed.callback(profiler.disable)
            codes = [cli.main(argv) for argv in argvs]
            result["run_s"] = time.perf_counter() - t1
    if mode != "setup":
        result["exit_codes"] = codes
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["trace"] = tracer.metrics()
        if profiler is not None:
            _write_profile(profiler, Path(spec["profile_path"]))
    if mode in ("setup", "plain"):
        from reference import reference_s
        result["ref_s"] = reference_s()
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

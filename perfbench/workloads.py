"""The benchmark's workloads: generated CLI configs and output checks.

Every workload runs through the public entry point ``nrlab.cli.main``, so a
change to the library's internals is measured without editing this file.
The workload seed becomes the config's ``seed``; nothing else of the
program sees it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def pert_metric(amp: float) -> dict:
    """The acceptance suite's perturbed d = 1 metric, in the CLI metric JSON."""
    return {
        "d": 1,
        "alpha": {"amplitude": amp,
                  "waves": [{"kappa": [0.7, 1.3], "cos": 0.4, "sin": 0.2}]},
        "w": [{"amplitude": 0.8 * amp,
               "waves": [{"kappa": [1.1, -0.4], "cos": 0.3, "sin": 0.0}]}],
        "hjk": [[{"amplitude": amp,
                  "waves": [{"kappa": [0.3, 0.9], "cos": 0.0, "sin": 0.5}]}]],
    }


def _config(command: str, seed: int, **blocks) -> dict:
    return {"schema_version": 1, "command": command, "seed": seed, **blocks}


# Sizes are chosen so that one repetition runs about 1.5-2.5 s: a timed run
# then holds 7-13 repetitions, enough for a steady mean.
FLOW_N_PER_CASE = 8
FLOW_H_LIST = [0.0, 0.1, 0.5]
QDF_CENTERS = 10
RATIO_C_LIST = [4.0, 32.0]      # the ends of the CLI's default c-ladder
RATIO_MEMBERS = 3


def _flow_configs(seed):
    return [("flow", _config("flow", seed, metric=pert_metric(0.2),
                             params={"n_per_case": FLOW_N_PER_CASE,
                                     "h_list": FLOW_H_LIST}))]


def _qdf_configs(seed):
    return [("qdf", _config("qdf", seed, metric=pert_metric(0.1),
                            params={"n_centers": QDF_CENTERS, "n_samples": 60}))]


def _ratio_configs(seed):
    # no metric block: apply_kg drops a metric's second-order terms, so a
    # perturbed workload would time an operator that is due to change
    return [("uniform-ratio", _config("uniform-ratio", seed,
                                      params={"c_list": RATIO_C_LIST,
                                              "n_base": RATIO_MEMBERS // 3}))]


def _nr_limit_configs(seed):
    # scaled through each command's own params to about 2 s in total; these
    # commands draw no random numbers, so the seed only reaches the config
    return [
        ("pde-compare", _config("pde-compare", seed,
                                params={"T": 8.0, "n_grid": 512})),
        ("mass", _config("mass", seed, params={"dt": 0.01})),
        ("scatter", _config("scatter", seed)),
        ("star", _config("star", seed, params={"n_grid": 512})),
    ]


def csv_rows(path: Path) -> list[dict]:
    """Data rows of a CLI table, skipping '#' comment lines and the header."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _check_flow(out: Path, summaries: dict) -> list[str]:
    problems = []
    frac = summaries["flow"].get("fraction_correct")
    if frac != 1.0:
        problems.append(f"flow fraction_correct {frac} != 1.0")
    want = 2 * len(FLOW_H_LIST) * FLOW_N_PER_CASE * 2
    got = len(csv_rows(out / "flow" / "trajectories.csv"))
    if got != want:
        problems.append(f"flow trajectories.csv has {got} rows, expected {want}")
    if not csv_rows(out / "flow" / "trajectory_sample.csv"):
        problems.append("flow trajectory_sample.csv is empty")
    return problems


def _check_qdf(out: Path, summaries: dict) -> list[str]:
    got = len(csv_rows(out / "qdf" / "qdf.csv"))
    return [] if got == QDF_CENTERS else [
        f"qdf.csv has {got} rows, expected {QDF_CENTERS}"]


def _check_ratio(out: Path, summaries: dict) -> list[str]:
    rows = csv_rows(out / "uniform-ratio" / "ratios.csv")
    want = len(RATIO_C_LIST) * RATIO_MEMBERS
    members = {r["family_id"] for r in rows}
    problems = []
    if len(rows) != want:
        problems.append(f"ratios.csv has {len(rows)} rows, expected {want}")
    if len(members) < RATIO_MEMBERS:
        problems.append(f"ratios.csv has {len(members)} members, expected "
                        f">= {RATIO_MEMBERS}")
    return problems


def _check_none(out: Path, summaries: dict) -> list[str]:
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int], list]   # seed -> [(command, config), ...]
    check: Callable[[Path, dict], list]  # (out dir, summaries) -> problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flow-ensemble", _flow_configs, _check_flow),
        Workload("radial-probes", _qdf_configs, _check_qdf),
        Workload("uniform-ratio", _ratio_configs, _check_ratio),
        # every command PASSing is the whole check for nr-limit
        Workload("nr-limit", _nr_limit_configs, _check_none),
    )
}


def check_outputs(workload: Workload, commands: list[str], out: Path,
                  exit_codes: list[int]) -> list[str]:
    """Problems with one repetition's outputs; empty when it is correct.

    Every command must exit 0 and write summary.json with "pass": true; then
    the workload's own output facts must hold.
    """
    problems = []
    summaries = {}
    for command, code in zip(commands, exit_codes):
        if code != 0:
            problems.append(f"{command} exited {code}")
        path = out / command / "summary.json"
        try:
            summaries[command] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{command}: no readable summary.json ({exc})")
            continue
        if summaries[command].get("pass") is not True:
            problems.append(f"{command}: summary.json pass is not true")
    if problems:
        return problems
    try:
        return workload.check(out, summaries)
    except (OSError, KeyError, csv.Error) as exc:
        return [f"output check could not read outputs: {exc!r}"]

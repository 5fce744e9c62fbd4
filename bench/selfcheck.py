"""Quick self-check of the benchmark at a tiny size (about a minute).

For every workload, untraced and traced: every metric BENCHMARK.json names
is printed with its unit and a finite value, the output checks pass, and
the traced pass gives the same result CSVs as the untraced passes. Two
traced det-nominal runs must give the same counts. The benchmark's
frame-by-frame localize path must write the same CSV as ``semloc
localize`` on the same files, for detections and masks.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import semloc.cli as cli
from layers import PER_LAYER
from workloads import localize_world
from worlds import (TINY, WORKLOADS, SetupTimes, SynthTimes, parse_world,
                    synthesize)

ROOT = Path(__file__).resolve().parent.parent
# Per-layer metrics in these units are counts or ratios of counts (or
# accuracy), which must repeat exactly for a seed.
DETERMINISTIC_UNITS = ("count", "fraction", "m")


def _metric_problems(label: str, metrics: dict, table: dict) -> list:
    problems = []
    if set(metrics) != set(table):
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(table))} "
                        f"missing or unexpected")
    for name, unit in table.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {entry.get('unit')!r}, "
                            f"expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r} is not finite")
    return problems


def _cli_problems(workdir: Path) -> list:
    """Benchmark localize path vs ``semloc localize`` on the same inputs."""
    problems = []
    for workload in ("det-nominal", "masks"):
        world = synthesize(workload, 0, TINY, workdir / workload, SynthTimes())[0]
        parsed = parse_world(workload, world, SetupTimes())
        ours = localize_world(parsed, 0, masks=workload == "masks").output
        d = world.directory
        out = d / "cli-result.csv"
        source = (["--masks", str(world.mask_dir)] if workload == "masks"
                  else ["--detections", str(d / "detections.txt")])
        code = cli.main(["localize", "--map", str(d / "map.txt"), *source,
                         "--intrinsics", str(d / "intrinsics.txt"),
                         "--bootstrap", str(d / "bootstrap.txt"),
                         "--out", str(out)])
        if code != 0 or out.read_text() != ours:
            problems.append(f"{workload}: benchmark CSV differs from "
                            f"`semloc localize` (exit {code})")
    return problems


def selfcheck(run_workload, end_to_end: dict) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for section, table in (("end_to_end", end_to_end), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != table:
            problems.append(f"BENCHMARK.json {section} differs from the "
                            f"metrics the benchmark prints")
    for workload in WORKLOADS:
        runs = {}
        for trace, table in ((False, end_to_end), (True, PER_LAYER)):
            result = run_workload(workload, 0, 0.2, trace, TINY,
                                  say=lambda *a, **k: None)
            label = f"{workload} trace {int(trace)}"
            problems += _metric_problems(label, result["metrics"], table)
            if not result["correct"]:
                problems.append(f"{label}: output checks failed")
            runs[trace] = result["hashes"]
        same = runs[False] == runs[True]
        if not same:
            problems.append(f"{workload}: result CSVs differ with tracing on")
        if workload == "det-nominal":
            again = run_workload(workload, 0, 0.2, True, TINY,
                                 say=lambda *a, **k: None)["metrics"]
            moved = [name for name, unit in PER_LAYER.items()
                     if unit in DETERMINISTIC_UNITS and
                     again[name] != result["metrics"][name]]
            if moved:
                problems.append(f"{workload}: counts differ between two "
                                f"traced runs: {moved}")
        print(f"{workload:<12} {len(end_to_end)} end-to-end and "
              f"{len(PER_LAYER)} per-layer metrics; traced CSVs "
              f"{'identical' if same else 'DIFFER'}")
    workdir = ROOT / ".bench_work" / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        problems += _cli_problems(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("passed" if not problems else
                          f"failed: {len(problems)} problems"))
    return 0 if not problems else 1

"""Robustness stress matrix over paper-scale worlds (on demand, not gated).

Cells: pixel noise sigma {0,1,2,3} px x outlier rate {0,0.1,0.2,0.3} x
dropout {0,0.2} x road {straight, curved} x pole sides {1,2} x world seeds
{0,1,2}; 384 worlds of the default 270 m corridor. Each cell runs the whole
sequence once through ``pipeline.run_sequence`` and records rms and max
position error, coast fraction, a diverged flag (max error > 5 m) and ms
per frame. Results are compared against ``stress_baseline.json``, the first
run on the unchanged code, whose diverged cells are its known failures.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

from semloc.pipeline import FrameStatus, evaluate, run_sequence
from semloc.synthworld import WorldConfig, generate_world, render_frames

from workloads import DIVERGED_M

SIGMAS = (0.0, 1.0, 2.0, 3.0)
OUTLIERS = (0.0, 0.1, 0.2, 0.3)
DROPOUTS = (0.0, 0.2)
ROADS = {"straight": 0.0, "curved": 3.0}   # curve_amplitude_m
POLE_SIDES = (1, 2)
SEEDS = (0, 1, 2)
ACCURACY_KEYS = ("rms_m", "max_m", "coast_frac", "diverged")
KEY_FIELDS = ("sigma_px", "outliers", "dropout", "road", "pole_sides", "seed")


def cells():
    for values in itertools.product(SIGMAS, OUTLIERS, DROPOUTS, ROADS,
                                    POLE_SIDES, SEEDS):
        yield dict(zip(KEY_FIELDS, values))


def cell_key(cell: dict) -> tuple:
    return tuple(cell[k] for k in KEY_FIELDS)


def run_cell(cell: dict) -> dict:
    config = WorldConfig(pixel_noise_sigma=cell["sigma_px"],
                         outlier_rate=cell["outliers"],
                         dropout_rate=cell["dropout"],
                         curve_amplitude_m=ROADS[cell["road"]],
                         pole_sides=cell["pole_sides"], rng_seed=cell["seed"])
    semantic_map, trajectory = generate_world(config)
    frames = [r.frame for r in render_frames(semantic_map, trajectory, config)]
    t0 = time.perf_counter()
    result = run_sequence(semantic_map, frames, trajectory[:2],
                          config.intrinsics)
    ms_per_frame = (time.perf_counter() - t0) * 1e3 / len(frames)
    summary = evaluate(result, dict(enumerate(trajectory)))
    localizable = len(frames) - 2
    return dict(cell, frames=len(frames),
                rms_m=summary.rms_position_m, max_m=summary.max_position_m,
                coast_frac=result.count(FrameStatus.COASTED) / localizable,
                diverged=summary.max_position_m > DIVERGED_M,
                ms_per_frame=ms_per_frame)


def write_results(path: Path, results: list, wall_s: float) -> None:
    """JSON with one cell per line; ``known_failures`` lists the keys of
    the diverged cells."""
    failures = [list(cell_key(r)) for r in results if r["diverged"]]
    lines = ["{", f' "wall_s": {wall_s:.1f},',
             f' "diverged_cells": {len(failures)},',
             f' "key": {json.dumps(KEY_FIELDS)},',
             ' "known_failures": [']
    lines += [f"  {json.dumps(key)}," for key in failures]
    lines[-1] = lines[-1].rstrip(",")
    lines += [" ],", ' "cells": [']
    lines += [f"  {json.dumps(r)}," for r in results]
    lines[-1] = lines[-1].rstrip(",")
    lines += [" ]", "}"]
    path.write_text("\n".join(lines) + "\n")


def run_stress(out_path: Path, baseline_path: Path) -> int:
    """Run every cell, write the results, and list changes from baseline."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    results = []
    started = time.perf_counter()
    for cell in cells():
        row = run_cell(cell)
        results.append(row)
        print(" ".join(f"{k}={row[k]}" for k in cell) +
              f"  rms {row['rms_m']:.3f} m  max {row['max_m']:.3f} m  coast "
              f"{row['coast_frac']:.3f}  {'DIVERGED' if row['diverged'] else 'ok'}"
              f"  {row['ms_per_frame']:.2f} ms/frame", flush=True)
    write_results(out_path, results, time.perf_counter() - started)
    print(f"{len(results)} cells, {sum(r['diverged'] for r in results)} "
          f"diverged -> {out_path}")

    if baseline_path.is_file():
        base = {cell_key(r): r for r in
                json.loads(baseline_path.read_text())["cells"]}
        changed = [(key, base.get(key), r) for r in results
                   for key in [cell_key(r)]
                   if key not in base or
                   any(base[key][k] != r[k] for k in ACCURACY_KEYS)]
        print(f"accuracy changed in {len(changed)} of {len(results)} cells "
              f"against {baseline_path.name}")
        for key, old, new in changed:
            before = "new cell" if old is None else \
                f"rms {old['rms_m']:.3f} diverged {old['diverged']}"
            print(f"  {key}: {before} -> rms {new['rms_m']:.3f} "
                  f"diverged {new['diverged']}")
    return 0

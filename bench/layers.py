"""Per-layer metrics of a traced pass.

Every value comes from the workload's own traffic, and is 0 where the
workload does not reach a layer (features on det-*, solves on landscape,
cost surfaces on det-* and masks). ``residual.rj_us`` is the one
micro-measure: a fixed residual-and-Jacobian call timed on its own.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import semloc.association as association
import semloc.mapmodel as mapmodel
import semloc.pipeline as pipeline
from semloc.association import AssociationConfig
from semloc.mapmodel import RoughPose
from semloc.pipeline import parse_detections
from semloc.residual import (CorrespondenceSet, ReprojectionObjective,
                             SolverObjective, nearest_lane_height)

from tracing import END, FRAME, NAME, START, WORLD, Tracer

RJ_REPEATS = 300

# name -> unit, in report order; BENCHMARK.json lists the same.
PER_LAYER = {
    "cli.import_s": "s",
    "mapmodel.parse_map_ms": "ms",
    "mapmodel.preselect_us": "us",
    "mapmodel.preselected_per_frame": "count",
    "pipeline.parse_detections_ms": "ms",
    "pipeline.coast_frac": "fraction",
    "pipeline.diverged_worlds": "count",
    "rms_position_m": "m",
    "max_position_m": "m",
    "frac_within_0.5m": "fraction",
    "failed_frac": "fraction",
    "frame_samples": "count",
    "camera.projections_per_frame": "count",
    "association.match_us": "us",
    "association.matches_per_frame": "count",
    "association.hypotheses_per_frame": "count",
    "association.accept_ratio": "fraction",
    "solver.solve_us_p50": "us",
    "solver.solve_us_p90": "us",
    "solver.solves_per_frame": "count",
    "solver.iterations_per_solve": "count",
    "solver.singular_frac": "fraction",
    "solver.landscape_point_us": "us",
    "residual.rj_us": "us",
    "residual.evals_per_solve": "count",
    "residual.gate_eval_us": "us",
    "features.read_ms": "ms",
    "features.extract_ms": "ms",
    "features.region_grow_ms": "ms",
    "features.fit_line_ms": "ms",
    "features.regions_per_frame": "count",
    "synthworld.generate_s": "s",
    "synthworld.render_detections_ms": "ms",
    "synthworld.render_masks_ms": "ms",
    "trace.overhead_ms": "ms",
}


def residual_and_jacobian_us(parsed) -> float:
    """Median time of one SolverObjective.residual_and_jacobian on a fixed
    5-pair set (4 line pairs and 1 point pair when the frame has them),
    matched at the true pose of a mid-sequence frame of the first world."""
    detections = parse_detections(
        (parsed.files.directory / "detections.txt").read_text())
    frame = detections[len(detections) // 2]
    center = parsed.files.truth[frame.frame_id]
    assoc = AssociationConfig()
    selected = mapmodel.preselect(parsed.semantic_map, RoughPose(
        center.position, pipeline.heading_from_pose(center), frame.road_index))
    corr = association.closest_correspond(
        selected, frame.det_lines, frame.det_points, center, parsed.intrinsics,
        assoc.gate_line_refine_px, assoc.gate_point_refine_px)
    n_points = min(1, len(corr.point_pairs))
    n_lines = min(5 - n_points, len(corr.line_pairs))
    five = CorrespondenceSet(corr.line_pairs[:n_lines], corr.point_pairs[:n_points])
    objective = SolverObjective(ReprojectionObjective(
        selected, frame.det_lines, frame.det_points, five, parsed.intrinsics,
        y_lane=nearest_lane_height(selected.lines, center.position)))
    samples = []
    for _ in range(RJ_REPEATS):
        t0 = time.perf_counter()
        objective.residual_and_jacobian(center)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def self_time_table(tracer: Tracer) -> list:
    """(layer, self seconds) summed over span names, largest first."""
    per_layer = {}
    for name, seconds in tracer.self_times().items():
        layer = name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + seconds
    return sorted(per_layer.items(), key=lambda kv: -kv[1])


def layer_metrics(tracer: Tracer, frames: int, localized: int,
                  known: dict) -> dict:
    """Per-layer metrics of a traced pass.

    ``frames`` is the number of frames past bootstrap (surfaces on
    landscape) and ``localized`` how many of them were Localized; ``known``
    holds the values measured outside the trace (set-up, synthesis,
    accuracy).
    """
    def timing(span, scale, stat=statistics.median):
        values = tracer.durations(span)
        return stat(values) * scale if values else 0.0

    def per_frame(name):
        return tracer.counts[name] / frames if frames else 0.0

    def p90(values):
        return float(np.percentile(values, 90))

    def mean(name):
        values = tracer.values[name]
        return float(np.mean(values)) if values else 0.0

    hypotheses = tracer.counts["association.hypotheses"]
    solves = tracer.counts["solver.solve"]
    surfaces = tracer.durations("solver.cost_landscape")
    grid_points = len(tracer.durations("residual.gate_eval"))
    mask_frames = tracer.counts["features.read_mask_files"]

    def ms_per_mask_frame(span):
        return (sum(tracer.durations(span)) * 1e3 / mask_frames
                if mask_frames else 0.0)

    metrics = dict(known)
    metrics.update({
        "mapmodel.preselect_us": timing("mapmodel.preselect", 1e6),
        "mapmodel.preselected_per_frame": per_frame("mapmodel.preselected"),
        "camera.projections_per_frame": (per_frame("camera.project_line") +
                                         per_frame("camera.project_point")),
        "association.match_us": timing("association.closest_correspond", 1e6),
        "association.matches_per_frame": per_frame("association.matched_pairs"),
        "association.hypotheses_per_frame": per_frame("association.hypotheses"),
        "association.accept_ratio": localized / hypotheses if hypotheses else 0.0,
        "solver.solve_us_p50": timing("solver.solve", 1e6),
        "solver.solve_us_p90": timing("solver.solve", 1e6, p90),
        "solver.solves_per_frame": per_frame("solver.solve"),
        "solver.iterations_per_solve": mean("solver.iterations"),
        "solver.singular_frac": (tracer.counts["solver.singular"] / solves
                                 if solves else 0.0),
        "solver.landscape_point_us": (statistics.median(surfaces) * 1e6 *
                                      len(surfaces) / grid_points
                                      if grid_points else 0.0),
        "residual.evals_per_solve": mean("residual.evals_per_solve"),
        "residual.gate_eval_us": timing("residual.gate_eval", 1e6),
        "features.read_ms": timing("features.read_mask_files", 1e3),
        "features.extract_ms": timing("features.extract_features", 1e3),
        "features.region_grow_ms": ms_per_mask_frame("features.region_grow"),
        "features.fit_line_ms": ms_per_mask_frame("features.fit_region_line"),
        "features.regions_per_frame": (tracer.counts["features.regions"] /
                                       mask_frames if mask_frames else 0.0),
    })
    return metrics


def retry_summary(tracer: Tracer, frames: int) -> dict:
    """How the hypothesis loop's traffic is spread over frames: the most
    hypotheses in one frame, the share of frames that tried more than one
    and their share of frame time, and the longest LM solve. Reported, not
    listed in BENCHMARK.json: outside det-clutter they are constant."""
    retried = {key for key, n in tracer.frame_hypotheses.items() if n > 1}
    frame_time = retried_time = 0.0
    for s in tracer.spans:
        if s[NAME] == "pipeline.frame":
            frame_time += s[END] - s[START]
            if (s[WORLD], s[FRAME]) in retried:
                retried_time += s[END] - s[START]
    return {
        "hypotheses_max": max(tracer.frame_hypotheses.values(), default=0),
        "retry_frac": len(retried) / frames if frames else 0.0,
        "retry_time_frac": retried_time / frame_time if frame_time else 0.0,
        "iterations_max": max(tracer.values["solver.iterations"], default=0),
    }

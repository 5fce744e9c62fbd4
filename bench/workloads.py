"""Timed passes over a workload's parsed inputs, and checks on their output.

One pass runs every world of the run once. Detection and mask workloads
hand ``pipeline.run_sequence`` a generator that timestamps each frame as it
hands it out: the gap between two hand-outs is the earlier frame's latency
(for masks the generator also reads and extracts the frame, so that time
is inside the gap). The landscape workload times one cost surface at a
time, doing the work of ``semloc landscape``.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import semloc.association as association
import semloc.features as features
import semloc.mapmodel as mapmodel
import semloc.pipeline as pipeline
import semloc.solver as solver
from semloc.association import AssociationConfig
from semloc.mapmodel import RoughPose
from semloc.pipeline import FrameInput, FrameStatus
from semloc.residual import ReprojectionObjective, nearest_lane_height
from semloc.synthworld import generate_world, render_detections

from tracing import CountingObjective

BOOTSTRAP_FRAMES = 2          # taken as given, not localized, not timed
LANDSCAPE_DIMS = ("x", "z")   # the ``semloc landscape`` defaults
LANDSCAPE_HALF_RANGE = 2.0
DIVERGED_M = 5.0              # a world whose max error exceeds this diverged


@dataclass
class WorldPass:
    latencies_ms: np.ndarray      # timed frames (or surfaces) of the world
    output: str                   # result CSV, or landscape CSV rows
    attempted: int
    failed: int
    frames: int                   # frames handed out, bootstrap included
    wall_s: float
    result: object = None         # TrajectoryResult (detections, masks)
    errors_m: list = field(default_factory=list)  # landscape minimum errors


class FrameClock:
    """Stamps each frame as it is handed to ``run_sequence``.

    Under a tracer it also opens a ``pipeline.frame`` span per frame, which
    the layer spans recorded while that frame is processed nest in.
    """

    def __init__(self, tracer=None, world: int = 0):
        self.stamps = []
        self._tracer = tracer
        self._world = world
        self._span = None

    def tick(self, frame_id: int) -> None:
        self.stamps.append(time.perf_counter())
        if self._tracer is not None:
            if self._span is not None:
                self._tracer.end(self._span)
            self._tracer.world, self._tracer.frame = self._world, frame_id
            self._span = self._tracer.begin("pipeline.frame")

    def stop(self) -> None:
        self.stamps.append(time.perf_counter())
        if self._span is not None:
            self._tracer.end(self._span)
            self._span = None

    def latencies_ms(self) -> np.ndarray:
        return np.diff(self.stamps) * 1e3


def _report_exception(what: str) -> None:
    print(f"[bench] {what} raised:\n{traceback.format_exc()}", file=sys.stderr)


def localize_world(parsed, index: int, masks: bool, tracer=None) -> WorldPass:
    """One ``semloc localize`` run over a parsed world, frame by frame."""
    clock = FrameClock(tracer, index)
    if masks:
        def source():
            for frame_id in parsed.frame_ids:
                clock.tick(frame_id)
                mask = features.read_mask_files(parsed.files.mask_dir, frame_id)
                det_lines, det_points = features.extract_features(mask)
                yield FrameInput(frame_id, det_lines, det_points, 0)
        n_frames = len(parsed.frame_ids)
    else:
        def source():
            for frame in parsed.frames:
                clock.tick(frame.frame_id)
                yield frame
        n_frames = len(parsed.frames)

    t0 = time.perf_counter()
    try:
        result = pipeline.run_sequence(parsed.semantic_map, source(),
                                       parsed.bootstrap, parsed.intrinsics)
    except Exception:  # the world fails as a whole; keep measuring the rest
        _report_exception(f"world {parsed.files.seed}")
        result = None
    clock.stop()
    wall = time.perf_counter() - t0
    attempted = n_frames - BOOTSTRAP_FRAMES
    if result is None:
        return WorldPass(np.array([]), "", attempted, attempted, n_frames, wall)
    failed = sum(1 for rec in result.records[BOOTSTRAP_FRAMES:]
                 if not np.all(np.isfinite(rec.pose.as_vector())))
    failed += max(0, n_frames - len(result.records))
    return WorldPass(clock.latencies_ms()[BOOTSTRAP_FRAMES:],
                     pipeline.serialize_result(result), attempted, failed,
                     n_frames, wall, result)


def cost_surface(semantic_map, intrinsics, frame, center, grid_n: int,
                 tracer=None):
    """The work of ``semloc landscape`` for one frame, centred on the truth:
    preselect, match with the refinement gates, build the gate-form
    objective and evaluate it on a grid_n x grid_n grid over x and z."""
    assoc = AssociationConfig()
    rough = RoughPose(center.position, pipeline.heading_from_pose(center),
                      frame.road_index)
    selected = mapmodel.preselect(semantic_map, rough)
    corr = association.closest_correspond(
        selected, frame.det_lines, frame.det_points, center, intrinsics,
        assoc.gate_line_refine_px, assoc.gate_point_refine_px)
    if len(corr) == 0:
        raise ValueError("no correspondences at the center pose")
    objective = ReprojectionObjective(
        selected, frame.det_lines, frame.det_points, corr, intrinsics,
        y_lane=nearest_lane_height(selected.lines, center.position))
    if tracer is not None:
        objective = CountingObjective(objective, tracer, "residual.gate_eval")
    return solver.cost_landscape(objective, center, *LANDSCAPE_DIMS,
                                 LANDSCAPE_HALF_RANGE, LANDSCAPE_HALF_RANGE,
                                 grid_n)


def surface_rows(a_values, b_values, grid) -> list:
    """The CSV rows ``semloc landscape`` writes."""
    return [f"{a:.9f},{b:.9f},{grid[i, j]:.9f}"
            for i, a in enumerate(a_values) for j, b in enumerate(b_values)]


def minimum_error_m(a_values, b_values, grid, center) -> float:
    """Ground distance from the surface's lowest cell to the true pose."""
    i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
    return math.hypot(a_values[i] - center.x, b_values[j] - center.z)


def landscape_world(parsed, index: int, stride: int, grid_n: int,
                    tracer=None, rotate: int = 0) -> WorldPass:
    """Cost surfaces at every ``stride``-th frame of a world, one by one,
    starting ``rotate`` surfaces in (results stay in frame order)."""
    frames = parsed.frames[BOOTSTRAP_FRAMES::stride]
    latencies = [0.0] * len(frames)
    surfaces = [None] * len(frames)
    t_world = time.perf_counter()
    for k in _rotated(range(len(frames)), rotate):
        frame = frames[k]
        center = parsed.truth[frame.frame_id]
        if tracer is not None:
            tracer.world, tracer.frame = index, frame.frame_id
            span = tracer.begin("cli.landscape")
        t0 = time.perf_counter()
        try:
            surfaces[k] = cost_surface(parsed.semantic_map, parsed.intrinsics,
                                       frame, center, grid_n, tracer)
        except Exception:
            _report_exception(f"surface at frame {frame.frame_id}")
        latencies[k] = (time.perf_counter() - t0) * 1e3
        if tracer is not None:
            tracer.end(span)
    rows, errors, failed = ["a_value,b_value,sqrtR"], [], 0
    for frame, surface in zip(frames, surfaces):
        if surface is None or not np.all(np.isfinite(surface[2])):
            failed += 1
            continue
        rows.append(f"# frame {frame.frame_id}")
        rows.extend(surface_rows(*surface))
        errors.append(minimum_error_m(*surface, parsed.truth[frame.frame_id]))
    return WorldPass(np.array(latencies), "\n".join(rows) + "\n", len(frames),
                     failed, len(frames), time.perf_counter() - t_world,
                     errors_m=errors)


def _rotated(items, shift: int) -> list:
    items = list(items)
    shift %= max(len(items), 1)
    return items[shift:] + items[:shift]


def run_pass(workload: str, parsed_worlds: list, scale, tracer=None,
             rotate: int = 0) -> list:
    """One pass over every world, in world order when ``rotate`` is 0.

    Timed passes rotate where they start (worlds, and surfaces within a
    landscape world), so that slow phases recurring at the pass period
    do not land on the same frames every pass. Results are returned in
    world order."""
    out = [None] * len(parsed_worlds)
    for index in _rotated(range(len(parsed_worlds)), rotate):
        parsed = parsed_worlds[index]
        if workload == "landscape":
            out[index] = landscape_world(parsed, index, scale.landscape_stride,
                                         scale.grid_n, tracer, rotate)
        else:
            out[index] = localize_world(parsed, index, workload == "masks",
                                        tracer)
    return out


# --- measurement ------------------------------------------------------------


def pass_p50(world_passes: list) -> float:
    """Median frame latency of one pass, all worlds pooled."""
    return float(np.median(np.concatenate([w.latencies_ms
                                           for w in world_passes])))


@dataclass
class Timed:
    reference: list          # warm-up pass, the outputs later passes must match
    passes: list             # timed passes
    seconds: float

    def latency_matrix(self) -> list:
        """Per world: (passes, frames) array of latencies in ms."""
        return [np.vstack([p[w].latencies_ms for p in self.passes])
                for w in range(len(self.reference))]

    def world_medians(self) -> list:
        """Per world: each timed frame's median latency (ms) over the timed
        passes. A shared machine runs everything slower for seconds at a
        time; the median over passes spread across the run takes the
        run's typical speed, where a minimum would hinge on whether a
        rare fast moment happened to fall in the run."""
        return [np.median(m, axis=0) for m in self.latency_matrix() if m.size]

    def across_worlds(self, stat) -> float:
        """Median over the run's worlds of ``stat`` of each world's
        per-frame medians.

        A world that diverges spends its frames in long failing solves;
        the median keeps one or two such worlds in a run from deciding
        the figure (they are reported as known failures instead)."""
        values = [stat(m) for m in self.world_medians()]
        return float(np.median(values)) if values else math.nan

    @property
    def attempted(self) -> int:
        return sum(w.attempted for p in self.passes for w in p)

    @property
    def failed(self) -> int:
        return sum(w.failed for p in self.passes for w in p)


def measure(workload: str, parsed_worlds: list, scale, seconds: float,
            before_pass=None) -> Timed:
    """A warm-up pass, then whole passes until ``seconds`` have gone by.
    ``before_pass`` runs before each timed pass and counts against
    ``seconds`` (set-up is measured too), but not against the pass."""
    reference = run_pass(workload, parsed_worlds, scale)
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        if before_pass is not None:
            before_pass()
        passes.append(run_pass(workload, parsed_worlds, scale,
                               rotate=len(passes) + 1))
    return Timed(reference, passes, time.perf_counter() - t_start)


# --- output checks ------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Accuracy:
    rms_position_m: float
    max_position_m: float
    frac_within_half_m: float
    coast_frac: float
    diverged: list             # world seeds whose max error exceeds 5 m


def accuracy(workload: str, parsed_worlds: list, reference: list) -> Accuracy:
    """Pooled over every frame (or surface minimum) of every world."""
    errors, diverged, coasted, localizable = [], [], 0, 0
    for parsed, wp in zip(parsed_worlds, reference):
        if workload == "landscape":
            world_errors = wp.errors_m
        elif wp.result is None:
            continue
        else:
            truth = parsed.files.truth
            world_errors = [float(np.linalg.norm(rec.pose.position -
                                                 truth[rec.frame_id].position))
                            for rec in wp.result.records]
            coasted += wp.result.count(FrameStatus.COASTED)
            localizable += len(wp.result.records) - BOOTSTRAP_FRAMES
        errors.extend(world_errors)
        if world_errors and max(world_errors) > DIVERGED_M:
            diverged.append(parsed.files.seed)
    err = np.array(errors) if errors else np.array([math.nan])
    return Accuracy(float(np.sqrt(np.mean(err ** 2))), float(np.max(err)),
                    float(np.mean(err < 0.5)),
                    coasted / localizable if localizable else 0.0, diverged)


def check_outputs(workload: str, parsed_worlds: list, timed: Timed,
                  traced: list | None, grid_n: int) -> list:
    """(check, passed, detail) for every output check of the run."""
    ref = timed.reference
    n = len(ref)
    short, bad_pose, failed = [], [], []
    for parsed, wp in zip(parsed_worlds, ref):
        seed = parsed.files.seed
        if wp.failed:
            failed.append(seed)
        if workload == "landscape":
            continue
        expected = (len(parsed.frame_ids) if workload == "masks"
                    else len(parsed.frames))
        records = wp.result.records if wp.result is not None else []
        if len(records) != expected:
            short.append(seed)
        if any(not isinstance(rec.status, FrameStatus)
               or not np.all(np.isfinite(rec.pose.as_vector()))
               for rec in records):
            bad_pose.append(seed)
    checks = [(f"no failed frames or surfaces ({n} worlds)", not failed,
               f"worlds {failed}" if failed else "")]
    if workload != "landscape":
        checks += [
            (f"one record per input frame ({n} worlds)", not short,
             f"worlds {short}" if short else ""),
            (f"finite poses and valid statuses ({n} worlds)", not bad_pose,
             f"worlds {bad_pose}" if bad_pose else "")]
    same = all(p[w].output == ref[w].output
               for p in timed.passes for w in range(n))
    checks.append((f"outputs identical on warm-up and {len(timed.passes)} "
                   f"timed passes", same, ""))
    if traced is not None:
        same = all(t.output == r.output for t, r in zip(traced, ref))
        checks.append(("outputs identical with tracing on and off", same, ""))
    if workload == "landscape":
        checks.extend(noiseless_minimum_checks(parsed_worlds[0], grid_n))
    return checks


def noiseless_minimum_checks(parsed, grid_n: int) -> list:
    """On noiseless renders of the first world, each surface's lowest cell
    must be the centre cell, which is the ground-truth pose."""
    config = replace(parsed.files.config, pixel_noise_sigma=0.0)
    semantic_map, trajectory = generate_world(config)
    checks = []
    for k in (BOOTSTRAP_FRAMES, len(parsed.frames) // 2):
        frame = render_detections(semantic_map, trajectory[k], config,
                                  frame_id=k).frame
        a_values, b_values, grid = cost_surface(
            semantic_map, config.intrinsics, frame, trajectory[k], grid_n)
        cell = np.unravel_index(int(np.argmin(grid)), grid.shape)
        centre = (grid_n // 2, grid_n // 2)
        checks.append((f"noiseless frame {k}: surface minimum at the truth cell",
                       tuple(int(c) for c in cell) == centre,
                       f"minimum at {tuple(int(c) for c in cell)}, truth at {centre}"))
    return checks

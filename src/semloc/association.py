"""Simultaneous data association and localization.

Two stages: a gated nearest-neighbor matcher pairs each preselected
landmark with its closest same-class detection at the predicted pose, and
a hypothesize-validate loop solves the pose on the whole match from each
start pose it is given, re-matches at the solved pose with tight gates, and
keeps the first result that survives the residual, pose-shift and pair-count
gates. The accepted result is the pose optimized over the re-matched,
tightly gated correspondence set.
"""

from __future__ import annotations

import math

from .camera import (CameraPose, Intrinsics, PoseTransform, project_line,
                     project_point, wrap_angle)
from .mapmodel import PreselectedSet
from .residual import (CorrespondenceSet, ReprojectionObjective,
                       ResidualConfig, line_distance, nearest_lane_height,
                       point_distance)
from .solver import SingularNormalEquations, solve


class NoValidAssociation(RuntimeError):
    """No hypothesis survived validation; coast on the motion model."""


class AssociationConfig:
    """Gates for associate-and-localize, fixed at the reference tuning for
    urban scenes.

    Distances are pixels; ``max_pose_shift`` is the mixed-unit pose norm of
    ``pose_distance`` (meters and degrees). Every gate is positive and
    finite, and each refinement gate is no larger than its initial gate.
    """

    gate_line_init_px = 300.0      # initial line match gate
    gate_point_init_px = 300.0     # initial point match gate
    gate_line_refine_px = 10.0     # re-match line gate after validation
    gate_point_refine_px = 10.0    # re-match point gate after validation
    max_pose_shift = 30.0          # validated pose vs initial pose
    max_hypothesis_rms = 200.0     # sqrt(cost) bound for a hypothesis
    max_final_rms_per_pair = 4.0   # sqrt(cost) bound per refined pair


def pose_distance(a: CameraPose, b: CameraPose) -> float:
    """Mixed-unit pose difference norm: meters for position, degrees for
    angles, angle differences taken on the shortest arc."""
    dp = a.position - b.position
    da = [math.degrees(wrap_angle(x - y))
          for x, y in zip(a.angles, b.angles)]
    return math.sqrt(float(dp @ dp) + sum(d * d for d in da))


def closest_correspond(preselected: PreselectedSet, det_lines, det_points,
                       pose: CameraPose, intrinsics: Intrinsics,
                       gate_line_px: float, gate_point_px: float) -> CorrespondenceSet:
    """Gated nearest-neighbor matching at a fixed pose.

    Each preselected landmark is projected (cheirality failures are
    skipped) and paired with the closest detection of the same class when
    that distance is within the gate. Ties go to the lowest detection
    index, and a detection may be claimed by more than one landmark.
    Nothing downstream resolves such conflicts yet: the validation loop
    can accept a pose metres off with two landmarks on one detection (see
    ``tests/test_pipeline.py::TestNoFarOffAccept`` and ROADMAP item 1).
    """
    corr = CorrespondenceSet()
    view = PoseTransform.of(pose)
    # One projection per landmark through the module globals, so a wrapper
    # installed on this module sees every call. Each detection's geometry
    # (a line's frame, a point's (x, y)) is taken once as Python floats; a
    # distance is then a few float operations per (landmark, detection)
    # pair.
    for pairs, landmarks, projections, detections, distance, gate in (
            (corr.line_pairs, preselected.lines,
             [project_line(lm, view, intrinsics) for lm in preselected.lines],
             [(det.semantic, det.geometry) for det in det_lines],
             line_distance, gate_line_px),
            (corr.point_pairs, preselected.points,
             [project_point(lm.p, view, intrinsics)
              for lm in preselected.points],
             [(det.semantic, det.m.tolist()) for det in det_points],
             point_distance, gate_point_px)):
        for lm_idx, (lm, proj) in enumerate(zip(landmarks, projections)):
            if proj is None:
                continue
            best, best_idx = math.inf, -1
            for det_idx, (semantic, det) in enumerate(detections):
                if semantic is not lm.semantic:
                    continue
                dist = distance(proj, det)
                if dist < best:
                    best, best_idx = dist, det_idx
            if best_idx >= 0 and best <= gate:
                pairs.append((lm_idx, best_idx))
    return corr


def _iter_hypotheses(init: CameraPose):
    """Yield the poses the validation loop solves the whole base match from:
    today only the frame's prediction."""
    yield init


def associate_and_localize(preselected: PreselectedSet, det_lines, det_points,
                           init: CameraPose, intrinsics: Intrinsics,
                           residual_config: ResidualConfig = ResidualConfig()):
    """Robust pose estimation with unknown correspondences.

    Returns (SolveResult, refined CorrespondenceSet) or raises
    NoValidAssociation. Deterministic: every start pose is solved on the
    same base match, in one fixed order.
    """
    base = closest_correspond(preselected, det_lines, det_points, init,
                              intrinsics, AssociationConfig.gate_line_init_px,
                              AssociationConfig.gate_point_init_px)
    if len(base) == 0:
        raise NoValidAssociation("no gated pairs at the initial pose")
    # Lane height for the flat-ground term, pinned at the initial position
    # so the objective stays smooth across the whole solve.
    y_lane = nearest_lane_height(preselected.lines, init.position)

    def _objective(corr):
        return ReprojectionObjective(preselected, det_lines, det_points, corr,
                                     intrinsics, residual_config, y_lane)

    def _solve(objective, start):
        """Optimize over the objective's correspondence set; the returned
        result reports the gate cost (sqrt of the stacked-distance
        residual), while the minimization itself runs on the smooth
        split-row formulation."""
        fit = solve(objective, start)
        gate = objective.residual(fit.pose)
        fit.final_cost = float(gate @ gate)
        return fit

    base_objective = _objective(base)
    for start in _iter_hypotheses(init):
        try:
            fit = _solve(base_objective, start)
        except SingularNormalEquations:
            continue
        if fit.residual_rms > AssociationConfig.max_hypothesis_rms:
            continue
        if pose_distance(fit.pose, init) > AssociationConfig.max_pose_shift:
            continue

        refined = closest_correspond(
            preselected, det_lines, det_points, fit.pose, intrinsics,
            AssociationConfig.gate_line_refine_px,
            AssociationConfig.gate_point_refine_px)
        if len(refined) < 0.5 * len(base):
            continue
        # Re-matching often returns the base's own pairs. Its objective
        # then still holds (r, J) at fit.pose, where the refine solve
        # starts, whenever the solve returned the pose it evaluated last;
        # that first evaluation then projects nothing.
        objective = base_objective
        if (refined.line_pairs, refined.point_pairs) != \
                (base.line_pairs, base.point_pairs):
            objective = _objective(refined)
        try:
            final = _solve(objective, fit.pose)
        except SingularNormalEquations:
            continue
        if final.residual_rms > \
                AssociationConfig.max_final_rms_per_pair * len(refined):
            continue
        return final, refined

    raise NoValidAssociation("no hypothesis survived validation")
